package secp256k1

import (
	"errors"
	"math/big"
	"testing"

	"tinyevm/internal/types"
)

// FuzzSignRecoverVsBig holds Sign, Verify, RecoverPublicKey and
// ParseSignature to the math/big implementation in oracle_test.go: the
// same signature bytes for any key and digest, and the same verdict —
// down to which error — for any (r, s, v), malformed ones included.
// Input: key(32) digest(32) r(32) s(32) v(1), zero-padded.
func FuzzSignRecoverVsBig(f *testing.F) {
	n, p := be32(bigN)[:], be32(bigP)[:]
	nm1 := be32(new(big.Int).Sub(bigN, big.NewInt(1)))[:]
	one := be32(big.NewInt(1))[:]
	zero := make([]byte, 32)
	ff := be32(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)))[:]
	seed := func(parts ...[]byte) {
		var in []byte
		for _, part := range parts {
			in = append(in, part...)
		}
		f.Add(in)
	}
	seed(one, one, one, one, []byte{0})
	seed(nm1, ff, nm1, nm1, []byte{1})
	seed(one, zero, zero, one, []byte{0})
	seed(one, n, one, zero, []byte{0})
	seed(one, one, n, one, []byte{0})
	seed(one, one, one, n, []byte{1})
	seed(one, one, p, one, []byte{1})
	seed(one, one, one, one, []byte{2})
	seed(ff, ff, ff, ff, []byte{255})
	seed([]byte("a key"), []byte("a digest"), []byte("an r"), []byte("an s"))

	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzWords(data, 4)
		var v byte
		if len(data) > 128 {
			v = data[128]
		}
		digest := types.Hash(w[1])

		// Any 32 bytes name a key: reduce into [1, N-1].
		d := new(big.Int).SetBytes(w[0][:])
		d.Mod(d, new(big.Int).Sub(bigN, big.NewInt(1))).Add(d, big.NewInt(1))
		key, err := PrivateKeyFromBytes(be32(d)[:])
		if err != nil {
			t.Fatal(err)
		}
		bx, by := bigScalarBaseMult(d)
		bigPub := &bigPublicKey{X: bx, Y: by}
		if key.PublicKey != (PublicKey{X: *be32(bx), Y: *be32(by)}) {
			t.Fatalf("public key of %x differs from the oracle", d)
		}

		sig, err := key.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		want := bigSign(d, digest)
		if sig.R != *be32(want.R) || sig.S != *be32(want.S) || sig.V != want.V {
			t.Fatalf("Sign(%x, %x) = %x, oracle %x %x %d", d, digest, sig.Serialize(), want.R, want.S, want.V)
		}

		// The signature, its high-s twin, and whatever (r, s, v) the
		// fuzzer supplied.
		var s scalar
		s.setBytes(&sig.S)
		s.neg(&s)
		for _, c := range []*Signature{
			sig,
			{R: sig.R, S: s.bytes(), V: sig.V ^ 1},
			{R: w[2], S: w[3], V: v},
			{R: sig.R, S: w[3], V: v & 1},
			{R: w[2], S: sig.S, V: v & 1},
		} {
			bc := &bigSignature{R: new(big.Int).SetBytes(c.R[:]), S: new(big.Int).SetBytes(c.S[:]), V: c.V}

			pub, err := RecoverPublicKey(digest, c)
			bigRec, bigErr := bigRecover(digest, bc)
			switch {
			case (err == nil) != (bigErr == nil),
				errors.Is(err, ErrInvalidSignature) != errors.Is(bigErr, ErrInvalidSignature),
				errors.Is(err, ErrRecoveryFailed) != errors.Is(bigErr, ErrRecoveryFailed):
				t.Fatalf("Recover(%x, %x) = %v, oracle %v", digest, c.Serialize(), err, bigErr)
			case err == nil && *pub != (PublicKey{X: *be32(bigRec.X), Y: *be32(bigRec.Y)}):
				t.Fatalf("Recover(%x, %x) = %x, oracle %x", digest, c.Serialize(), pub.SerializeUncompressed(), bigRec.X)
			}
			addr, addrErr := RecoverAddress(digest, c)
			if (addrErr == nil) != (err == nil) || (err == nil && addr != pub.Address()) {
				t.Fatalf("RecoverAddress(%x, %x) disagrees with RecoverPublicKey", digest, c.Serialize())
			}

			if got, want := Verify(&key.PublicKey, digest, c), bigVerify(bigPub, digest, bc); got != want {
				t.Fatalf("Verify(%x, %x) = %v, oracle %v", digest, c.Serialize(), got, want)
			}

			_, parseErr := ParseSignature(c.Serialize())
			inRange := bc.R.Sign() > 0 && bc.R.Cmp(bigN) < 0 && bc.S.Sign() > 0 && bc.S.Cmp(bigN) < 0
			if wantOK := inRange && bc.S.Cmp(bigHalfN) <= 0 && c.V <= 1; (parseErr == nil) != wantOK {
				t.Fatalf("ParseSignature(%x) = %v, want ok = %v", c.Serialize(), parseErr, wantOK)
			}
		}
	})
}
