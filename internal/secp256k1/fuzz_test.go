package secp256k1

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"tinyevm/internal/types"
)

// FuzzSignRecoverVsBig holds Sign, Verify, recoverKey and
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

			pub, err := recoverKey(digest, c)
			bigRec, bigErr := bigRecover(digest, bc)
			switch {
			case (err == nil) != (bigErr == nil),
				errors.Is(err, ErrInvalidSignature) != errors.Is(bigErr, ErrInvalidSignature),
				errors.Is(err, ErrRecoveryFailed) != errors.Is(bigErr, ErrRecoveryFailed):
				t.Fatalf("Recover(%x, %x) = %v, oracle %v", digest, c.Serialize(), err, bigErr)
			case err == nil && pub != (PublicKey{X: *be32(bigRec.X), Y: *be32(bigRec.Y)}):
				t.Fatalf("Recover(%x, %x) = %x, oracle %x", digest, c.Serialize(), pub.SerializeUncompressed(), bigRec.X)
			}
			addr, addrErr := RecoverAddress(digest, c)
			if (addrErr == nil) != (err == nil) || (err == nil && addr != pub.Address()) {
				t.Fatalf("RecoverAddress(%x, %x) disagrees with recoverKey", digest, c.Serialize())
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

// FuzzParseSignature holds ParseSignature to the ranges the math/big
// oracle states: it accepts exactly the 65-byte r||s||v with 0 < r < N,
// 0 < s <= N/2 and v in {0, 1}, never panics, and an accepted input
// serializes back to the same bytes.
func FuzzParseSignature(f *testing.F) {
	sig, err := DeterministicKey("parse-signature").Sign(types.Hash{1})
	if err != nil {
		f.Fatal(err)
	}
	valid := sig.Serialize()
	n, halfN := be32(bigN)[:], be32(bigHalfN)[:]
	above := be32(new(big.Int).Add(bigHalfN, big.NewInt(1)))[:]
	one, zero := be32(big.NewInt(1))[:], make([]byte, 32)
	for _, in := range [][]byte{
		valid,
		append(append(append([]byte{}, one...), halfN...), 1),
		append(append(append([]byte{}, one...), above...), 0),
		append(append(append([]byte{}, zero...), one...), 0),
		append(append(append([]byte{}, n...), one...), 0),
		append(append(append([]byte{}, one...), zero...), 0),
		append(append([]byte{}, valid[:64]...), 2),
		valid[:64],
		append(append([]byte{}, valid...), 0),
		nil,
	} {
		f.Add(in)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sig, err := ParseSignature(data)
		want := len(data) == SignatureLength
		if want {
			r, s := new(big.Int).SetBytes(data[0:32]), new(big.Int).SetBytes(data[32:64])
			want = r.Sign() > 0 && r.Cmp(bigN) < 0 && s.Sign() > 0 && s.Cmp(bigHalfN) <= 0 && data[64] <= 1
		}
		if (err == nil) != want {
			t.Fatalf("ParseSignature(%x) = %v, oracle accepts: %v", data, err, want)
		}
		if err == nil && !bytes.Equal(sig.Serialize(), data) {
			t.Fatalf("ParseSignature(%x) re-serializes as %x", data, sig.Serialize())
		}
	})
}

// FuzzParsePublicKey holds ParsePublicKey to the math/big oracle's
// curve checks: a 65-byte 0x04||X||Y key is accepted exactly when
// bigIsOnCurve holds, a 33-byte 0x02/0x03||X key exactly when X < P
// and bigLiftX finds a square root (and the lifted Y is the oracle's),
// anything else is refused; it never panics, and an accepted input
// serializes back to the same bytes in its own form.
func FuzzParsePublicKey(f *testing.F) {
	gx, gy := be32(bigGx)[:], be32(bigGy)[:]
	p := be32(bigP)[:]
	negGy := be32(new(big.Int).Sub(bigP, bigGy))[:]
	zero := make([]byte, 32)
	for _, in := range [][]byte{
		append(append([]byte{0x04}, gx...), gy...),
		append(append([]byte{0x04}, gx...), negGy...),
		append(append([]byte{0x04}, gx...), gx...),
		append(append([]byte{0x04}, zero...), zero...),
		append(append([]byte{0x04}, p...), gy...),
		append([]byte{0x02}, gx...),
		append([]byte{0x03}, gx...),
		append([]byte{0x02}, p...),
		append([]byte{0x03}, zero...),
		append([]byte{0x05}, gx...),
		append(append([]byte{0x06}, gx...), gy...),
		gx,
		nil,
	} {
		f.Add(in)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		pub, err := ParsePublicKey(data)
		var want bool
		var wantY *big.Int
		switch {
		case len(data) == 65 && data[0] == 0x04:
			wantY = new(big.Int).SetBytes(data[33:65])
			want = bigIsOnCurve(new(big.Int).SetBytes(data[1:33]), wantY)
		case len(data) == 33 && (data[0] == 0x02 || data[0] == 0x03):
			x := new(big.Int).SetBytes(data[1:33])
			if x.Cmp(bigP) < 0 {
				y, liftErr := bigLiftX(x, data[0] == 0x03)
				want, wantY = liftErr == nil, y
			}
		}
		if (err == nil) != want {
			t.Fatalf("ParsePublicKey(%x) = %v, oracle accepts: %v", data, err, want)
		}
		if err != nil {
			return
		}
		if pub.Y != *be32(wantY) {
			t.Fatalf("ParsePublicKey(%x).Y = %x, oracle %x", data, pub.Y, wantY)
		}
		got := pub.SerializeCompressed()
		if len(data) == 65 {
			got = pub.SerializeUncompressed()
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("ParsePublicKey(%x) re-serializes as %x", data, got)
		}
	})
}
