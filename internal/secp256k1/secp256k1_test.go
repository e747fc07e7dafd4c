package secp256k1

import (
	"bytes"
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"tinyevm/internal/types"
)

func TestGeneratorOnCurve(t *testing.T) {
	if !generator.isOnCurve() {
		t.Fatal("generator not on curve")
	}
	if generator.x.big().Cmp(bigGx) != 0 || generator.y.big().Cmp(bigGy) != 0 {
		t.Fatal("generator limbs differ from the SEC 2 constants")
	}
}

func TestGeneratorOrder(t *testing.T) {
	// (N-1)*G must be -G (same x, negated y) ...
	nm1 := scalarFromBig(new(big.Int).Sub(bigN, big.NewInt(1)))
	var p jacobianPoint
	p.baseMult(&nm1)
	got := p.toAffine()
	var negG affinePoint
	negG.neg(&generator)
	if got != negG {
		t.Fatalf("(N-1)*G = (%x, %x), want -G", got.x.bytes(), got.y.bytes())
	}
	// ... so one more G is the point at infinity.
	p.addAffine(&p, &generator)
	if !p.isInfinity() {
		t.Fatal("N*G != infinity")
	}
}

func TestScalarMultKnownVector(t *testing.T) {
	// 2*G, a published curve vector.
	two := scalar{2}
	var p jacobianPoint
	p.baseMult(&two)
	got := p.toAffine()
	wantX := mustBig("c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5")
	wantY := mustBig("1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a")
	if got.x.big().Cmp(wantX) != 0 || got.y.big().Cmp(wantY) != 0 {
		t.Fatalf("2*G = (%x, %x), want (%x, %x)", got.x.bytes(), got.y.bytes(), wantX, wantY)
	}
}

func TestScalarMultDistributes(t *testing.T) {
	// (a+b)*G == a*G + b*G for random scalars.
	r := mrand.New(mrand.NewSource(4))
	for i := 0; i < 10; i++ {
		a := scalarFromBig(new(big.Int).Rand(r, bigN))
		b := scalarFromBig(new(big.Int).Rand(r, bigN))
		var sum scalar
		sum.add(&a, &b)

		var want, pa, pb, got jacobianPoint
		want.baseMult(&sum)
		pa.baseMult(&a)
		pb.baseMult(&b)
		got.add(&pa, &pb)
		if got.toAffine() != want.toAffine() {
			t.Fatalf("distributivity failed for a=%x b=%x", a.bytes(), b.bytes())
		}
	}
}

func TestPointAddEdgeCases(t *testing.T) {
	var g, inf, r jacobianPoint
	g.setAffine(&generator)

	// G + inf == G, inf + G == G, in both addition forms.
	r.add(&g, &inf)
	if r.toAffine() != generator {
		t.Fatal("G + infinity != G")
	}
	r.add(&inf, &g)
	if r.toAffine() != generator {
		t.Fatal("infinity + G != G")
	}
	r.addAffine(&inf, &generator)
	if r.toAffine() != generator {
		t.Fatal("infinity + G != G (mixed)")
	}
	// inf + inf == inf, 2*inf == inf.
	r.add(&inf, &inf)
	if !r.isInfinity() {
		t.Fatal("infinity + infinity != infinity")
	}
	r.double(&inf)
	if !r.isInfinity() {
		t.Fatal("2*infinity != infinity")
	}
	// G + (-G) == inf.
	var negA affinePoint
	var negG jacobianPoint
	negA.neg(&generator)
	negG.setAffine(&negA)
	r.add(&g, &negG)
	if !r.isInfinity() {
		t.Fatal("G + (-G) != infinity")
	}
	r.addAffine(&g, &negA)
	if !r.isInfinity() {
		t.Fatal("G + (-G) != infinity (mixed)")
	}
	// G + G == double(G), also when the two sides carry different Z.
	var viaAdd, viaMixed, viaDouble, scaled jacobianPoint
	viaDouble.double(&g)
	viaAdd.add(&g, &g)
	viaMixed.addAffine(&g, &generator)
	if viaAdd.toAffine() != viaDouble.toAffine() || viaMixed.toAffine() != viaDouble.toAffine() {
		t.Fatal("G+G != 2G")
	}
	scaled = rescale(&g, &fieldVal{5})
	viaAdd.add(&scaled, &g)
	viaMixed.addAffine(&scaled, &generator)
	if viaAdd.toAffine() != viaDouble.toAffine() || viaMixed.toAffine() != viaDouble.toAffine() {
		t.Fatal("G+G != 2G across representations")
	}
	r.add(&scaled, &negG)
	if !r.isInfinity() {
		t.Fatal("G + (-G) != infinity across representations")
	}
}

// rescale returns the same point as p in another Jacobian
// representation: (X·c^2, Y·c^3, Z·c).
func rescale(p *jacobianPoint, c *fieldVal) (q jacobianPoint) {
	var c2, c3 fieldVal
	c2.sqr(c)
	c3.mul(&c2, c)
	q.x.mul(&p.x, &c2)
	q.y.mul(&p.y, &c3)
	q.z.mul(&p.z, c)
	return q
}

func TestKeyGeneration(t *testing.T) {
	key := DeterministicKey("key-generation")
	if _, ok := key.PublicKey.point(); !ok {
		t.Fatal("generated public key not on curve")
	}
	round, err := PrivateKeyFromBytes(key.D[:])
	if err != nil {
		t.Fatal(err)
	}
	if *round != *key {
		t.Fatal("private key bytes round trip failed")
	}
}

func TestNewPrivateKeyRejectsBadScalars(t *testing.T) {
	for _, d := range []*big.Int{big.NewInt(0), new(big.Int).Set(bigN), new(big.Int).Add(bigN, big.NewInt(5))} {
		if _, err := PrivateKeyFromBytes(d.FillBytes(make([]byte, 32))); !errors.Is(err, ErrInvalidKey) {
			t.Fatalf("PrivateKeyFromBytes(%s) = %v, want ErrInvalidKey", d, err)
		}
	}
	if _, err := PrivateKeyFromBytes(make([]byte, 31)); !errors.Is(err, ErrInvalidKey) {
		t.Fatalf("short key accepted: %v", err)
	}
	if _, err := PrivateKeyFromBytes(big.NewInt(1).FillBytes(make([]byte, 32))); err != nil {
		t.Fatalf("PrivateKeyFromBytes(1) failed: %v", err)
	}
	// A hand-built key outside (0, N) is refused by Sign, not signed with.
	if _, err := (&PrivateKey{}).Sign(types.Hash{1}); !errors.Is(err, ErrInvalidKey) {
		t.Fatalf("zero key signed: %v", err)
	}
}

func TestDeterministicKeyStable(t *testing.T) {
	a := DeterministicKey("parking-sensor-1")
	b := DeterministicKey("parking-sensor-1")
	if *a != *b {
		t.Fatal("DeterministicKey not deterministic")
	}
	c := DeterministicKey("parking-sensor-2")
	if a.D == c.D {
		t.Fatal("distinct seeds gave identical keys")
	}
}

func TestSignVerify(t *testing.T) {
	key := DeterministicKey("signer")
	for i := 0; i < 10; i++ {
		digest := types.HashData([]byte{byte(i), 0xaa})
		sig, err := key.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(&key.PublicKey, digest, sig) {
			t.Fatalf("valid signature rejected (i=%d)", i)
		}
		// Tampered digest must fail.
		bad := digest
		bad[0] ^= 0xff
		if Verify(&key.PublicKey, bad, sig) {
			t.Fatal("signature verified against wrong digest")
		}
		// Tampered s must fail.
		tampered := *sig
		tampered.S[31] ^= 1
		if Verify(&key.PublicKey, digest, &tampered) {
			t.Fatal("tampered signature verified")
		}
		// So must a key that is not on the curve.
		offCurve := key.PublicKey
		offCurve.Y[31] ^= 1
		if Verify(&offCurve, digest, sig) {
			t.Fatal("signature verified under an off-curve key")
		}
	}
}

func TestSignDeterministic(t *testing.T) {
	key := DeterministicKey("rfc6979")
	digest := types.HashData([]byte("message"))
	sig1, err := key.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := key.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	if *sig1 != *sig2 {
		t.Fatal("RFC6979 signing is not deterministic")
	}
}

func TestLowS(t *testing.T) {
	key := DeterministicKey("low-s-check")
	for i := 0; i < 32; i++ {
		digest := types.HashData([]byte{byte(i)})
		sig, err := key.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		if new(big.Int).SetBytes(sig.S[:]).Cmp(bigHalfN) > 0 {
			t.Fatalf("signature %d has high s", i)
		}
	}
}

func TestRecover(t *testing.T) {
	for _, seed := range []string{"a", "b", "vehicle-7", "parking-lot-3"} {
		key := DeterministicKey(seed)
		digest := types.HashData([]byte("recover " + seed))
		sig, err := key.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		pub, err := recoverKey(digest, sig)
		if err != nil {
			t.Fatal(err)
		}
		if pub != key.PublicKey {
			t.Fatalf("recovered wrong key for seed %q", seed)
		}
		addr, err := RecoverAddress(digest, sig)
		if err != nil {
			t.Fatal(err)
		}
		if addr != key.PublicKey.Address() {
			t.Fatalf("recovered wrong address for seed %q", seed)
		}
	}
}

func TestRecoverRejectsWrongV(t *testing.T) {
	key := DeterministicKey("flip-v")
	digest := types.HashData([]byte("payload"))
	sig, err := key.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	flipped := &Signature{R: sig.R, S: sig.S, V: sig.V ^ 1}
	pub, err := recoverKey(digest, flipped)
	if err == nil && pub == key.PublicKey {
		t.Fatal("recovery with flipped v returned the true signer")
	}
	if _, err := recoverKey(digest, &Signature{R: sig.R, S: sig.S, V: 2}); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("recovery id 2 accepted: %v", err)
	}
}

// TestRecoverNoPointForR: an r that is not the x coordinate of any curve
// point — which is also what a signature whose R.x overflowed N looks
// like, since the r + N candidate is not tried — fails recovery cleanly.
func TestRecoverNoPointForR(t *testing.T) {
	digest := types.HashData([]byte("no such point"))
	for x := int64(1); ; x++ {
		if _, err := bigLiftX(big.NewInt(x), false); err == nil {
			continue
		}
		sig := &Signature{V: 0}
		sig.R[31], sig.S[31] = byte(x), 1
		if _, err := recoverKey(digest, sig); !errors.Is(err, ErrRecoveryFailed) {
			t.Fatalf("r = %d: %v, want ErrRecoveryFailed", x, err)
		}
		return
	}
}

func TestSignatureSerializeRoundTrip(t *testing.T) {
	key := DeterministicKey("serialize")
	digest := types.HashData([]byte("round trip"))
	sig, err := key.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	raw := sig.Serialize()
	if len(raw) != SignatureLength {
		t.Fatalf("serialized length %d", len(raw))
	}
	parsed, err := ParseSignature(raw)
	if err != nil {
		t.Fatal(err)
	}
	if *parsed != *sig {
		t.Fatal("signature round trip mismatch")
	}
}

func TestParseSignatureRejectsGarbage(t *testing.T) {
	if _, err := ParseSignature(make([]byte, 10)); err == nil {
		t.Fatal("short signature accepted")
	}
	zero := make([]byte, SignatureLength)
	if _, err := ParseSignature(zero); err == nil {
		t.Fatal("all-zero signature accepted")
	}
	key := DeterministicKey("garbage")
	digest := types.HashData([]byte("x"))
	sig, _ := key.Sign(digest)
	raw := sig.Serialize()
	raw[64] = 7
	if _, err := ParseSignature(raw); err == nil {
		t.Fatal("bad recovery id accepted")
	}
	// High-s rejection.
	var s scalar
	s.setBytes(&sig.S)
	s.neg(&s)
	highS := &Signature{R: sig.R, S: s.bytes(), V: sig.V}
	if _, err := ParseSignature(highS.Serialize()); err == nil {
		t.Fatal("high-s signature accepted")
	}
	// r = N and s = N are out of range.
	n := scalarN.bytes()
	for _, bad := range []*Signature{{R: n, S: sig.S}, {R: sig.R, S: n}} {
		if _, err := ParseSignature(bad.Serialize()); err == nil {
			t.Fatal("component = N accepted")
		}
	}
}

func TestPublicKeySerializeRoundTrip(t *testing.T) {
	key := DeterministicKey("pubkey-encoding")

	unc := key.PublicKey.SerializeUncompressed()
	if len(unc) != 65 || unc[0] != 0x04 {
		t.Fatalf("bad uncompressed encoding")
	}
	p1, err := ParsePublicKey(unc)
	if err != nil {
		t.Fatal(err)
	}
	if *p1 != key.PublicKey {
		t.Fatal("uncompressed round trip failed")
	}

	comp := key.PublicKey.SerializeCompressed()
	if len(comp) != 33 {
		t.Fatalf("bad compressed encoding")
	}
	p2, err := ParsePublicKey(comp)
	if err != nil {
		t.Fatal(err)
	}
	if *p2 != key.PublicKey {
		t.Fatal("compressed round trip failed")
	}

	if _, err := ParsePublicKey([]byte{0x05, 1, 2}); err == nil {
		t.Fatal("bad prefix accepted")
	}
	// Point off curve: tweak X of a valid encoding.
	bad := bytes.Clone(unc)
	bad[10] ^= 0xff
	if _, err := ParsePublicKey(bad); err == nil {
		t.Fatal("off-curve point accepted")
	}
	// A coordinate >= P is refused, not reduced: P + x would otherwise
	// alias the point at x.
	for x := int64(1); ; x++ {
		y, err := bigLiftX(big.NewInt(x), false)
		if err != nil {
			continue
		}
		aliased := append([]byte{0x04}, new(big.Int).Add(bigP, big.NewInt(x)).FillBytes(make([]byte, 32))...)
		aliased = append(aliased, y.FillBytes(make([]byte, 32))...)
		if _, err := ParsePublicKey(aliased); err == nil {
			t.Fatal("uncompressed x >= P accepted")
		}
		aliased[0] = 0x02
		if _, err := ParsePublicKey(aliased[:33]); err == nil {
			t.Fatal("compressed x >= P accepted")
		}
		break
	}
}

func TestAddressDerivationStable(t *testing.T) {
	key := DeterministicKey("addr")
	a1 := key.PublicKey.Address()
	a2 := key.PublicKey.Address()
	if a1 != a2 {
		t.Fatal("address derivation unstable")
	}
	if a1.IsZero() {
		t.Fatal("derived zero address")
	}
}

// Property: sign-then-recover yields the signer's address for arbitrary
// message bytes.
func TestSignRecoverQuick(t *testing.T) {
	key := DeterministicKey("quick-prop")
	addr := key.PublicKey.Address()
	f := func(msg []byte) bool {
		digest := types.HashData(msg)
		sig, err := key.Sign(digest)
		if err != nil {
			return false
		}
		got, err := RecoverAddress(digest, sig)
		if err != nil {
			return false
		}
		return got == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocs gates the allocation floor of the payment path: Sign
// allocates its result and nothing else, recovery and verification
// nothing at all.
func TestAllocs(t *testing.T) {
	key := DeterministicKey("allocs")
	digest := types.HashData([]byte("allocation gate"))
	sig, err := key.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Sign", 5, func() { key.Sign(digest) }},
		{"RecoverAddress", 5, func() { RecoverAddress(digest, sig) }},
		{"Verify", 5, func() { Verify(&key.PublicKey, digest, sig) }},
	} {
		if got := testing.AllocsPerRun(20, tc.fn); got > tc.max {
			t.Errorf("%s: %v allocs/op, want <= %v", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %v allocs/op", tc.name, got)
		}
	}
}

func BenchmarkSign(b *testing.B) {
	key := DeterministicKey("bench")
	digest := types.HashData([]byte("benchmark payload"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Sign(digest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	key := DeterministicKey("bench")
	digest := types.HashData([]byte("benchmark payload"))
	sig, err := key.Sign(digest)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(&key.PublicKey, digest, sig) {
			b.Fatal("verification failed")
		}
	}
}

func BenchmarkRecover(b *testing.B) {
	key := DeterministicKey("bench")
	digest := types.HashData([]byte("benchmark payload"))
	sig, err := key.Sign(digest)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recoverKey(digest, sig); err != nil {
			b.Fatal(err)
		}
	}
}
