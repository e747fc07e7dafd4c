package secp256k1

import (
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"

	"tinyevm/internal/types"
)

// sameAsOracle compares a Jacobian result with the oracle's affine
// (x, y), which is (0, 0) for infinity.
func sameAsOracle(p *jacobianPoint, x, y *big.Int) bool {
	if p.isInfinity() {
		return x.Sign() == 0 && y.Sign() == 0
	}
	a := p.toAffine()
	return a.x.big().Cmp(x) == 0 && a.y.big().Cmp(y) == 0
}

// oracleDoubleMult is u1·G + u2·(k·G) the slow way.
func oracleDoubleMult(u1, k, u2 *big.Int) (x, y *big.Int) {
	x1, y1 := bigScalarBaseMult(u1)
	kx, ky := bigScalarBaseMult(k)
	x2, y2 := bigScalarMult(kx, ky, u2)
	return bigFromAffine(x1, y1).add(bigFromAffine(x2, y2)).toAffine()
}

func pointFromBig(x, y *big.Int) (a affinePoint) {
	a.x.setBytes(be32(x))
	a.y.setBytes(be32(y))
	return a
}

func TestBaseTableVsOracle(t *testing.T) {
	baseTableOnce.Do(buildBaseTable)
	for i := 0; i < 64; i++ {
		for j := 1; j <= 15; j++ {
			if i != 0 && i != 63 && j != 1 && j != 8 && j != 15 {
				continue // every row, every column, not every cell: the oracle is slow
			}
			k := new(big.Int).Lsh(big.NewInt(int64(j)), uint(4*i))
			x, y := bigScalarBaseMult(k)
			if got := baseTable[i][j-1]; got != pointFromBig(x, y) {
				t.Fatalf("baseTable[%d][%d] != %d·16^%d·G", i, j-1, j, i)
			}
		}
	}
}

func TestBaseMultVsOracle(t *testing.T) {
	r := mrand.New(mrand.NewSource(8))
	ks := []*big.Int{big.NewInt(1), big.NewInt(15), big.NewInt(16), new(big.Int).Sub(bigN, big.NewInt(1))}
	for i := 0; i < 8; i++ {
		ks = append(ks, new(big.Int).Rand(r, bigN))
	}
	for _, k := range ks {
		ks := scalarFromBig(k)
		var p jacobianPoint
		p.baseMult(&ks)
		if x, y := bigScalarBaseMult(k); !sameAsOracle(&p, x, y) {
			t.Fatalf("baseMult(%x) differs from the oracle", k)
		}
	}
	var p jacobianPoint
	p.baseMult(&scalar{})
	if !p.isInfinity() {
		t.Fatal("0·G != infinity")
	}
}

// TestDoubleMultCorners drives u1·G + u2·Q through every exceptional
// case the interleaved chain can meet, with Q = k·G so the relation
// between the two terms is known.
func TestDoubleMultCorners(t *testing.T) {
	r := mrand.New(mrand.NewSource(9))
	rnd := func() *big.Int { return new(big.Int).Rand(r, bigN) }
	mulN := func(a, b *big.Int) *big.Int { return a.Mod(a.Mul(a, b), bigN) }
	negN := func(a *big.Int) *big.Int { return a.Mod(a.Neg(a), bigN) }
	one, zero := big.NewInt(1), new(big.Int)

	type corner struct {
		name      string
		u1, k, u2 *big.Int
		infinity  bool
	}
	k1, u21 := rnd(), rnd()
	k2, u22 := rnd(), rnd()
	corners := []corner{
		{"u1 = 0", zero, rnd(), rnd(), false},
		{"u2 = 0", rnd(), rnd(), zero, false},
		{"both zero", zero, rnd(), zero, true},
		{"u1·G = -u2·Q", negN(mulN(new(big.Int).Set(u21), k1)), k1, u21, true},
		{"u1·G = u2·Q", mulN(new(big.Int).Set(u22), k2), k2, u22, false},
		{"G + G: doubling on the first addition", one, one, one, false},
		{"G + (-G)", one, one, negN(big.NewInt(1)), true},
		{"3G + 3G: doubling mid-chain", big.NewInt(3), one, big.NewInt(3), false},
		{"Q = -G, u1 = u2", big.NewInt(77), negN(big.NewInt(1)), big.NewInt(77), true},
		{"largest scalars", negN(big.NewInt(1)), rnd(), negN(big.NewInt(1)), false},
	}
	for i := 0; i < 8; i++ {
		corners = append(corners, corner{"random", rnd(), rnd(), rnd(), false})
	}
	for _, c := range corners {
		kx, ky := bigScalarBaseMult(c.k)
		q := pointFromBig(kx, ky)
		u1, u2 := scalarFromBig(c.u1), scalarFromBig(c.u2)
		var p jacobianPoint
		p.doubleMult(&u1, &q, &u2)
		if p.isInfinity() != c.infinity {
			t.Errorf("%s: infinity = %v, want %v", c.name, p.isInfinity(), c.infinity)
		}
		if x, y := oracleDoubleMult(c.u1, c.k, c.u2); !sameAsOracle(&p, x, y) {
			t.Errorf("%s: differs from the oracle", c.name)
		}
	}
}

// TestInfinityIsRejected builds the signatures whose verification
// equation sums to the point at infinity: both entry points must refuse
// them, as the oracle does, rather than read coordinates off Z = 0.
func TestInfinityIsRejected(t *testing.T) {
	k, s := big.NewInt(0xC0FFEE), big.NewInt(0xBEEF)
	rx, ry := bigScalarBaseMult(k)

	// Recovery: Q = r^-1 (s·R - z·G) vanishes for R = k·G and z = s·k.
	z := new(big.Int).Mul(s, k)
	digest := types.Hash(*be32(z.Mod(z, bigN)))
	sig := &Signature{R: *be32(rx), S: *be32(s), V: byte(ry.Bit(0))}
	if _, err := recoverKey(digest, sig); !errors.Is(err, ErrRecoveryFailed) {
		t.Fatalf("recovery at infinity: %v, want ErrRecoveryFailed", err)
	}
	if _, err := bigRecover(digest, &bigSignature{R: rx, S: s, V: sig.V}); !errors.Is(err, ErrRecoveryFailed) {
		t.Fatalf("oracle recovery at infinity: %v", err)
	}

	// Verification: (z/s)·G + (r/s)·Q vanishes for Q = k·G and z = -r·k,
	// whatever s is.
	key, err := PrivateKeyFromBytes(be32(k)[:])
	if err != nil {
		t.Fatal(err)
	}
	r := big.NewInt(0xFACADE)
	z = new(big.Int).Mul(r, k)
	digest = types.Hash(*be32(z.Mod(z.Neg(z), bigN)))
	if Verify(&key.PublicKey, digest, &Signature{R: *be32(r), S: *be32(s)}) {
		t.Fatal("signature summing to infinity verified")
	}
	if bigVerify(&bigPublicKey{X: rx, Y: ry}, digest, &bigSignature{R: r, S: s}) {
		t.Fatal("oracle verified a signature summing to infinity")
	}
}

func BenchmarkBuildBaseTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildBaseTable()
	}
}

func BenchmarkFieldMul(b *testing.B) {
	x, y := generator.x, generator.y
	for i := 0; i < b.N; i++ {
		x.mul(&x, &y)
	}
	if x.isZero() {
		b.Fatal("product of non-zero elements is zero")
	}
}

func BenchmarkScalarInv(b *testing.B) {
	x := scalar(generator.x)
	for i := 0; i < b.N; i++ {
		x.inv(&x)
	}
	if x.isZero() {
		b.Fatal("inverse of a non-zero scalar is zero")
	}
}
