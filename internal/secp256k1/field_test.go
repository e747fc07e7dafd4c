package secp256k1

import (
	"math/big"
	"testing"
)

func (z *fieldVal) big() *big.Int { b := z.bytes(); return new(big.Int).SetBytes(b[:]) }
func (z *scalar) big() *big.Int   { b := z.bytes(); return new(big.Int).SetBytes(b[:]) }

func be32(v *big.Int) *[32]byte {
	var b [32]byte
	v.FillBytes(b[:])
	return &b
}

func scalarFromBig(v *big.Int) (s scalar) {
	s.setBytes(be32(new(big.Int).Mod(v, bigN)))
	return s
}

// fuzzWords pads or truncates data to n 32-byte big-endian words.
func fuzzWords(data []byte, n int) [][32]byte {
	words := make([][32]byte, n)
	for i := range words {
		if len(data) > 32*i {
			copy(words[i][:], data[32*i:])
		}
	}
	return words
}

// edgeWords seeds the arithmetic fuzzers with the values where limb
// code goes wrong: 0, 1, the moduli and their neighbours, all-ones, and
// single set limbs.
func edgeWords() []*big.Int {
	one := big.NewInt(1)
	max := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)
	out := []*big.Int{new(big.Int), one, max}
	for _, m := range []*big.Int{bigP, bigN} {
		out = append(out, m, new(big.Int).Sub(m, one), new(big.Int).Add(m, one), new(big.Int).Rsh(m, 1))
	}
	for _, shift := range []uint{63, 64, 127, 128, 191, 192, 255} {
		out = append(out, new(big.Int).Lsh(one, shift))
	}
	return out
}

func addEdgePairs(f *testing.F) {
	edges := edgeWords()
	for _, a := range edges {
		for _, b := range edges {
			f.Add(append(be32(a)[:], be32(b)[:]...))
		}
	}
}

func FuzzFieldVsBig(f *testing.F) {
	addEdgePairs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzWords(data, 2)
		var x, y, z fieldVal
		// normalise: setBytes reduces mod P and says whether it had to.
		bx, by := new(big.Int).SetBytes(w[0][:]), new(big.Int).SetBytes(w[1][:])
		if inRange := x.setBytes(&w[0]); inRange != (bx.Cmp(bigP) < 0) {
			t.Fatalf("setBytes(%x) inRange = %v", w[0], inRange)
		}
		y.setBytes(&w[1])
		bx.Mod(bx, bigP)
		by.Mod(by, bigP)
		if x.big().Cmp(bx) != 0 || y.big().Cmp(by) != 0 {
			t.Fatalf("setBytes(%x) = %x, want %x", w[0], x.bytes(), bx)
		}
		check := func(op string, want *big.Int) {
			t.Helper()
			want.Mod(want, bigP)
			if z.big().Cmp(want) != 0 {
				t.Fatalf("%s(%x, %x) = %x, want %x", op, bx, by, z.bytes(), want)
			}
		}
		z.add(&x, &y)
		check("add", new(big.Int).Add(bx, by))
		z.sub(&x, &y)
		check("sub", new(big.Int).Sub(bx, by))
		z.neg(&x)
		check("neg", new(big.Int).Neg(bx))
		z.double(&x)
		check("double", new(big.Int).Lsh(bx, 1))
		z.mul(&x, &y)
		check("mul", new(big.Int).Mul(bx, by))
		z.sqr(&x)
		check("sqr", new(big.Int).Mul(bx, bx))
		// Aliased operands.
		z = x
		z.mul(&z, &z)
		check("mul aliased", new(big.Int).Mul(bx, bx))
		z = x
		z.add(&z, &z)
		check("add aliased", new(big.Int).Lsh(bx, 1))
		z = x
		z.sub(&y, &z)
		check("sub aliased", new(big.Int).Sub(by, bx))

		z.inv(&x)
		if bx.Sign() == 0 {
			check("inv", new(big.Int))
		} else {
			check("inv", new(big.Int).ModInverse(bx, bigP))
		}
		ok := z.sqrt(&x)
		root := new(big.Int).ModSqrt(bx, bigP)
		if ok != (root != nil) {
			t.Fatalf("sqrt(%x) ok = %v, math/big says %v", bx, ok, root != nil)
		}
		if ok {
			// Either root is acceptable; its square is not negotiable.
			z.sqr(&z)
			check("sqrt^2", new(big.Int).Set(bx))
		}
	})
}

func FuzzScalarVsBig(f *testing.F) {
	addEdgePairs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzWords(data, 2)
		var x, y, z scalar
		bx, by := new(big.Int).SetBytes(w[0][:]), new(big.Int).SetBytes(w[1][:])
		// reduce
		if inRange := x.setBytes(&w[0]); inRange != (bx.Cmp(bigN) < 0) {
			t.Fatalf("setBytes(%x) inRange = %v", w[0], inRange)
		}
		y.setBytes(&w[1])
		bx.Mod(bx, bigN)
		by.Mod(by, bigN)
		if x.big().Cmp(bx) != 0 || y.big().Cmp(by) != 0 {
			t.Fatalf("setBytes(%x) = %x, want %x", w[0], x.bytes(), bx)
		}
		check := func(op string, want *big.Int) {
			t.Helper()
			want.Mod(want, bigN)
			if z.big().Cmp(want) != 0 {
				t.Fatalf("%s(%x, %x) = %x, want %x", op, bx, by, z.bytes(), want)
			}
		}
		z.mul(&x, &y)
		check("mul", new(big.Int).Mul(bx, by))
		z = x
		z.mul(&z, &z)
		check("mul aliased", new(big.Int).Mul(bx, bx))
		z.add(&x, &y)
		check("add", new(big.Int).Add(bx, by))
		z.neg(&x)
		check("negate", new(big.Int).Neg(bx))
		z.inv(&x)
		if bx.Sign() == 0 {
			check("inv", new(big.Int))
		} else {
			check("inv", new(big.Int).ModInverse(bx, bigN))
		}
		if got, want := x.isHigh(), bx.Cmp(bigHalfN) > 0; got != want {
			t.Fatalf("isHigh(%x) = %v", bx, got)
		}
		// The full 512-bit reduction, on an operand mul never produces:
		// both halves arbitrary.
		t512 := [8]uint64{}
		for i := 0; i < 4; i++ {
			t512[i], t512[4+i] = limbOf(&w[1], i), limbOf(&w[0], i)
		}
		wide := new(big.Int).Lsh(new(big.Int).SetBytes(w[0][:]), 256)
		wide.Add(wide, new(big.Int).SetBytes(w[1][:]))
		z.reduce512(&t512)
		check("reduce512", wide)

		// wNAF: odd digits below 2^(w-1) in magnitude, no two within w
		// of each other, summing back to the scalar.
		var digits [257]int8
		n := x.wnaf(&digits)
		sum := new(big.Int)
		last := -wnafWidth
		for i := 0; i < len(digits); i++ {
			d := int64(digits[i])
			if d == 0 {
				continue
			}
			if i >= n || d&1 == 0 || d >= 1<<(wnafWidth-1) || d <= -(1<<(wnafWidth-1)) || i-last < wnafWidth {
				t.Fatalf("wnaf(%x): bad digit %d at %d (n = %d, previous at %d)", bx, d, i, n, last)
			}
			last = i
			sum.Add(sum, new(big.Int).Lsh(big.NewInt(d), uint(i)))
		}
		if sum.Cmp(bx) != 0 {
			t.Fatalf("wnaf(%x) sums to %x", bx, sum)
		}
	})
}

// limbOf returns little-endian limb i of the unreduced big-endian word b.
func limbOf(b *[32]byte, i int) uint64 {
	var v uint64
	for _, c := range b[24-8*i : 32-8*i] {
		v = v<<8 | uint64(c)
	}
	return v
}
