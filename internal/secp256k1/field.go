package secp256k1

import (
	"encoding/binary"
	"math/bits"
)

// fieldVal is an element of GF(P), P = 2^256 - 2^32 - 977, as four
// little-endian 64-bit limbs. Every operation returns a fully reduced
// value (< P), so equality is limb equality and no magnitude tracking
// is needed.
type fieldVal [4]uint64

const (
	// fieldC = 2^256 - P. A 512-bit product hi·2^256 + lo reduces to
	// lo + hi·fieldC because 2^256 ≡ fieldC (mod P).
	fieldC = 0x1000003D1
	// fieldP0 is P's low limb; the other three are all ones.
	fieldP0 = ^uint64(0) - fieldC + 1
)

var (
	fieldOne   = fieldVal{1}
	fieldSeven = fieldVal{7} // the curve constant in y^2 = x^3 + 7
)

// mac returns hi·2^64 + lo = z + x·y + carry, which cannot overflow.
func mac(z, x, y, carry uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(x, y)
	var c uint64
	lo, c = bits.Add64(lo, carry, 0)
	hi += c
	lo, c = bits.Add64(lo, z, 0)
	hi += c
	return hi, lo
}

// mul512 returns the full 512-bit product x·y.
func mul512(x, y *[4]uint64) (t [8]uint64) {
	var c uint64
	c, t[0] = bits.Mul64(x[0], y[0])
	c, t[1] = mac(0, x[1], y[0], c)
	c, t[2] = mac(0, x[2], y[0], c)
	t[4], t[3] = mac(0, x[3], y[0], c)

	c, t[1] = mac(t[1], x[0], y[1], 0)
	c, t[2] = mac(t[2], x[1], y[1], c)
	c, t[3] = mac(t[3], x[2], y[1], c)
	t[5], t[4] = mac(t[4], x[3], y[1], c)

	c, t[2] = mac(t[2], x[0], y[2], 0)
	c, t[3] = mac(t[3], x[1], y[2], c)
	c, t[4] = mac(t[4], x[2], y[2], c)
	t[6], t[5] = mac(t[5], x[3], y[2], c)

	c, t[3] = mac(t[3], x[0], y[3], 0)
	c, t[4] = mac(t[4], x[1], y[3], c)
	c, t[5] = mac(t[5], x[2], y[3], c)
	t[7], t[6] = mac(t[6], x[3], y[3], c)
	return t
}

// reduce512 sets z = t mod P by folding the high half down twice.
func (z *fieldVal) reduce512(t *[8]uint64) {
	// First fold: t[4..7]·fieldC is five limbs, the top one < 2^33.
	var c, h0, h1, h2, h3, h4 uint64
	c, h0 = bits.Mul64(t[4], fieldC)
	c, h1 = mac(0, t[5], fieldC, c)
	c, h2 = mac(0, t[6], fieldC, c)
	h4, h3 = mac(0, t[7], fieldC, c)
	r0, c := bits.Add64(t[0], h0, 0)
	r1, c := bits.Add64(t[1], h1, c)
	r2, c := bits.Add64(t[2], h2, c)
	r3, c := bits.Add64(t[3], h3, c)
	h4 += c
	// Second fold: h4·fieldC < 2^67.
	h1, h0 = bits.Mul64(h4, fieldC)
	r0, c = bits.Add64(r0, h0, 0)
	r1, c = bits.Add64(r1, h1, c)
	r2, c = bits.Add64(r2, 0, c)
	r3, c = bits.Add64(r3, 0, c)
	// A carry out means the true value is 2^256 + r with r < 2^67, so
	// adding fieldC once more cannot carry again.
	r0, c = bits.Add64(r0, c*fieldC, 0)
	r1, c = bits.Add64(r1, 0, c)
	r2, c = bits.Add64(r2, 0, c)
	r3, _ = bits.Add64(r3, 0, c)
	*z = fieldVal{r0, r1, r2, r3}
	z.condSubP()
}

// condSubP subtracts P once when z >= P.
func (z *fieldVal) condSubP() {
	if z[3] == ^uint64(0) && z[2] == ^uint64(0) && z[1] == ^uint64(0) && z[0] >= fieldP0 {
		*z = fieldVal{z[0] - fieldP0}
	}
}

func (z *fieldVal) mul(x, y *fieldVal) {
	t := mul512((*[4]uint64)(x), (*[4]uint64)(y))
	z.reduce512(&t)
}

func (z *fieldVal) sqr(x *fieldVal) { z.mul(x, x) }

// sqrN sets z = x^(2^n).
func (z *fieldVal) sqrN(x *fieldVal, n int) {
	*z = *x
	for ; n > 0; n-- {
		z.sqr(z)
	}
}

func (z *fieldVal) add(x, y *fieldVal) {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	if c != 0 {
		// x + y - 2^256 < P, so adding fieldC (= subtracting P mod
		// 2^256) lands in range without a second carry.
		z[0], c = bits.Add64(z[0], fieldC, 0)
		z[1], c = bits.Add64(z[1], 0, c)
		z[2], c = bits.Add64(z[2], 0, c)
		z[3] += c
		return
	}
	z.condSubP()
}

func (z *fieldVal) sub(x, y *fieldVal) {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		z[0], b = bits.Sub64(z[0], fieldC, 0)
		z[1], b = bits.Sub64(z[1], 0, b)
		z[2], b = bits.Sub64(z[2], 0, b)
		z[3] -= b
	}
}

func (z *fieldVal) neg(x *fieldVal) {
	var zero fieldVal
	z.sub(&zero, x)
}

func (z *fieldVal) double(x *fieldVal) { z.add(x, x) }

func (z *fieldVal) isZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

func (z *fieldVal) isOdd() bool { return z[0]&1 == 1 }

// setBytes sets z to the big-endian value of b reduced mod P and reports
// whether b was already in range (< P).
func (z *fieldVal) setBytes(b *[32]byte) (inRange bool) {
	*z = limbsOf(b)
	before := z[0]
	z.condSubP()
	return z[0] == before
}

func (z *fieldVal) bytes() [32]byte { return bytesOf((*[4]uint64)(z)) }

// limbsOf reads a big-endian 256-bit word into little-endian limbs.
func limbsOf(b *[32]byte) [4]uint64 {
	return [4]uint64{
		binary.BigEndian.Uint64(b[24:32]),
		binary.BigEndian.Uint64(b[16:24]),
		binary.BigEndian.Uint64(b[8:16]),
		binary.BigEndian.Uint64(b[0:8]),
	}
}

// bytesOf is the inverse of limbsOf.
func bytesOf(l *[4]uint64) (b [32]byte) {
	binary.BigEndian.PutUint64(b[0:8], l[3])
	binary.BigEndian.PutUint64(b[8:16], l[2])
	binary.BigEndian.PutUint64(b[16:24], l[1])
	binary.BigEndian.PutUint64(b[24:32], l[0])
	return b
}

// pow223 returns x^(2^223-1) and the x^(2^22-1), x^(2^2-1) it passes
// through: P's top 223 bits are ones, so inversion and square root
// share this prefix of their addition chains.
func pow223(x *fieldVal) (x223, x22, x2 fieldVal) {
	var x3, x6, x9, x11, x44, x88, x176, x220 fieldVal
	x2.sqr(x)
	x2.mul(&x2, x)
	x3.sqr(&x2)
	x3.mul(&x3, x)
	x6.sqrN(&x3, 3)
	x6.mul(&x6, &x3)
	x9.sqrN(&x6, 3)
	x9.mul(&x9, &x3)
	x11.sqrN(&x9, 2)
	x11.mul(&x11, &x2)
	x22.sqrN(&x11, 11)
	x22.mul(&x22, &x11)
	x44.sqrN(&x22, 22)
	x44.mul(&x44, &x22)
	x88.sqrN(&x44, 44)
	x88.mul(&x88, &x44)
	x176.sqrN(&x88, 88)
	x176.mul(&x176, &x88)
	x220.sqrN(&x176, 44)
	x220.mul(&x220, &x44)
	x223.sqrN(&x220, 3)
	x223.mul(&x223, &x3)
	return x223, x22, x2
}

// inv sets z = x^(P-2), the inverse of x (0 for x = 0). The exponent's
// low 33 bits are 0, 22 ones, then 0000101101.
func (z *fieldVal) inv(x *fieldVal) {
	t, x22, x2 := pow223(x)
	t.sqrN(&t, 23)
	t.mul(&t, &x22)
	t.sqrN(&t, 5)
	t.mul(&t, x)
	t.sqrN(&t, 3)
	t.mul(&t, &x2)
	t.sqrN(&t, 2)
	z.mul(&t, x)
}

// sqrt sets z to a square root of x and reports whether x has one.
// P ≡ 3 (mod 4), so the candidate is x^((P+1)/4); the exponent's low 31
// bits are 0, 22 ones, then 00001100.
func (z *fieldVal) sqrt(x *fieldVal) bool {
	t, x22, x2 := pow223(x)
	t.sqrN(&t, 23)
	t.mul(&t, &x22)
	t.sqrN(&t, 6)
	t.mul(&t, &x2)
	t.sqrN(&t, 2)
	var check fieldVal
	check.sqr(&t)
	ok := check == *x // before the store: z may alias x
	*z = t
	return ok
}
