package secp256k1

import "math/bits"

// scalar is an integer mod the group order N as four little-endian
// 64-bit limbs, always fully reduced (< N).
type scalar [4]uint64

// N = 2^256 - scalarC, and scalarC < 2^129: a wide value hi·2^256 + lo
// reduces to lo + hi·scalarC, which shrinks by 127 bits per fold.
var (
	scalarN     = scalar{0xBFD25E8CD0364141, 0xBAAEDCE6AF48A03B, 0xFFFFFFFFFFFFFFFE, 0xFFFFFFFFFFFFFFFF}
	scalarC     = [3]uint64{0x402DA1732FC9BEBF, 0x4551231950B75FC4, 1}
	scalarHalfN = scalar{0xDFE92F46681B20A0, 0x5D576E7357A4501D, 0xFFFFFFFFFFFFFFFF, 0x7FFFFFFFFFFFFFFF}
)

// greater reports z > x as integers; it also serves unreduced values.
func (z *scalar) greater(x *scalar) bool {
	for i := 3; i >= 0; i-- {
		if z[i] != x[i] {
			return z[i] > x[i]
		}
	}
	return false
}

// subN subtracts N once, discarding the borrow.
func (z *scalar) subN() {
	var b uint64
	z[0], b = bits.Sub64(z[0], scalarN[0], 0)
	z[1], b = bits.Sub64(z[1], scalarN[1], b)
	z[2], b = bits.Sub64(z[2], scalarN[2], b)
	z[3], _ = bits.Sub64(z[3], scalarN[3], b)
}

// addN adds N once and returns the carry out of 256 bits.
func (z *scalar) addN() (carry uint64) {
	z[0], carry = bits.Add64(z[0], scalarN[0], 0)
	z[1], carry = bits.Add64(z[1], scalarN[1], carry)
	z[2], carry = bits.Add64(z[2], scalarN[2], carry)
	z[3], carry = bits.Add64(z[3], scalarN[3], carry)
	return carry
}

// reduce512 sets z = t mod N, destroying t.
func (z *scalar) reduce512(t *[8]uint64) {
	for t[4]|t[5]|t[6]|t[7] != 0 {
		hi := [4]uint64{t[4], t[5], t[6], t[7]}
		t[4], t[5], t[6], t[7] = 0, 0, 0, 0
		for i, h := range hi {
			if h == 0 {
				continue
			}
			var c uint64
			c, t[i] = mac(t[i], h, scalarC[0], 0)
			c, t[i+1] = mac(t[i+1], h, scalarC[1], c)
			c, t[i+2] = mac(t[i+2], h, scalarC[2], c)
			for j := i + 3; c != 0; j++ {
				t[j], c = bits.Add64(t[j], c, 0)
			}
		}
	}
	*z = scalar{t[0], t[1], t[2], t[3]}
	if !scalarN.greater(z) {
		z.subN()
	}
}

func (z *scalar) mul(x, y *scalar) {
	t := mul512((*[4]uint64)(x), (*[4]uint64)(y))
	z.reduce512(&t)
}

func (z *scalar) add(x, y *scalar) {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	// x + y < 2N, so one subtraction reduces it whether or not the
	// sum carried out of 256 bits.
	if c != 0 || !scalarN.greater(z) {
		z.subN()
	}
}

// sub sets z = x - y mod N.
func (z *scalar) sub(x, y *scalar) {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		z.addN()
	}
}

func (z *scalar) neg(x *scalar) {
	var zero scalar
	z.sub(&zero, x)
}

// shr1 shifts z right one bit, shifting top (0 or 1) in as bit 255.
func (z *scalar) shr1(top uint64) {
	z[0] = z[0]>>1 | z[1]<<63
	z[1] = z[1]>>1 | z[2]<<63
	z[2] = z[2]>>1 | z[3]<<63
	z[3] = z[3]>>1 | top<<63
}

// half sets z = z/2 mod N: an odd z first becomes the even integer z + N.
func (z *scalar) half() {
	var c uint64
	if z[0]&1 == 1 {
		c = z.addN()
	}
	z.shr1(c)
}

// inv sets z to the inverse of x mod N (0 for x = 0) by the binary
// extended Euclid, which costs a few hundred limb shifts and
// subtractions where x^(N-2) costs 300 modular multiplications.
// Throughout, u ≡ a·x and v ≡ b·x (mod N) as integers with v odd; each
// round strips u's factors of two, orders the pair and subtracts, so u
// reaches 0 with v = gcd(x, N) = 1 and b the inverse.
func (z *scalar) inv(x *scalar) {
	u, v := *x, scalarN
	a, b := scalar{1}, scalar{}
	for !u.isZero() {
		for u[0]&1 == 0 {
			u.shr1(0)
			a.half()
		}
		if v.greater(&u) {
			u, v, a, b = v, u, b, a
		}
		u.sub(&u, &v) // u >= v: an integer subtraction
		a.sub(&a, &b)
	}
	*z = b
}

func (z *scalar) isZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

// isHigh reports z > N/2, the half Ethereum's low-S rule excludes.
func (z *scalar) isHigh() bool { return z.greater(&scalarHalfN) }

// setBytes sets z to the big-endian value of b reduced mod N and reports
// whether b was already in range (< N).
func (z *scalar) setBytes(b *[32]byte) (inRange bool) {
	*z = limbsOf(b)
	if !scalarN.greater(z) {
		z.subN() // b < 2^256 < 2N
		return false
	}
	return true
}

func (z *scalar) bytes() [32]byte { return bytesOf((*[4]uint64)(z)) }

// wnafWidth is the window of the signed-digit recoding doubleMult uses:
// digits are odd and |d| < 2^(wnafWidth-1) = 16, so the eight odd
// multiples 1P..15P serve both operands — and for G they are the odd
// entries of row 0 of the base table.
const wnafWidth = 5

// wnaf writes the width-wnafWidth non-adjacent form of z, least
// significant digit first, and returns how many digits it used.
func (z *scalar) wnaf(digits *[257]int8) int {
	k := *z
	n := 0
	for i := 0; !k.isZero(); i++ {
		if k[0]&1 == 1 {
			d := int8(k[0] & (1<<wnafWidth - 1))
			if d >= 1<<(wnafWidth-1) {
				// Borrow from the next window: k - d = k + |d| < N + 16
				// cannot wrap.
				d -= 1 << wnafWidth
				var c uint64
				k[0], c = bits.Add64(k[0], uint64(-d), 0)
				k[1], c = bits.Add64(k[1], 0, c)
				k[2], c = bits.Add64(k[2], 0, c)
				k[3] += c
			} else {
				k[0] -= uint64(d)
			}
			digits[i] = d
			n = i + 1
		} else {
			digits[i] = 0
		}
		k.shr1(0)
	}
	return n
}
