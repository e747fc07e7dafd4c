// Package uint256 implements fixed-width 256-bit unsigned integer
// arithmetic as required by the Ethereum Virtual Machine word model.
//
// The representation is four 64-bit limbs in little-endian limb order:
// limb 0 holds the least-significant 64 bits. All arithmetic wraps
// modulo 2^256, matching EVM semantics. Methods follow the math/big
// convention: the receiver z is set to the result and returned, so
// operations chain and allocations stay under caller control.
package uint256

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// Int is a 256-bit unsigned integer. The zero value is ready to use and
// represents the number 0.
type Int [4]uint64

// NewInt returns a new Int set to the 64-bit value v.
func NewInt(v uint64) *Int {
	return &Int{v, 0, 0, 0}
}

// Clone returns a copy of z.
func (z *Int) Clone() *Int {
	c := *z
	return &c
}

// Set sets z to x and returns z.
func (z *Int) Set(x *Int) *Int {
	*z = *x
	return z
}

// SetUint64 sets z to the 64-bit value v and returns z.
func (z *Int) SetUint64(v uint64) *Int {
	z[0], z[1], z[2], z[3] = v, 0, 0, 0
	return z
}

// Clear sets z to zero and returns z.
func (z *Int) Clear() *Int {
	z[0], z[1], z[2], z[3] = 0, 0, 0, 0
	return z
}

// SetOne sets z to one and returns z.
func (z *Int) SetOne() *Int {
	z[0], z[1], z[2], z[3] = 1, 0, 0, 0
	return z
}

// SetAllOnes sets z to 2^256-1 and returns z.
func (z *Int) SetAllOnes() *Int {
	z[0], z[1], z[2], z[3] = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	return z
}

// IsZero reports whether z is zero.
func (z *Int) IsZero() bool {
	return z[0]|z[1]|z[2]|z[3] == 0
}

// IsUint64 reports whether z fits in 64 bits.
func (z *Int) IsUint64() bool {
	return z[1]|z[2]|z[3] == 0
}

// Uint64 returns the low 64 bits of z.
func (z *Int) Uint64() uint64 { return z[0] }

// Uint64Capped returns z as a uint64, or max if z does not fit or exceeds
// max. It is the standard guard for using EVM words as sizes or offsets.
func (z *Int) Uint64Capped(max uint64) uint64 {
	if !z.IsUint64() || z[0] > max {
		return max
	}
	return z[0]
}

// Eq reports whether z equals x.
func (z *Int) Eq(x *Int) bool {
	return z[0] == x[0] && z[1] == x[1] && z[2] == x[2] && z[3] == x[3]
}

// Cmp compares z and x and returns -1, 0 or +1.
func (z *Int) Cmp(x *Int) int {
	for i := 3; i >= 0; i-- {
		if z[i] < x[i] {
			return -1
		}
		if z[i] > x[i] {
			return 1
		}
	}
	return 0
}

// Lt reports whether z < x (unsigned).
func (z *Int) Lt(x *Int) bool { return z.Cmp(x) < 0 }

// Gt reports whether z > x (unsigned).
func (z *Int) Gt(x *Int) bool { return z.Cmp(x) > 0 }

// Sign returns 0 if z is zero, -1 if the 255th bit is set (two's
// complement negative), and +1 otherwise.
func (z *Int) Sign() int {
	if z.IsZero() {
		return 0
	}
	if z[3]&signBit != 0 {
		return -1
	}
	return 1
}

const signBit = uint64(1) << 63

// Slt reports whether z < x under two's-complement signed interpretation.
func (z *Int) Slt(x *Int) bool {
	zNeg := z[3]&signBit != 0
	xNeg := x[3]&signBit != 0
	switch {
	case zNeg && !xNeg:
		return true
	case !zNeg && xNeg:
		return false
	default:
		return z.Cmp(x) < 0
	}
}

// Sgt reports whether z > x under two's-complement signed interpretation.
func (z *Int) Sgt(x *Int) bool {
	zNeg := z[3]&signBit != 0
	xNeg := x[3]&signBit != 0
	switch {
	case zNeg && !xNeg:
		return false
	case !zNeg && xNeg:
		return true
	default:
		return z.Cmp(x) > 0
	}
}

// Add sets z = x + y (mod 2^256) and returns z.
func (z *Int) Add(x, y *Int) *Int {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], _ = bits.Add64(x[3], y[3], c)
	return z
}

// Sub sets z = x - y (mod 2^256) and returns z.
func (z *Int) Sub(x, y *Int) *Int {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], _ = bits.Sub64(x[3], y[3], b)
	return z
}

// Neg sets z = -x (mod 2^256), i.e. the two's complement, and returns z.
func (z *Int) Neg(x *Int) *Int {
	return z.Sub(&Int{}, x)
}

// Mul sets z = x * y (mod 2^256) and returns z.
func (z *Int) Mul(x, y *Int) *Int {
	p := mulFull(x, y)
	z[0], z[1], z[2], z[3] = p[0], p[1], p[2], p[3]
	return z
}

// mulFull computes the full 512-bit product of x and y into an 8-limb
// little-endian result.
func mulFull(x, y *Int) [8]uint64 {
	var p [8]uint64
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(x[i], y[j])
			var c uint64
			p[i+j], c = bits.Add64(p[i+j], lo, 0)
			hi += c
			p[i+j], c = bits.Add64(p[i+j], carry, 0)
			hi += c
			carry = hi
		}
		p[i+4] = carry
	}
	return p
}

// significantLimbs returns the number of non-zero leading limbs in u.
func significantLimbs(u []uint64) int {
	n := len(u)
	for n > 0 && u[n-1] == 0 {
		n--
	}
	return n
}

// udivrem computes quotient and remainder of u / d for little-endian limb
// slices. d must be non-zero. The result slices are freshly allocated and
// trimmed of leading zero limbs. This is Knuth's Algorithm D specialised
// for 64-bit limbs.
func udivrem(u, d []uint64) (quot, rem []uint64) {
	un := significantLimbs(u)
	dn := significantLimbs(d)
	if dn == 0 {
		panic("uint256: division by zero")
	}
	if un == 0 {
		return nil, nil
	}
	if un < dn {
		rem = make([]uint64, un)
		copy(rem, u[:un])
		return nil, rem
	}

	if dn == 1 {
		// Short division by a single limb.
		quot = make([]uint64, un)
		var r uint64
		for i := un - 1; i >= 0; i-- {
			quot[i], r = bits.Div64(r, u[i], d[0])
		}
		if r != 0 {
			rem = []uint64{r}
		}
		return quot, rem
	}

	// Normalize so the divisor's top bit is set.
	shift := uint(bits.LeadingZeros64(d[dn-1]))
	dnorm := make([]uint64, dn)
	for i := dn - 1; i > 0; i-- {
		dnorm[i] = d[i]<<shift | (d[i-1] >> (64 - shift))
	}
	dnorm[0] = d[0] << shift
	// In Go a shift count >= 64 yields 0, so shift==0 is handled by the
	// general expressions above without a special case.

	unorm := make([]uint64, un+1)
	unorm[un] = u[un-1] >> (64 - shift)
	for i := un - 1; i > 0; i-- {
		unorm[i] = u[i]<<shift | (u[i-1] >> (64 - shift))
	}
	unorm[0] = u[0] << shift
	if shift == 0 {
		// x >> 64 is 0 in Go, so the loop above produced plain copies of
		// the high parts but zeroed contributions; rebuild exactly.
		copy(unorm, u[:un])
		unorm[un] = 0
	}

	q := make([]uint64, un-dn+1)
	for j := un - dn; j >= 0; j-- {
		var qhat, rhat uint64
		if unorm[j+dn] >= dnorm[dn-1] {
			qhat = ^uint64(0)
		} else {
			qhat, rhat = bits.Div64(unorm[j+dn], unorm[j+dn-1], dnorm[dn-1])
			for {
				hi, lo := bits.Mul64(qhat, dnorm[dn-2])
				if hi > rhat || (hi == rhat && lo > unorm[j+dn-2]) {
					qhat--
					var c uint64
					rhat, c = bits.Add64(rhat, dnorm[dn-1], 0)
					if c != 0 {
						break
					}
					continue
				}
				break
			}
		}

		// Multiply and subtract: unorm[j..j+dn] -= qhat * dnorm.
		var borrow, mulCarry uint64
		for i := 0; i < dn; i++ {
			hi, lo := bits.Mul64(qhat, dnorm[i])
			var c uint64
			lo, c = bits.Add64(lo, mulCarry, 0)
			hi += c
			unorm[j+i], c = bits.Sub64(unorm[j+i], lo, borrow)
			borrow = c
			mulCarry = hi
		}
		var c uint64
		unorm[j+dn], c = bits.Sub64(unorm[j+dn], mulCarry, borrow)

		if c != 0 {
			// qhat was one too large: add divisor back.
			qhat--
			var carry uint64
			for i := 0; i < dn; i++ {
				unorm[j+i], carry = bits.Add64(unorm[j+i], dnorm[i], carry)
			}
			unorm[j+dn] += carry
		}
		q[j] = qhat
	}

	// Denormalize remainder.
	r := make([]uint64, dn)
	if shift == 0 {
		copy(r, unorm[:dn])
	} else {
		for i := 0; i < dn-1; i++ {
			r[i] = unorm[i]>>shift | unorm[i+1]<<(64-shift)
		}
		r[dn-1] = unorm[dn-1] >> shift
	}
	return q, r
}

func setFromLimbs(z *Int, limbs []uint64) *Int {
	z.Clear()
	for i := 0; i < len(limbs) && i < 4; i++ {
		z[i] = limbs[i]
	}
	return z
}

// Div sets z = x / y with EVM semantics: division by zero yields zero.
func (z *Int) Div(x, y *Int) *Int {
	if y.IsZero() {
		return z.Clear()
	}
	if x.Lt(y) {
		return z.Clear()
	}
	q, _ := udivrem(x[:], y[:])
	return setFromLimbs(z, q)
}

// Mod sets z = x % y with EVM semantics: modulo zero yields zero.
func (z *Int) Mod(x, y *Int) *Int {
	if y.IsZero() {
		return z.Clear()
	}
	if x.Lt(y) {
		return z.Set(x)
	}
	_, r := udivrem(x[:], y[:])
	return setFromLimbs(z, r)
}

// DivMod sets z = x / y and m = x % y in a single pass and returns (z, m).
func (z *Int) DivMod(x, y, m *Int) (*Int, *Int) {
	if y.IsZero() {
		m.Clear()
		return z.Clear(), m
	}
	q, r := udivrem(x[:], y[:])
	setFromLimbs(m, r)
	return setFromLimbs(z, q), m
}

// SDiv sets z = x / y under two's-complement signed interpretation with
// EVM semantics (truncated toward zero, x/0 = 0).
func (z *Int) SDiv(x, y *Int) *Int {
	if y.IsZero() {
		return z.Clear()
	}
	xNeg := x.Sign() < 0
	yNeg := y.Sign() < 0
	var xa, ya Int
	if xNeg {
		xa.Neg(x)
	} else {
		xa.Set(x)
	}
	if yNeg {
		ya.Neg(y)
	} else {
		ya.Set(y)
	}
	z.Div(&xa, &ya)
	if xNeg != yNeg {
		z.Neg(z)
	}
	return z
}

// SMod sets z = x % y under two's-complement signed interpretation; the
// result takes the sign of the dividend, matching EVM SMOD.
func (z *Int) SMod(x, y *Int) *Int {
	if y.IsZero() {
		return z.Clear()
	}
	xNeg := x.Sign() < 0
	var xa, ya Int
	if xNeg {
		xa.Neg(x)
	} else {
		xa.Set(x)
	}
	if y.Sign() < 0 {
		ya.Neg(y)
	} else {
		ya.Set(y)
	}
	z.Mod(&xa, &ya)
	if xNeg && !z.IsZero() {
		z.Neg(z)
	}
	return z
}

// AddMod sets z = (x + y) % m with EVM semantics (m == 0 yields 0). The
// intermediate sum is computed at 257-bit precision.
func (z *Int) AddMod(x, y, m *Int) *Int {
	if m.IsZero() {
		return z.Clear()
	}
	var sum [5]uint64
	var c uint64
	sum[0], c = bits.Add64(x[0], y[0], 0)
	sum[1], c = bits.Add64(x[1], y[1], c)
	sum[2], c = bits.Add64(x[2], y[2], c)
	sum[3], c = bits.Add64(x[3], y[3], c)
	sum[4] = c
	_, r := udivrem(sum[:], m[:])
	return setFromLimbs(z, r)
}

// MulMod sets z = (x * y) % m with EVM semantics (m == 0 yields 0). The
// intermediate product is computed at full 512-bit precision.
func (z *Int) MulMod(x, y, m *Int) *Int {
	if m.IsZero() {
		return z.Clear()
	}
	p := mulFull(x, y)
	_, r := udivrem(p[:], m[:])
	return setFromLimbs(z, r)
}

// Exp sets z = base^exponent (mod 2^256) by square-and-multiply.
func (z *Int) Exp(base, exponent *Int) *Int {
	res := NewInt(1)
	b := base.Clone()
	for limb := 0; limb < 4; limb++ {
		e := exponent[limb]
		// Skip trailing all-zero limbs quickly once the remaining
		// exponent is exhausted.
		if e == 0 && exponent[1]|exponent[2]|exponent[3] == 0 && limb > 0 {
			break
		}
		for bit := 0; bit < 64; bit++ {
			if e&1 != 0 {
				res.Mul(res, b)
			}
			e >>= 1
			b.Mul(b, b)
		}
	}
	return z.Set(res)
}

// SignExtend implements the EVM SIGNEXTEND operation: it extends the sign
// of the value x considered as a (back+1)-byte signed integer. If back is
// 31 or more, x is returned unchanged.
func (z *Int) SignExtend(back, x *Int) *Int {
	if !back.IsUint64() || back[0] >= 31 {
		return z.Set(x)
	}
	bit := uint(back[0]*8 + 7)
	limb := bit / 64
	pos := bit % 64
	z.Set(x)
	if z[limb]&(uint64(1)<<pos) != 0 {
		// Negative: fill everything above with ones.
		z[limb] |= ^uint64(0) << pos
		for i := limb + 1; i < 4; i++ {
			z[i] = ^uint64(0)
		}
	} else {
		z[limb] &= ^(^uint64(0) << pos << 1)
		// The double shift avoids an out-of-range shift when pos is 63.
		for i := limb + 1; i < 4; i++ {
			z[i] = 0
		}
	}
	return z
}

// And sets z = x & y and returns z.
func (z *Int) And(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]&y[0], x[1]&y[1], x[2]&y[2], x[3]&y[3]
	return z
}

// Or sets z = x | y and returns z.
func (z *Int) Or(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]|y[0], x[1]|y[1], x[2]|y[2], x[3]|y[3]
	return z
}

// Xor sets z = x ^ y and returns z.
func (z *Int) Xor(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]^y[0], x[1]^y[1], x[2]^y[2], x[3]^y[3]
	return z
}

// Not sets z = ^x and returns z.
func (z *Int) Not(x *Int) *Int {
	z[0], z[1], z[2], z[3] = ^x[0], ^x[1], ^x[2], ^x[3]
	return z
}

// Byte implements the EVM BYTE operation: it sets z to the n-th byte of x,
// where byte 0 is the most significant byte of the 32-byte big-endian
// representation. Indices of 32 or more yield zero.
func (z *Int) Byte(n, x *Int) *Int {
	if !n.IsUint64() || n[0] >= 32 {
		return z.Clear()
	}
	idx := n[0]
	limb := 3 - idx/8
	shift := (7 - idx%8) * 8
	b := (x[limb] >> shift) & 0xff
	return z.SetUint64(b)
}

// Lsh sets z = x << n and returns z. Shifts of 256 or more yield zero.
func (z *Int) Lsh(x *Int, n uint) *Int {
	if n >= 256 {
		return z.Clear()
	}
	limbShift := n / 64
	bitShift := n % 64
	var t Int
	for i := 3; i >= 0; i-- {
		var v uint64
		src := i - int(limbShift)
		if src >= 0 {
			v = x[src] << bitShift
			if bitShift > 0 && src-1 >= 0 {
				v |= x[src-1] >> (64 - bitShift)
			}
		}
		t[i] = v
	}
	return z.Set(&t)
}

// Rsh sets z = x >> n (logical shift) and returns z. Shifts of 256 or more
// yield zero.
func (z *Int) Rsh(x *Int, n uint) *Int {
	if n >= 256 {
		return z.Clear()
	}
	limbShift := n / 64
	bitShift := n % 64
	var t Int
	for i := 0; i < 4; i++ {
		var v uint64
		src := i + int(limbShift)
		if src < 4 {
			v = x[src] >> bitShift
			if bitShift > 0 && src+1 < 4 {
				v |= x[src+1] << (64 - bitShift)
			}
		}
		t[i] = v
	}
	return z.Set(&t)
}

// SRsh sets z = x >> n with sign extension (arithmetic shift) and returns
// z. Shifts of 256 or more yield 0 for non-negative x and all ones for
// negative x, matching EVM SAR.
func (z *Int) SRsh(x *Int, n uint) *Int {
	neg := x[3]&signBit != 0
	if n >= 256 {
		if neg {
			return z.SetAllOnes()
		}
		return z.Clear()
	}
	z.Rsh(x, n)
	if neg && n > 0 {
		// Fill the vacated high bits with ones.
		var mask Int
		mask.SetAllOnes()
		mask.Lsh(&mask, 256-n)
		z.Or(z, &mask)
	}
	return z
}

// Shl sets z = value << shift following EVM SHL operand order, where
// shifts of 256 or more produce zero.
func (z *Int) Shl(shift, value *Int) *Int {
	if !shift.IsUint64() || shift[0] >= 256 {
		return z.Clear()
	}
	return z.Lsh(value, uint(shift[0]))
}

// Shr sets z = value >> shift following EVM SHR operand order.
func (z *Int) Shr(shift, value *Int) *Int {
	if !shift.IsUint64() || shift[0] >= 256 {
		return z.Clear()
	}
	return z.Rsh(value, uint(shift[0]))
}

// Sar sets z = value >> shift with sign extension, following EVM SAR
// operand order.
func (z *Int) Sar(shift, value *Int) *Int {
	if !shift.IsUint64() || shift[0] >= 256 {
		if value.Sign() < 0 {
			return z.SetAllOnes()
		}
		return z.Clear()
	}
	return z.SRsh(value, uint(shift[0]))
}

// BitLen returns the minimum number of bits required to represent z.
func (z *Int) BitLen() int {
	for i := 3; i >= 0; i-- {
		if z[i] != 0 {
			return i*64 + bits.Len64(z[i])
		}
	}
	return 0
}

// ByteLen returns the minimum number of bytes required to represent z.
func (z *Int) ByteLen() int {
	return (z.BitLen() + 7) / 8
}

// SetBytes interprets buf as a big-endian unsigned integer and sets z to
// that value. Only the last 32 bytes are considered if buf is longer.
func (z *Int) SetBytes(buf []byte) *Int {
	z.Clear()
	if len(buf) > 32 {
		buf = buf[len(buf)-32:]
	}
	for i := 0; i < len(buf); i++ {
		byteIdx := len(buf) - 1 - i // distance from LSB
		limb := byteIdx / 8
		shift := uint(byteIdx%8) * 8
		z[limb] |= uint64(buf[i]) << shift
	}
	return z
}

// Bytes32 returns z as a 32-byte big-endian array.
func (z *Int) Bytes32() [32]byte {
	var out [32]byte
	binary.BigEndian.PutUint64(out[0:8], z[3])
	binary.BigEndian.PutUint64(out[8:16], z[2])
	binary.BigEndian.PutUint64(out[16:24], z[1])
	binary.BigEndian.PutUint64(out[24:32], z[0])
	return out
}

// PutBytes32 writes z into buf as 32 big-endian bytes. buf must be at
// least 32 bytes long.
func (z *Int) PutBytes32(buf []byte) {
	binary.BigEndian.PutUint64(buf[0:8], z[3])
	binary.BigEndian.PutUint64(buf[8:16], z[2])
	binary.BigEndian.PutUint64(buf[16:24], z[1])
	binary.BigEndian.PutUint64(buf[24:32], z[0])
}

// ToBig returns z as a new math/big.Int.
func (z *Int) ToBig() *big.Int {
	b := new(big.Int)
	words := z.Bytes32()
	return b.SetBytes(words[:])
}

// SetFromBig sets z to the low 256 bits of b (which must be non-negative)
// and reports whether b overflowed 256 bits.
func (z *Int) SetFromBig(b *big.Int) bool {
	z.Clear()
	buf := b.Bytes()
	overflow := len(buf) > 32
	z.SetBytes(buf)
	return overflow
}

// Dec returns the base-10 representation of z.
func (z *Int) Dec() string {
	if z.IsZero() {
		return "0"
	}
	// Repeatedly divide by 10^19, the largest power of ten in a uint64.
	const chunkBase = 10_000_000_000_000_000_000
	divisor := NewInt(chunkBase)
	rem := z.Clone()
	var chunks []uint64
	for !rem.IsZero() {
		var q, r Int
		q.DivMod(rem, divisor, &r)
		chunks = append(chunks, r[0])
		rem = &q
	}
	out := fmt.Sprintf("%d", chunks[len(chunks)-1])
	for i := len(chunks) - 2; i >= 0; i-- {
		out += fmt.Sprintf("%019d", chunks[i])
	}
	return out
}

// String implements fmt.Stringer, returning the decimal representation.
func (z *Int) String() string { return z.Dec() }
