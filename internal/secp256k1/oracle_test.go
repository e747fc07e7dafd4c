package secp256k1

// The math/big implementation this package shipped until the fixed-limb
// rewrite, kept verbatim (identifiers prefixed, key and signature types
// local) as the differential oracle: bit-at-a-time double-and-add over
// *big.Int with a Mod per field operation. The fuzzers and
// testdata/vectors.json hold the production code to it byte for byte.

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/big"

	"tinyevm/internal/types"
)

type bigPublicKey struct {
	X, Y *big.Int
}

type bigSignature struct {
	R, S *big.Int
	V    byte
}

// Curve parameters for secp256k1 (SEC 2, §2.4.1).
var (
	// P is the field prime 2^256 - 2^32 - 977.
	bigP = mustBig("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
	// N is the group order.
	bigN = mustBig("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
	// B is the curve constant in y^2 = x^3 + 7.
	bigB = big.NewInt(7)
	// Gx, Gy are the generator coordinates.
	bigGx = mustBig("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
	bigGy = mustBig("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")

	// bigHalfN = N/2, the low-s boundary.
	bigHalfN = new(big.Int).Rsh(bigN, 1)
)

func mustBig(hexStr string) *big.Int {
	v, ok := new(big.Int).SetString(hexStr, 16)
	if !ok {
		panic("secp256k1: bad constant " + hexStr)
	}
	return v
}

// bigJacobian is a point in Jacobian projective coordinates where the
// affine point is (X/Z^2, Y/Z^3). The point at infinity has Z == 0.
type bigJacobian struct {
	x, y, z *big.Int
}

func bigInfinity() *bigJacobian {
	return &bigJacobian{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
}

func bigFromAffine(x, y *big.Int) *bigJacobian {
	if x.Sign() == 0 && y.Sign() == 0 {
		return bigInfinity()
	}
	return &bigJacobian{
		x: new(big.Int).Set(x),
		y: new(big.Int).Set(y),
		z: big.NewInt(1),
	}
}

func (p *bigJacobian) isInfinity() bool { return p.z.Sign() == 0 }

// toAffine converts p back to affine coordinates. The zero point maps to
// (0, 0).
func (p *bigJacobian) toAffine() (x, y *big.Int) {
	if p.isInfinity() {
		return new(big.Int), new(big.Int)
	}
	zInv := new(big.Int).ModInverse(p.z, bigP)
	zInv2 := new(big.Int).Mul(zInv, zInv)
	zInv2.Mod(zInv2, bigP)
	x = new(big.Int).Mul(p.x, zInv2)
	x.Mod(x, bigP)
	zInv3 := zInv2.Mul(zInv2, zInv)
	zInv3.Mod(zInv3, bigP)
	y = new(big.Int).Mul(p.y, zInv3)
	y.Mod(y, bigP)
	return x, y
}

// double returns 2p using the standard Jacobian doubling formulas for a
// curve with a == 0.
func (p *bigJacobian) double() *bigJacobian {
	if p.isInfinity() || p.y.Sign() == 0 {
		return bigInfinity()
	}
	// A = X^2, Bv = Y^2, C = Bv^2
	a := new(big.Int).Mul(p.x, p.x)
	a.Mod(a, bigP)
	bv := new(big.Int).Mul(p.y, p.y)
	bv.Mod(bv, bigP)
	c := new(big.Int).Mul(bv, bv)
	c.Mod(c, bigP)
	// D = 2*((X+Bv)^2 - A - C)
	d := new(big.Int).Add(p.x, bv)
	d.Mul(d, d)
	d.Sub(d, a)
	d.Sub(d, c)
	d.Lsh(d, 1)
	d.Mod(d, bigP)
	// E = 3*A, F = E^2
	e := new(big.Int).Lsh(a, 1)
	e.Add(e, a)
	e.Mod(e, bigP)
	f := new(big.Int).Mul(e, e)
	f.Mod(f, bigP)
	// X3 = F - 2*D
	x3 := new(big.Int).Lsh(d, 1)
	x3.Sub(f, x3)
	x3.Mod(x3, bigP)
	// Y3 = E*(D - X3) - 8*C
	y3 := new(big.Int).Sub(d, x3)
	y3.Mul(y3, e)
	c.Lsh(c, 3)
	y3.Sub(y3, c)
	y3.Mod(y3, bigP)
	// Z3 = 2*Y*Z
	z3 := new(big.Int).Mul(p.y, p.z)
	z3.Lsh(z3, 1)
	z3.Mod(z3, bigP)
	return &bigJacobian{x: x3, y: y3, z: z3}
}

// add returns p + q using the standard Jacobian addition formulas.
func (p *bigJacobian) add(q *bigJacobian) *bigJacobian {
	if p.isInfinity() {
		return &bigJacobian{
			x: new(big.Int).Set(q.x),
			y: new(big.Int).Set(q.y),
			z: new(big.Int).Set(q.z),
		}
	}
	if q.isInfinity() {
		return &bigJacobian{
			x: new(big.Int).Set(p.x),
			y: new(big.Int).Set(p.y),
			z: new(big.Int).Set(p.z),
		}
	}
	// U1 = X1*Z2^2, U2 = X2*Z1^2
	z1z1 := new(big.Int).Mul(p.z, p.z)
	z1z1.Mod(z1z1, bigP)
	z2z2 := new(big.Int).Mul(q.z, q.z)
	z2z2.Mod(z2z2, bigP)
	u1 := new(big.Int).Mul(p.x, z2z2)
	u1.Mod(u1, bigP)
	u2 := new(big.Int).Mul(q.x, z1z1)
	u2.Mod(u2, bigP)
	// S1 = Y1*Z2^3, S2 = Y2*Z1^3
	s1 := new(big.Int).Mul(p.y, z2z2)
	s1.Mul(s1, q.z)
	s1.Mod(s1, bigP)
	s2 := new(big.Int).Mul(q.y, z1z1)
	s2.Mul(s2, p.z)
	s2.Mod(s2, bigP)

	if u1.Cmp(u2) == 0 {
		if s1.Cmp(s2) != 0 {
			return bigInfinity() // p == -q
		}
		return p.double() // p == q
	}

	// H = U2-U1, I = (2H)^2, J = H*I, Rv = 2*(S2-S1)
	h := new(big.Int).Sub(u2, u1)
	h.Mod(h, bigP)
	i := new(big.Int).Lsh(h, 1)
	i.Mul(i, i)
	i.Mod(i, bigP)
	j := new(big.Int).Mul(h, i)
	j.Mod(j, bigP)
	rv := new(big.Int).Sub(s2, s1)
	rv.Lsh(rv, 1)
	rv.Mod(rv, bigP)
	// V = U1*I
	v := new(big.Int).Mul(u1, i)
	v.Mod(v, bigP)
	// X3 = Rv^2 - J - 2*V
	x3 := new(big.Int).Mul(rv, rv)
	x3.Sub(x3, j)
	x3.Sub(x3, new(big.Int).Lsh(v, 1))
	x3.Mod(x3, bigP)
	// Y3 = Rv*(V - X3) - 2*S1*J
	y3 := new(big.Int).Sub(v, x3)
	y3.Mul(y3, rv)
	s1j := new(big.Int).Mul(s1, j)
	s1j.Lsh(s1j, 1)
	y3.Sub(y3, s1j)
	y3.Mod(y3, bigP)
	// Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H
	z3 := new(big.Int).Add(p.z, q.z)
	z3.Mul(z3, z3)
	z3.Sub(z3, z1z1)
	z3.Sub(z3, z2z2)
	z3.Mul(z3, h)
	z3.Mod(z3, bigP)
	return &bigJacobian{x: x3, y: y3, z: z3}
}

// bigScalarMult returns k*(x, y) in affine coordinates using a simple
// double-and-add ladder (not constant time; see package comment).
func bigScalarMult(x, y, k *big.Int) (rx, ry *big.Int) {
	k = new(big.Int).Mod(k, bigN)
	acc := bigInfinity()
	addend := bigFromAffine(x, y)
	for i := 0; i < k.BitLen(); i++ {
		if k.Bit(i) == 1 {
			acc = acc.add(addend)
		}
		addend = addend.double()
	}
	return acc.toAffine()
}

// bigScalarBaseMult returns k*G in affine coordinates.
func bigScalarBaseMult(k *big.Int) (x, y *big.Int) {
	return bigScalarMult(bigGx, bigGy, k)
}

// bigIsOnCurve reports whether (x, y) satisfies y^2 = x^3 + 7 (mod P) and is
// within field range. The point at infinity (0,0) is not on the curve.
func bigIsOnCurve(x, y *big.Int) bool {
	if x.Sign() < 0 || y.Sign() < 0 || x.Cmp(bigP) >= 0 || y.Cmp(bigP) >= 0 {
		return false
	}
	if x.Sign() == 0 && y.Sign() == 0 {
		return false
	}
	y2 := new(big.Int).Mul(y, y)
	y2.Mod(y2, bigP)
	x3 := new(big.Int).Mul(x, x)
	x3.Mul(x3, x)
	x3.Add(x3, bigB)
	x3.Mod(x3, bigP)
	return y2.Cmp(x3) == 0
}

// bigLiftX computes the curve point y coordinate for x with the requested
// parity. P ≡ 3 (mod 4), so sqrt(a) = a^((P+1)/4).
func bigLiftX(x *big.Int, odd bool) (*big.Int, error) {
	y2 := new(big.Int).Mul(x, x)
	y2.Mul(y2, x)
	y2.Add(y2, bigB)
	y2.Mod(y2, bigP)
	exp := new(big.Int).Add(bigP, big.NewInt(1))
	exp.Rsh(exp, 2)
	y := new(big.Int).Exp(y2, exp, bigP)
	// Validate that y is a real square root.
	check := new(big.Int).Mul(y, y)
	check.Mod(check, bigP)
	if check.Cmp(y2) != 0 {
		return nil, ErrInvalidPubKey
	}
	if (y.Bit(0) == 1) != odd {
		y.Sub(bigP, y)
	}
	return y, nil
}

// bigNonce derives the deterministic ECDSA nonce k per RFC 6979 using
// HMAC-SHA256, for the 256-bit curve order (qlen == hlen == 256 bits, so
// bits2int is the identity on the hash).
func bigNonce(d *big.Int, hash []byte) *big.Int {
	q := bigN
	x := make([]byte, 32)
	d.FillBytes(x)

	// bits2octets: reduce the hash mod q, then pad to 32 bytes.
	h := new(big.Int).SetBytes(hash)
	if h.Cmp(q) >= 0 {
		h.Sub(h, q)
	}
	hBytes := make([]byte, 32)
	h.FillBytes(hBytes)

	v := make([]byte, 32)
	k := make([]byte, 32)
	for i := range v {
		v[i] = 0x01
	}

	mac := hmac.New(sha256.New, k)
	mac.Write(v)
	mac.Write([]byte{0x00})
	mac.Write(x)
	mac.Write(hBytes)
	k = mac.Sum(nil)

	mac = hmac.New(sha256.New, k)
	mac.Write(v)
	v = mac.Sum(nil)

	mac = hmac.New(sha256.New, k)
	mac.Write(v)
	mac.Write([]byte{0x01})
	mac.Write(x)
	mac.Write(hBytes)
	k = mac.Sum(nil)

	mac = hmac.New(sha256.New, k)
	mac.Write(v)
	v = mac.Sum(nil)

	for {
		mac = hmac.New(sha256.New, k)
		mac.Write(v)
		v = mac.Sum(nil)
		candidate := new(big.Int).SetBytes(v)
		if candidate.Sign() > 0 && candidate.Cmp(q) < 0 {
			return candidate
		}
		mac = hmac.New(sha256.New, k)
		mac.Write(v)
		mac.Write([]byte{0x00})
		k = mac.Sum(nil)
		mac = hmac.New(sha256.New, k)
		mac.Write(v)
		v = mac.Sum(nil)
	}
}

// bigSign produces a deterministic (RFC 6979) low-s signature of the given
// 32-byte digest.
func bigSign(d *big.Int, hash types.Hash) *bigSignature {
	z := new(big.Int).SetBytes(hash[:])
	nonceHash := hash[:]
	for attempt := 0; ; attempt++ {
		kNonce := bigNonce(d, nonceHash)
		rx, ry := bigScalarBaseMult(kNonce)
		r := new(big.Int).Mod(rx, bigN)
		if r.Sign() == 0 {
			// Astronomically unlikely; re-derive with a tweaked message.
			nonceHash = append(append([]byte{}, nonceHash...), byte(attempt))
			continue
		}
		kInv := new(big.Int).ModInverse(kNonce, bigN)
		s := new(big.Int).Mul(r, d)
		s.Add(s, z)
		s.Mul(s, kInv)
		s.Mod(s, bigN)
		if s.Sign() == 0 {
			nonceHash = append(append([]byte{}, nonceHash...), byte(attempt))
			continue
		}
		v := byte(ry.Bit(0))
		// Normalize to low-s; flipping s mirrors the R point's parity.
		if s.Cmp(bigHalfN) > 0 {
			s.Sub(bigN, s)
			v ^= 1
		}
		return &bigSignature{R: r, S: s, V: v}
	}
}

// bigVerify reports whether sig is a valid signature of hash under pub.
func bigVerify(pub *bigPublicKey, hash types.Hash, sig *bigSignature) bool {
	if sig.R.Sign() <= 0 || sig.R.Cmp(bigN) >= 0 || sig.S.Sign() <= 0 || sig.S.Cmp(bigN) >= 0 {
		return false
	}
	if !bigIsOnCurve(pub.X, pub.Y) {
		return false
	}
	z := new(big.Int).SetBytes(hash[:])
	sInv := new(big.Int).ModInverse(sig.S, bigN)
	u1 := new(big.Int).Mul(z, sInv)
	u1.Mod(u1, bigN)
	u2 := new(big.Int).Mul(sig.R, sInv)
	u2.Mod(u2, bigN)

	p1 := bigInfinity()
	if u1.Sign() != 0 {
		x1, y1 := bigScalarBaseMult(u1)
		p1 = bigFromAffine(x1, y1)
	}
	x2, y2 := bigScalarMult(pub.X, pub.Y, u2)
	sum := p1.add(bigFromAffine(x2, y2))
	if sum.isInfinity() {
		return false
	}
	sx, _ := sum.toAffine()
	sx.Mod(sx, bigN)
	return sx.Cmp(sig.R) == 0
}

// bigRecover recovers the signing public key from a signature and
// the signed digest, the operation behind Ethereum's ecrecover.
func bigRecover(hash types.Hash, sig *bigSignature) (*bigPublicKey, error) {
	if sig.R.Sign() <= 0 || sig.R.Cmp(bigN) >= 0 || sig.S.Sign() <= 0 || sig.S.Cmp(bigN) >= 0 {
		return nil, ErrInvalidSignature
	}
	if sig.V > 1 {
		return nil, fmt.Errorf("%w: recovery id %d", ErrInvalidSignature, sig.V)
	}
	// R point x coordinate. (We ignore the r+N overflow case, which has
	// probability ~2^-127 and no legitimate use.)
	rx := new(big.Int).Set(sig.R)
	if rx.Cmp(bigP) >= 0 {
		return nil, ErrRecoveryFailed
	}
	ry, err := bigLiftX(rx, sig.V == 1)
	if err != nil {
		return nil, ErrRecoveryFailed
	}
	// Q = r^-1 (s*R - z*G)
	rInv := new(big.Int).ModInverse(sig.R, bigN)
	z := new(big.Int).SetBytes(hash[:])

	u1 := new(big.Int).Mul(z, rInv)
	u1.Neg(u1)
	u1.Mod(u1, bigN)
	u2 := new(big.Int).Mul(sig.S, rInv)
	u2.Mod(u2, bigN)

	p1 := bigInfinity()
	if u1.Sign() != 0 {
		x1, y1 := bigScalarBaseMult(u1)
		p1 = bigFromAffine(x1, y1)
	}
	x2, y2 := bigScalarMult(rx, ry, u2)
	q := p1.add(bigFromAffine(x2, y2))
	if q.isInfinity() {
		return nil, ErrRecoveryFailed
	}
	qx, qy := q.toAffine()
	pub := &bigPublicKey{X: qx, Y: qy}
	if !bigIsOnCurve(qx, qy) {
		return nil, ErrRecoveryFailed
	}
	return pub, nil
}
