package secp256k1

import (
	"crypto/sha256"
	"fmt"

	"tinyevm/internal/types"
)

// Signature is an ECDSA signature over secp256k1 in Ethereum form:
// big-endian (r, s) plus the recovery id v in {0, 1}. Sign and
// ParseSignature only ever produce low-s values; see the package
// comment for what the other functions accept.
type Signature struct {
	R, S [32]byte
	V    byte
}

// SignatureLength is the serialized length of a Signature (r||s||v).
const SignatureLength = 65

// Serialize encodes the signature as 65 bytes r||s||v.
func (sig *Signature) Serialize() []byte {
	out := make([]byte, SignatureLength)
	copy(out[0:32], sig.R[:])
	copy(out[32:64], sig.S[:])
	out[64] = sig.V
	return out
}

// scalars decodes r and s and reports whether both are in (0, N).
func (sig *Signature) scalars() (r, s scalar, ok bool) {
	okR, okS := r.setBytes(&sig.R), s.setBytes(&sig.S)
	return r, s, okR && okS && !r.isZero() && !s.isZero()
}

// ParseSignature decodes a 65-byte r||s||v signature and validates the
// component ranges (0 < r,s < N; low-s; v in {0,1}).
func ParseSignature(b []byte) (*Signature, error) {
	if len(b) != SignatureLength {
		return nil, fmt.Errorf("%w: need %d bytes, got %d", ErrInvalidSignature, SignatureLength, len(b))
	}
	sig := &Signature{R: [32]byte(b[0:32]), S: [32]byte(b[32:64]), V: b[64]}
	_, s, ok := sig.scalars()
	if !ok {
		return nil, fmt.Errorf("%w: component out of range", ErrInvalidSignature)
	}
	if s.isHigh() {
		return nil, fmt.Errorf("%w: s not normalized (high-s)", ErrInvalidSignature)
	}
	if sig.V > 1 {
		return nil, fmt.Errorf("%w: recovery id %d out of range", ErrInvalidSignature, sig.V)
	}
	return sig, nil
}

// nonceGen is the RFC 6979 HMAC-SHA256 DRBG for the 256-bit curve order
// (qlen == hlen == 256 bits, so bits2int is the identity on the hash).
type nonceGen struct {
	k, v [32]byte
}

// hmac sets g.k or g.v (dst) to HMAC-SHA256(g.k, g.v || msg), with the
// key block and message assembled on the stack.
func (g *nonceGen) hmac(dst *[32]byte, msg []byte) {
	// ipad block, V, then at most 0x00/0x01 || x || h.
	var inner [64 + 32 + 65]byte
	var outer [64 + 32]byte
	for i := range inner[:64] {
		inner[i], outer[i] = 0x36, 0x5c
	}
	for i, b := range g.k {
		inner[i] ^= b
		outer[i] ^= b
	}
	copy(inner[64:], g.v[:])
	n := 96 + copy(inner[96:], msg)
	sum := sha256.Sum256(inner[:n])
	copy(outer[64:], sum[:])
	*dst = sha256.Sum256(outer[:])
}

// newNonceGen seeds the generator from the private scalar and the
// digest (RFC 6979 §3.2 steps b–g).
func newNonceGen(d *scalar, hash *[32]byte) (g nonceGen) {
	for i := range g.v {
		g.v[i] = 0x01
	}
	// bits2octets: the digest reduced mod N.
	var h scalar
	h.setBytes(hash)
	var seed [65]byte
	x, hb := d.bytes(), h.bytes()
	copy(seed[1:33], x[:])
	copy(seed[33:65], hb[:])
	for _, sep := range []byte{0x00, 0x01} {
		seed[0] = sep
		g.hmac(&g.k, seed[:])
		g.hmac(&g.v, nil)
	}
	return g
}

// next returns the next candidate nonce in (0, N) (§3.2 step h). Calling
// it again is the RFC's own continuation for a k the caller rejected.
func (g *nonceGen) next() (k scalar) {
	for {
		g.hmac(&g.v, nil)
		if k.setBytes(&g.v) && !k.isZero() {
			return k
		}
		g.hmac(&g.k, []byte{0x00})
		g.hmac(&g.v, nil)
	}
}

// Sign produces a deterministic (RFC 6979) low-s signature of the given
// 32-byte digest.
func (k *PrivateKey) Sign(hash types.Hash) (*Signature, error) {
	var d, z scalar
	if !d.setBytes(&k.D) || d.isZero() {
		return nil, ErrInvalidKey
	}
	z.setBytes((*[32]byte)(&hash))
	gen := newNonceGen(&d, (*[32]byte)(&hash))
	for {
		nonce := gen.next()
		var rj jacobianPoint
		rj.baseMult(&nonce)
		rp := rj.toAffine()
		var s scalar
		r := rp.xModN()
		if r.isZero() {
			continue // astronomically unlikely
		}
		// s = k^-1 (z + r·d)
		s.mul(&r, &d)
		s.add(&s, &z)
		nonce.inv(&nonce)
		s.mul(&s, &nonce)
		if s.isZero() {
			continue
		}
		v := byte(rp.y[0] & 1)
		// Normalize to low-s; flipping s mirrors the R point's parity.
		if s.isHigh() {
			s.neg(&s)
			v ^= 1
		}
		return &Signature{R: r.bytes(), S: s.bytes(), V: v}, nil
	}
}

// Verify reports whether sig is a valid signature of hash under pub.
func Verify(pub *PublicKey, hash types.Hash, sig *Signature) bool {
	r, s, ok := sig.scalars()
	if !ok {
		return false
	}
	q, ok := pub.point()
	if !ok {
		return false
	}
	var z, sInv, u1, u2 scalar
	z.setBytes((*[32]byte)(&hash))
	sInv.inv(&s)
	u1.mul(&z, &sInv)
	u2.mul(&r, &sInv)
	var sum jacobianPoint
	sum.doubleMult(&u1, &q, &u2)
	if sum.isInfinity() {
		return false
	}
	a := sum.toAffine()
	return a.xModN() == r
}

// xModN returns a's x coordinate as a scalar, the r of ECDSA.
func (a *affinePoint) xModN() (r scalar) {
	x := a.x.bytes()
	r.setBytes(&x) // x < P < 2N: one subtraction reduces it
	return r
}

// recoverKey recovers the signing public key from a signature and the
// signed digest, the operation behind Ethereum's ecrecover. It returns
// the key by value, so RecoverAddress stays off the heap.
func recoverKey(hash types.Hash, sig *Signature) (PublicKey, error) {
	r, s, ok := sig.scalars()
	if !ok {
		return PublicKey{}, ErrInvalidSignature
	}
	if sig.V > 1 {
		return PublicKey{}, fmt.Errorf("%w: recovery id %d", ErrInvalidSignature, sig.V)
	}
	// R's x coordinate is r itself. (The r+N overflow case, which has
	// probability ~2^-127 and no legitimate use, is not tried.) r < N < P,
	// so it is always in field range.
	var rx fieldVal
	var rp affinePoint
	rx.setBytes(&sig.R)
	if !rp.liftX(&rx, sig.V == 1) {
		return PublicKey{}, ErrRecoveryFailed
	}
	// Q = r^-1 (s·R - z·G)
	var z, rInv, u1, u2 scalar
	z.setBytes((*[32]byte)(&hash))
	rInv.inv(&r)
	u1.mul(&z, &rInv)
	u1.neg(&u1)
	u2.mul(&s, &rInv)
	var q jacobianPoint
	q.doubleMult(&u1, &rp, &u2)
	if q.isInfinity() {
		return PublicKey{}, ErrRecoveryFailed
	}
	return publicKeyOf(q.toAffine()), nil
}

// RecoverAddress recovers the Ethereum address that signed hash.
func RecoverAddress(hash types.Hash, sig *Signature) (types.Address, error) {
	pub, err := recoverKey(hash, sig)
	if err != nil {
		return types.Address{}, err
	}
	return pub.Address(), nil
}
