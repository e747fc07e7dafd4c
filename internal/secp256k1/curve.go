// Package secp256k1 implements the secp256k1 elliptic curve and ECDSA
// signatures as used by Ethereum: deterministic RFC-6979 nonces, low-s
// normalization, 65-byte (r||s||v) signatures and public-key recovery.
//
// The paper executes these operations on the CC2538's hardware crypto
// engine; here they run in software on the host, while the device model
// (internal/device) charges the engine's published latencies and energy.
//
// # Implementation
//
// Field elements (mod P) and scalars (mod N) are fixed-width value types
// of four 64-bit limbs, fully reduced after every operation; a 512-bit
// product folds back through 2^256 ≡ 2^32 + 977 (mod P). Points are
// Jacobian with mixed-affine addition. k·G reads a 60 KB table of
// j·16^i·G built once on first use; u1·G + u2·Q, the core of Verify and
// RecoverPublicKey, interleaves two width-5 wNAF recodings over one
// shared doubling chain (Strauss). Nothing on these paths touches the
// heap except Sign's returned Signature. The math/big implementation
// this replaced lives on in oracle_test.go as the differential oracle
// for the fuzzers and for testdata/vectors.json.
//
// It is NOT constant-time and must not be used to guard real funds:
// table indices, wNAF digits and the exceptional-case branches of the
// group law all depend on secret scalars. That is acceptable here
// because every key in this repository is a simulation identity derived
// from a public seed string, the adversary the paper considers sits on
// the radio link rather than on the host's caches, and the device model
// charges the CC2538 engine's fixed latency whatever the host spent.
//
// # High-S
//
// Low-S is a transport rule, not a property of the math. Sign emits
// s <= N/2 and ParseSignature — the one door every signature from the
// wire, the disk or a peer comes through — refuses s > N/2, so two
// encodings of one authorisation never circulate. Verify and
// RecoverPublicKey only range-check (0 < r, s < N): the ECRECOVER
// precompile hands them words straight from contract calldata and must
// accept high-S exactly as Ethereum's does. The twin (r, N-s, v^1) of a
// valid signature therefore verifies and recovers the same key, and does
// not parse.
package secp256k1

import (
	"errors"
	"fmt"
	"io"

	"tinyevm/internal/keccak"
	"tinyevm/internal/types"
)

// Errors returned by signature operations.
var (
	ErrInvalidKey       = errors.New("secp256k1: invalid private key")
	ErrInvalidSignature = errors.New("secp256k1: invalid signature")
	ErrInvalidPubKey    = errors.New("secp256k1: invalid public key")
	ErrRecoveryFailed   = errors.New("secp256k1: public key recovery failed")
)

// PublicKey is a point on the secp256k1 curve, as big-endian affine
// coordinates.
type PublicKey struct {
	X, Y [32]byte
}

// PrivateKey is a secp256k1 scalar, big-endian, with its public point.
type PrivateKey struct {
	PublicKey
	D [32]byte
}

// GenerateKey creates a private key using entropy from rand.
func GenerateKey(rand io.Reader) (*PrivateKey, error) {
	var buf [32]byte
	for {
		if _, err := io.ReadFull(rand, buf[:]); err != nil {
			return nil, fmt.Errorf("secp256k1: reading entropy: %w", err)
		}
		if key, err := PrivateKeyFromBytes(buf[:]); err == nil {
			return key, nil
		}
	}
}

// PrivateKeyFromBytes builds a private key from a 32-byte big-endian
// scalar d, 0 < d < N.
func PrivateKeyFromBytes(b []byte) (*PrivateKey, error) {
	if len(b) != 32 {
		return nil, fmt.Errorf("%w: need 32 bytes, got %d", ErrInvalidKey, len(b))
	}
	var d scalar
	if !d.setBytes((*[32]byte)(b)) || d.isZero() {
		return nil, ErrInvalidKey
	}
	return newPrivateKey(&d), nil
}

// newPrivateKey derives the public point of a non-zero scalar.
func newPrivateKey(d *scalar) *PrivateKey {
	var p jacobianPoint
	p.baseMult(d)
	return &PrivateKey{PublicKey: publicKeyOf(p.toAffine()), D: d.bytes()}
}

// DeterministicKey derives a private key from a seed string. It is a
// convenience for simulations and tests that need stable identities; the
// derivation is keccak256(seed) reduced mod N (retrying on the negligible
// zero case by appending a counter byte).
func DeterministicKey(seed string) *PrivateKey {
	data := []byte(seed)
	for i := 0; ; i++ {
		h := keccak.Sum256(data)
		var d scalar
		d.setBytes(&h)
		if !d.isZero() {
			return newPrivateKey(&d)
		}
		data = append(data, byte(i))
	}
}

func publicKeyOf(a affinePoint) PublicKey {
	return PublicKey{X: a.x.bytes(), Y: a.y.bytes()}
}

// point decodes p and reports whether its coordinates are in field
// range and on the curve.
func (p *PublicKey) point() (a affinePoint, ok bool) {
	okX, okY := a.x.setBytes(&p.X), a.y.setBytes(&p.Y)
	return a, okX && okY && a.isOnCurve()
}

// SerializeUncompressed returns the 65-byte 0x04||X||Y encoding.
func (p *PublicKey) SerializeUncompressed() []byte {
	out := make([]byte, 65)
	out[0] = 0x04
	copy(out[1:33], p.X[:])
	copy(out[33:65], p.Y[:])
	return out
}

// SerializeCompressed returns the 33-byte 0x02/0x03||X encoding.
func (p *PublicKey) SerializeCompressed() []byte {
	out := make([]byte, 33)
	out[0] = 0x02 | p.Y[31]&1
	copy(out[1:33], p.X[:])
	return out
}

// ParsePublicKey decodes a 65-byte uncompressed or 33-byte compressed
// public key and validates that it lies on the curve.
func ParsePublicKey(b []byte) (*PublicKey, error) {
	switch {
	case len(b) == 65 && b[0] == 0x04:
		pub := &PublicKey{X: [32]byte(b[1:33]), Y: [32]byte(b[33:65])}
		if _, ok := pub.point(); !ok {
			return nil, ErrInvalidPubKey
		}
		return pub, nil
	case len(b) == 33 && (b[0] == 0x02 || b[0] == 0x03):
		var x fieldVal
		var a affinePoint
		if !x.setBytes((*[32]byte)(b[1:33])) || !a.liftX(&x, b[0] == 0x03) {
			return nil, ErrInvalidPubKey
		}
		pub := publicKeyOf(a)
		return &pub, nil
	default:
		return nil, fmt.Errorf("%w: bad encoding (len %d)", ErrInvalidPubKey, len(b))
	}
}

// Address returns the Ethereum address of the public key:
// keccak256(X||Y)[12:].
func (p *PublicKey) Address() types.Address {
	var raw [64]byte
	copy(raw[:32], p.X[:])
	copy(raw[32:], p.Y[:])
	h := keccak.Sum256(raw[:])
	return types.BytesToAddress(h[12:])
}

// Equal reports whether two public keys are the same point.
func (p *PublicKey) Equal(q *PublicKey) bool { return *p == *q }
