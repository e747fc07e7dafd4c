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
// RecoverAddress, interleaves two width-5 wNAF recodings over one
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
// RecoverAddress only range-check (0 < r, s < N): the ECRECOVER
// precompile hands them words straight from contract calldata and must
// accept high-S exactly as Ethereum's does. The twin (r, N-s, v^1) of a
// valid signature therefore verifies and recovers the same key, and does
// not parse.
package secp256k1

import (
	"errors"

	"tinyevm/internal/keccak"
	"tinyevm/internal/types"
)

// Errors returned by signature operations.
var (
	ErrInvalidKey       = errors.New("secp256k1: invalid private key")
	ErrInvalidSignature = errors.New("secp256k1: invalid signature")
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

// Address returns the Ethereum address of the public key:
// keccak256(X||Y)[12:].
func (p *PublicKey) Address() types.Address {
	var raw [64]byte
	copy(raw[:32], p.X[:])
	copy(raw[32:], p.Y[:])
	h := keccak.Sum256(raw[:])
	return types.BytesToAddress(h[12:])
}
