package secp256k1

import (
	"errors"
	"fmt"
)

// Keys from raw scalars and the public-key encodings, for the pinned
// vectors and the fuzzers; the decoder fuzzer holds liftX and the curve
// check to the math/big oracle.

// ErrInvalidPubKey is returned for a malformed or off-curve public key.
var ErrInvalidPubKey = errors.New("secp256k1: invalid public key")

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
