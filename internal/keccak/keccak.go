// Package keccak implements the Keccak-256 hash function as used by
// Ethereum: the original Keccak submission with multi-rate padding
// (domain byte 0x01), not the final FIPS-202 SHA3-256 (0x06).
//
// TinyEVM (the paper, §VI-C2) runs Keccak-256 in software on the MCU
// because the CC2538 crypto engine does not support it; this package is
// that software implementation, used both for EVM KECCAK256/SHA3 opcodes
// and for Ethereum address/state hashing throughout the repository.
package keccak

import (
	"encoding/binary"
	"hash"
	"math/bits"
)

const (
	// rate256 is the sponge rate in bytes for 256-bit output
	// (1600 - 2*256 bits = 1088 bits = 136 bytes).
	rate256 = 136
	// Size is the output size of Keccak-256 in bytes.
	Size = 32
)

// roundConstants are the 24 iota-step constants of keccak-f[1600].
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
	0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
	0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// keccakF1600 applies the full 24-round keccak-f[1600] permutation to the
// state, indexed as a[x+5y]. Each round is unrolled over 25 locals, so
// the lane indices and rotation amounts are constants in the code.
func keccakF1600(a *[25]uint64) {
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	a5, a6, a7, a8, a9 := a[5], a[6], a[7], a[8], a[9]
	a10, a11, a12, a13, a14 := a[10], a[11], a[12], a[13], a[14]
	a15, a16, a17, a18, a19 := a[15], a[16], a[17], a[18], a[19]
	a20, a21, a22, a23, a24 := a[20], a[21], a[22], a[23], a[24]
	for _, rc := range roundConstants {
		// Theta: column parities, then each lane's correction d[x].
		c0 := a0 ^ a5 ^ a10 ^ a15 ^ a20
		c1 := a1 ^ a6 ^ a11 ^ a16 ^ a21
		c2 := a2 ^ a7 ^ a12 ^ a17 ^ a22
		c3 := a3 ^ a8 ^ a13 ^ a18 ^ a23
		c4 := a4 ^ a9 ^ a14 ^ a19 ^ a24
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)
		// Rho and Pi: lane (x, y) rotates and moves to (y, 2x+3y).
		b0 := a0 ^ d0
		b1 := bits.RotateLeft64(a6^d1, 44)
		b2 := bits.RotateLeft64(a12^d2, 43)
		b3 := bits.RotateLeft64(a18^d3, 21)
		b4 := bits.RotateLeft64(a24^d4, 14)
		b5 := bits.RotateLeft64(a3^d3, 28)
		b6 := bits.RotateLeft64(a9^d4, 20)
		b7 := bits.RotateLeft64(a10^d0, 3)
		b8 := bits.RotateLeft64(a16^d1, 45)
		b9 := bits.RotateLeft64(a22^d2, 61)
		b10 := bits.RotateLeft64(a1^d1, 1)
		b11 := bits.RotateLeft64(a7^d2, 6)
		b12 := bits.RotateLeft64(a13^d3, 25)
		b13 := bits.RotateLeft64(a19^d4, 8)
		b14 := bits.RotateLeft64(a20^d0, 18)
		b15 := bits.RotateLeft64(a4^d4, 27)
		b16 := bits.RotateLeft64(a5^d0, 36)
		b17 := bits.RotateLeft64(a11^d1, 10)
		b18 := bits.RotateLeft64(a17^d2, 15)
		b19 := bits.RotateLeft64(a23^d3, 56)
		b20 := bits.RotateLeft64(a2^d2, 62)
		b21 := bits.RotateLeft64(a8^d3, 55)
		b22 := bits.RotateLeft64(a14^d4, 39)
		b23 := bits.RotateLeft64(a15^d0, 41)
		b24 := bits.RotateLeft64(a21^d1, 2)
		// Chi, with Iota folded into lane 0.
		a0 = b0 ^ (^b1 & b2) ^ rc
		a1 = b1 ^ (^b2 & b3)
		a2 = b2 ^ (^b3 & b4)
		a3 = b3 ^ (^b4 & b0)
		a4 = b4 ^ (^b0 & b1)
		a5 = b5 ^ (^b6 & b7)
		a6 = b6 ^ (^b7 & b8)
		a7 = b7 ^ (^b8 & b9)
		a8 = b8 ^ (^b9 & b5)
		a9 = b9 ^ (^b5 & b6)
		a10 = b10 ^ (^b11 & b12)
		a11 = b11 ^ (^b12 & b13)
		a12 = b12 ^ (^b13 & b14)
		a13 = b13 ^ (^b14 & b10)
		a14 = b14 ^ (^b10 & b11)
		a15 = b15 ^ (^b16 & b17)
		a16 = b16 ^ (^b17 & b18)
		a17 = b17 ^ (^b18 & b19)
		a18 = b18 ^ (^b19 & b15)
		a19 = b19 ^ (^b15 & b16)
		a20 = b20 ^ (^b21 & b22)
		a21 = b21 ^ (^b22 & b23)
		a22 = b22 ^ (^b23 & b24)
		a23 = b23 ^ (^b24 & b20)
		a24 = b24 ^ (^b20 & b21)
	}
	a[0], a[1], a[2], a[3], a[4] = a0, a1, a2, a3, a4
	a[5], a[6], a[7], a[8], a[9] = a5, a6, a7, a8, a9
	a[10], a[11], a[12], a[13], a[14] = a10, a11, a12, a13, a14
	a[15], a[16], a[17], a[18], a[19] = a15, a16, a17, a18, a19
	a[20], a[21], a[22], a[23], a[24] = a20, a21, a22, a23, a24
}

// Hasher is a streaming Keccak-256 hasher implementing hash.Hash. The
// zero value is ready to use — Sum256/Sum256Concat and the digest
// functions of the payment path rely on that to keep the sponge on the
// caller's stack (var h Hasher; h.Write(...); h.Digest()), and
// &Hasher{} is a hash.Hash.
type Hasher struct {
	state  [25]uint64
	buf    [rate256]byte
	bufLen int
}

var _ hash.Hash = (*Hasher)(nil)

// Write absorbs more data into the sponge. It never returns an error.
func (h *Hasher) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if h.bufLen == 0 && len(p) >= rate256 {
			// A whole block with nothing buffered goes lane by lane
			// from the input, skipping the copy through buf.
			absorb(&h.state, (*[rate256]byte)(p))
			p = p[rate256:]
			continue
		}
		c := copy(h.buf[h.bufLen:], p)
		h.bufLen += c
		p = p[c:]
		if h.bufLen == rate256 {
			absorb(&h.state, &h.buf)
			h.bufLen = 0
		}
	}
	return n, nil
}

// absorb XORs one rate block into the state and permutes it.
func absorb(state *[25]uint64, block *[rate256]byte) {
	for i := 0; i < rate256/8; i++ {
		state[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	keccakF1600(state)
}

// Sum appends the current hash to b and returns the resulting slice. It
// does not change the underlying hash state.
func (h *Hasher) Sum(b []byte) []byte {
	out := h.Digest()
	return append(b, out[:]...)
}

// Digest returns the current hash by value, with no heap allocation: a
// Hasher on the caller's stack plus Digest is a streaming hash that
// never touches the heap. Like Sum it leaves the hasher unchanged, so it
// can be called repeatedly or interleaved with further writes.
func (h *Hasher) Digest() [Size]byte {
	state := h.state
	// Multi-rate padding with the legacy Keccak domain byte 0x01.
	var last [rate256]byte
	copy(last[:], h.buf[:h.bufLen])
	last[h.bufLen] = 0x01
	last[rate256-1] |= 0x80
	absorb(&state, &last)

	var out [Size]byte
	for i := 0; i < Size/8; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], state[i])
	}
	return out
}

// Reset resets the hasher to its initial state.
func (h *Hasher) Reset() {
	h.state = [25]uint64{}
	h.bufLen = 0
}

// Size returns the number of bytes Sum will produce (32).
func (h *Hasher) Size() int { return Size }

// BlockSize returns the sponge rate in bytes (136).
func (h *Hasher) BlockSize() int { return rate256 }

// Sum256 returns the Keccak-256 digest of data. It allocates nothing:
// the sponge lives on the caller's stack and the digest is returned by
// value.
func Sum256(data []byte) [Size]byte {
	var h Hasher
	h.Write(data) //nolint:errcheck // Write never fails
	return h.Digest()
}

// Sum256Concat returns the Keccak-256 digest of the concatenation of the
// given byte slices without building an intermediate buffer.
func Sum256Concat(parts ...[]byte) [Size]byte {
	var h Hasher
	for _, p := range parts {
		h.Write(p) //nolint:errcheck // Write never fails
	}
	return h.Digest()
}
