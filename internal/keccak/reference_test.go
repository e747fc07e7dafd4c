package keccak

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// The textbook permutation this package shipped until the unrolled
// rewrite — triple loop, %5 index arithmetic, rotation-offset table —
// kept as the differential oracle, with the simplest possible sponge
// around it.

// rotationOffsets holds the rho-step rotation amounts indexed [x][y].
var rotationOffsets = [5][5]uint{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

func referenceF1600(a *[25]uint64) {
	var b [25]uint64
	var c, d [5]uint64
	for round := 0; round < 24; round++ {
		// Theta.
		for x := 0; x < 5; x++ {
			c[x] = a[x] ^ a[x+5] ^ a[x+10] ^ a[x+15] ^ a[x+20]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ bits.RotateLeft64(c[(x+1)%5], 1)
			for y := 0; y < 5; y++ {
				a[x+5*y] ^= d[x]
			}
		}
		// Rho and Pi.
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				nx, ny := y, (2*x+3*y)%5
				b[nx+5*ny] = bits.RotateLeft64(a[x+5*y], int(rotationOffsets[x][y]))
			}
		}
		// Chi.
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x+5*y] = b[x+5*y] ^ (^b[(x+1)%5+5*y] & b[(x+2)%5+5*y])
			}
		}
		// Iota.
		a[0] ^= roundConstants[round]
	}
}

// referenceSum256 pads the whole message up front and absorbs it block
// by block.
func referenceSum256(data []byte) [Size]byte {
	padded := append(bytes.Clone(data), 0x01)
	for len(padded)%rate256 != 0 {
		padded = append(padded, 0)
	}
	padded[len(padded)-1] |= 0x80
	var state [25]uint64
	for ; len(padded) > 0; padded = padded[rate256:] {
		for i := 0; i < rate256/8; i++ {
			state[i] ^= binary.LittleEndian.Uint64(padded[i*8:])
		}
		referenceF1600(&state)
	}
	var out [Size]byte
	for i := 0; i < Size/8; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], state[i])
	}
	return out
}

func TestPermutationVsReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var got [25]uint64 // starts all-zero, the published test state
	for i := 0; i < 200; i++ {
		want := got
		keccakF1600(&got)
		referenceF1600(&want)
		if got != want {
			t.Fatalf("permutation %d differs from the reference", i)
		}
		if i%2 == 1 {
			for j := range got {
				got[j] = r.Uint64()
			}
		}
	}
}

// FuzzKeccakVsReference: one-shot, streaming at two fuzzer-chosen split
// points, and the old permutation must agree on every input; the seeds
// sit on both sides of the 136-byte rate.
func FuzzKeccakVsReference(f *testing.F) {
	for _, n := range []int{0, 1, 31, 32, 64, 135, 136, 137, 271, 272, 273, 408, 500} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*7 + n)
		}
		f.Add(data, uint16(n/3), uint16(n/2))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16) {
		want := referenceSum256(data)
		if got := Sum256(data); got != want {
			t.Fatalf("Sum256(%d bytes) = %x, reference %x", len(data), got, want)
		}
		i, j := int(cut1)%(len(data)+1), int(cut2)%(len(data)+1)
		if i > j {
			i, j = j, i
		}
		var h Hasher
		h.Write(data[:i])
		mid := h.Digest() // must not disturb the stream
		h.Write(data[i:j])
		h.Write(data[j:])
		if got := h.Digest(); got != want {
			t.Fatalf("streamed %d bytes split at %d, %d = %x, reference %x", len(data), i, j, got, want)
		}
		if mid != referenceSum256(data[:i]) {
			t.Fatalf("mid-stream digest of %d bytes differs from the reference", i)
		}
		if got := Sum256Concat(data[:i], data[i:j], data[j:]); got != want {
			t.Fatalf("Sum256Concat split at %d, %d differs from the reference", i, j)
		}
	})
}

// TestLengthsVsReference runs every length 0–500 — across the 135/136/137
// and 271/272/273 boundaries — without waiting for the fuzzer.
func TestLengthsVsReference(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	data := make([]byte, 500)
	r.Read(data)
	for n := 0; n <= len(data); n++ {
		want := referenceSum256(data[:n])
		if got := Sum256(data[:n]); got != want {
			t.Fatalf("Sum256(%d bytes) differs from the reference", n)
		}
		var h Hasher
		cut := r.Intn(n + 1)
		h.Write(data[:cut])
		h.Write(data[cut:n])
		if got := h.Digest(); got != want {
			t.Fatalf("streamed %d bytes split at %d differs from the reference", n, cut)
		}
	}
}

func TestZeroAllocs(t *testing.T) {
	data := make([]byte, 300)
	var sink [Size]byte
	if n := testing.AllocsPerRun(100, func() { sink = Sum256(data) }); n != 0 {
		t.Errorf("Sum256: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var h Hasher
		h.Write(data[:7])
		h.Write(data[7:])
		sink = h.Digest()
	}); n != 0 {
		t.Errorf("stack Hasher + Digest: %v allocs/op, want 0", n)
	}
	_ = sink
}
