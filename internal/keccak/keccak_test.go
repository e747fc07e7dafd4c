package keccak

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
)

// Known-answer tests for legacy Keccak-256 (Ethereum variant).
func TestKnownVectors(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		// The empty-input digest is Ethereum's well-known empty-code-hash
		// constant.
		{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
		{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
		{"hello", "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"},
		{
			"The quick brown fox jumps over the lazy dog",
			"4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
		},
		// 135 bytes puts the 0x01 pad and the 0x80 pad in the same final
		// block position; regression-pinned against this implementation
		// after the cross-library vectors above validated it.
		{
			strings.Repeat("a", 135),
			"34367dc248bbd832f4e3e69dfaac2f92638bd0bbd18f2912ba4ef454919cf446",
		},
	}
	for _, tc := range tests {
		got := Sum256([]byte(tc.in))
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("Sum256(%q) = %x, want %s", tc.in, got, tc.want)
		}
	}
}

func TestStreamingMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		n := r.Intn(1000)
		data := make([]byte, n)
		r.Read(data)
		want := Sum256(data)

		h := &Hasher{}
		// Write in random-sized chunks.
		rest := data
		for len(rest) > 0 {
			c := r.Intn(len(rest)) + 1
			h.Write(rest[:c])
			rest = rest[c:]
		}
		got := h.Sum(nil)
		if !bytes.Equal(got, want[:]) {
			t.Fatalf("streaming mismatch for %d bytes", n)
		}
	}
}

func TestSumDoesNotMutateState(t *testing.T) {
	h := &Hasher{}
	h.Write([]byte("partial"))
	first := h.Sum(nil)
	second := h.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatal("Sum mutated hasher state")
	}
	h.Write([]byte(" more"))
	want := Sum256([]byte("partial more"))
	if !bytes.Equal(h.Sum(nil), want[:]) {
		t.Fatal("Write after Sum produced wrong digest")
	}
}

func TestReset(t *testing.T) {
	h := &Hasher{}
	h.Write([]byte("garbage"))
	h.Reset()
	h.Write([]byte("abc"))
	want := Sum256([]byte("abc"))
	if !bytes.Equal(h.Sum(nil), want[:]) {
		t.Fatal("Reset did not clear state")
	}
}

func TestInterfaceSizes(t *testing.T) {
	h := &Hasher{}
	if h.Size() != 32 {
		t.Fatalf("Size = %d, want 32", h.Size())
	}
	if h.BlockSize() != 136 {
		t.Fatalf("BlockSize = %d, want 136", h.BlockSize())
	}
}

func TestSum256Concat(t *testing.T) {
	a := []byte("hello ")
	b := []byte("world")
	want := Sum256([]byte("hello world"))
	got := Sum256Concat(a, b)
	if got != want {
		t.Fatal("Sum256Concat mismatch")
	}
}

// TestBlockBoundaries hashes inputs of every length around the sponge rate
// to exercise all padding branch combinations against the streaming path.
func TestBlockBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 134, 135, 136, 137, 271, 272, 273, 500} {
		data := bytes.Repeat([]byte{0xa5}, n)
		oneShot := Sum256(data)
		h := &Hasher{}
		for _, c := range data {
			h.Write([]byte{c})
		}
		if !bytes.Equal(h.Sum(nil), oneShot[:]) {
			t.Fatalf("byte-at-a-time mismatch at length %d", n)
		}
	}
}

func TestDifferentInputsDiffer(t *testing.T) {
	a := Sum256([]byte("input-a"))
	b := Sum256([]byte("input-b"))
	if a == b {
		t.Fatal("distinct inputs produced identical digests")
	}
}

func BenchmarkSum256_32B(b *testing.B) {
	data := make([]byte, 32)
	b.SetBytes(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}

func BenchmarkSum256_1KB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}
