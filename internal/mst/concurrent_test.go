package mst

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"tinyevm/internal/types"
)

// leafSet builds a deterministic leaf population for generation gen.
func leafSet(gen, n int) []Leaf {
	leaves := make([]Leaf, n)
	for i := range leaves {
		var seed [16]byte
		binary.BigEndian.PutUint64(seed[:8], uint64(gen))
		binary.BigEndian.PutUint64(seed[8:], uint64(i))
		leaves[i] = Leaf{Hash: types.HashData(seed[:]), Sum: uint64(gen*1000 + i)}
	}
	return leaves
}

// TestTreeConcurrentReaders hammers one immutable tree from many
// goroutines: Root, Len, Leaf, Prove and Verify must all be safe to
// call concurrently (run under -race).
func TestTreeConcurrentReaders(t *testing.T) {
	const n = 64
	tree, err := New(leafSet(1, n))
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := (w*31 + iter) % n
				if got := tree.Root(); got != root {
					t.Errorf("root changed under readers: %v != %v", got, root)
					return
				}
				leaf, err := tree.Leaf(i)
				if err != nil {
					t.Error(err)
					return
				}
				proof, err := tree.Prove(i)
				if err != nil {
					t.Error(err)
					return
				}
				if err := Verify(root, leaf, proof); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTreeSwapUnderReaders models the commitment-update pattern: a
// writer publishes new immutable trees through an atomic pointer while
// readers prove and verify against whatever generation they loaded.
// Every proof must verify against the root of the SAME tree value the
// reader captured — generations never bleed into each other.
func TestTreeSwapUnderReaders(t *testing.T) {
	const n = 32
	var cur atomic.Pointer[Tree]
	first, err := New(leafSet(0, n))
	if err != nil {
		t.Fatal(err)
	}
	cur.Store(first)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				tree := cur.Load()
				root := tree.Root()
				i := (w*17 + iter) % tree.Len()
				leaf, err := tree.Leaf(i)
				if err != nil {
					t.Error(err)
					return
				}
				proof, err := tree.Prove(i)
				if err != nil {
					t.Error(err)
					return
				}
				if err := Verify(root, leaf, proof); err != nil {
					t.Errorf("generation proof failed: %v", err)
					return
				}
			}
		}(w)
	}

	for gen := 1; gen <= 50; gen++ {
		tree, err := New(leafSet(gen, n))
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(tree)
	}
	close(stop)
	wg.Wait()

	// The last published generation is intact.
	last := cur.Load()
	want, err := New(leafSet(50, n))
	if err != nil {
		t.Fatal(err)
	}
	if last.Root() != want.Root() {
		t.Fatalf("final root %v, want %v", last.Root(), want.Root())
	}
}
