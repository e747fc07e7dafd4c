package mst

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tinyevm/internal/types"
)

func mkLeaves(sums ...uint64) []Leaf {
	leaves := make([]Leaf, len(sums))
	for i, s := range sums {
		leaves[i] = Leaf{
			Hash: types.HashData([]byte{byte(i), byte(i >> 8), 0x5a}),
			Sum:  s,
		}
	}
	return leaves
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrEmptyTree) {
		t.Fatalf("got %v, want ErrEmptyTree", err)
	}
}

func TestRootSumIsTotal(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 100} {
		sums := make([]uint64, n)
		var want uint64
		for i := range sums {
			sums[i] = uint64(i * 10)
			want += sums[i]
		}
		tree, err := New(mkLeaves(sums...))
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.Root().Sum; got != want {
			t.Fatalf("n=%d: root sum %d, want %d", n, got, want)
		}
	}
}

func TestSingleLeafRoot(t *testing.T) {
	leaves := mkLeaves(42)
	tree, err := New(leaves)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tree.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof.Steps) != 0 {
		t.Fatalf("single-leaf proof has %d steps", len(proof.Steps))
	}
	if err := Verify(tree.Root(), leaves[0], proof); err != nil {
		t.Fatal(err)
	}
}

func TestProveVerifyAllLeaves(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 21, 64, 65} {
		sums := make([]uint64, n)
		for i := range sums {
			sums[i] = uint64(i + 1)
		}
		leaves := mkLeaves(sums...)
		tree, err := New(leaves)
		if err != nil {
			t.Fatal(err)
		}
		root := tree.Root()
		for i := 0; i < n; i++ {
			proof, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("n=%d prove(%d): %v", n, i, err)
			}
			if err := Verify(root, leaves[i], proof); err != nil {
				t.Fatalf("n=%d verify(%d): %v", n, i, err)
			}
		}
	}
}

func TestVerifyRejectsWrongLeaf(t *testing.T) {
	leaves := mkLeaves(1, 2, 3, 4, 5)
	tree, err := New(leaves)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tree.Prove(2)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a different leaf payload.
	bad := leaves[2]
	bad.Hash = types.HashData([]byte("forged"))
	if err := Verify(tree.Root(), bad, proof); err == nil {
		t.Fatal("forged leaf hash verified")
	}
}

func TestVerifyRejectsInflatedSum(t *testing.T) {
	leaves := mkLeaves(10, 20, 30, 40)
	tree, err := New(leaves)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tree.Prove(1)
	if err != nil {
		t.Fatal(err)
	}
	// A cheater claims a larger amount for the same committed leaf.
	inflated := leaves[1]
	inflated.Sum = 2_000
	if err := Verify(tree.Root(), inflated, proof); err == nil {
		t.Fatal("inflated leaf sum verified — sum audit broken")
	}
	// A cheater inflates a sibling sum inside the proof.
	proof2, _ := tree.Prove(1)
	proof2.Steps[0].SiblingSum += 5
	if err := Verify(tree.Root(), leaves[1], proof2); err == nil {
		t.Fatal("inflated sibling sum verified — sum binding broken")
	}
}

func TestVerifyRejectsWrongRoot(t *testing.T) {
	a, err := New(mkLeaves(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(mkLeaves(1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	proof, err := a.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := a.Leaf(0)
	if err := Verify(b.Root(), leaf, proof); err == nil {
		t.Fatal("proof verified against wrong root")
	}
}

func TestSumOverflowDetected(t *testing.T) {
	leaves := mkLeaves(math.MaxUint64, 1)
	if _, err := New(leaves); !errors.Is(err, ErrSumOverflow) {
		t.Fatalf("got %v, want ErrSumOverflow", err)
	}
}

func TestProveRange(t *testing.T) {
	tree, err := New(mkLeaves(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Prove(-1); !errors.Is(err, ErrIndexRange) {
		t.Fatal("negative index accepted")
	}
	if _, err := tree.Prove(2); !errors.Is(err, ErrIndexRange) {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := tree.Leaf(5); !errors.Is(err, ErrIndexRange) {
		t.Fatal("out-of-range leaf accepted")
	}
}

func TestRootChangesWithAnyLeaf(t *testing.T) {
	base := mkLeaves(5, 6, 7, 8, 9)
	tree, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	baseRoot := tree.Root()
	for i := range base {
		mod := make([]Leaf, len(base))
		copy(mod, base)
		mod[i].Sum++
		tree2, err := New(mod)
		if err != nil {
			t.Fatal(err)
		}
		if tree2.Root().Hash == baseRoot.Hash {
			t.Fatalf("root hash unchanged after modifying leaf %d", i)
		}
	}
}

func TestDomainSeparation(t *testing.T) {
	// A leaf whose payload mimics an interior node must not produce the
	// same root as the real two-leaf tree (second-preimage splice).
	leaves := mkLeaves(1, 2)
	tree, err := New(leaves)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root()
	splice := Leaf{Hash: root.Hash, Sum: root.Sum}
	spliceTree, err := New([]Leaf{splice})
	if err != nil {
		t.Fatal(err)
	}
	if spliceTree.Root().Hash == root.Hash {
		t.Fatal("leaf/interior domain separation missing")
	}
}

// Property test: every leaf of a random tree verifies, and no leaf
// verifies with its sum perturbed.
func TestProofPropertyQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := rand.New(rand.NewSource(seed))
		leaves := make([]Leaf, n)
		for i := range leaves {
			var h types.Hash
			r.Read(h[:])
			leaves[i] = Leaf{Hash: h, Sum: uint64(r.Intn(1_000_000))}
		}
		tree, err := New(leaves)
		if err != nil {
			return false
		}
		root := tree.Root()
		idx := r.Intn(n)
		proof, err := tree.Prove(idx)
		if err != nil {
			return false
		}
		if Verify(root, leaves[idx], proof) != nil {
			return false
		}
		bad := leaves[idx]
		bad.Sum++
		return Verify(root, bad, proof) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild1000(b *testing.B) {
	sums := make([]uint64, 1000)
	for i := range sums {
		sums[i] = uint64(i)
	}
	leaves := mkLeaves(sums...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(leaves); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProveVerify(b *testing.B) {
	sums := make([]uint64, 1024)
	for i := range sums {
		sums[i] = uint64(i)
	}
	leaves := mkLeaves(sums...)
	tree, err := New(leaves)
	if err != nil {
		b.Fatal(err)
	}
	root := tree.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % len(leaves)
		proof, err := tree.Prove(idx)
		if err != nil {
			b.Fatal(err)
		}
		if err := Verify(root, leaves[idx], proof); err != nil {
			b.Fatal(err)
		}
	}
}
