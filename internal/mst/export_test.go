package mst

import (
	"errors"
	"fmt"

	"tinyevm/internal/types"
)

// Inclusion proofs over a Tree, the test oracle for New: every leaf
// must prove against the root, and any changed leaf, sum or root must
// not.

// ErrIndexRange is returned for a leaf index outside the tree.
var ErrIndexRange = errors.New("mst: leaf index out of range")

// Proof is an inclusion proof for one leaf. Each step carries the sibling
// hash and sibling sum, plus the side the sibling is on.
type Proof struct {
	// LeafIndex is the index of the proven leaf in the original leaf
	// slice.
	LeafIndex int
	// Steps are ordered bottom-up.
	Steps []ProofStep
}

// ProofStep is one level of a Merkle-sum inclusion proof.
type ProofStep struct {
	// SiblingHash is the hash of the sibling subtree.
	SiblingHash types.Hash
	// SiblingSum is the sum of the sibling subtree.
	SiblingSum uint64
	// Right reports whether the sibling is on the right of the path node.
	Right bool
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return len(t.leaves) }

// Leaf returns the i-th leaf.
func (t *Tree) Leaf(i int) (Leaf, error) {
	if i < 0 || i >= len(t.leaves) {
		return Leaf{}, fmt.Errorf("%w: %d of %d", ErrIndexRange, i, len(t.leaves))
	}
	return t.leaves[i], nil
}

// Prove produces an inclusion proof for the i-th leaf.
func (t *Tree) Prove(i int) (*Proof, error) {
	if i < 0 || i >= len(t.leaves) {
		return nil, fmt.Errorf("%w: %d of %d", ErrIndexRange, i, len(t.leaves))
	}
	proof := &Proof{LeafIndex: i}
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		sibling := idx ^ 1
		if sibling < len(level) {
			proof.Steps = append(proof.Steps, ProofStep{
				SiblingHash: level[sibling].hash,
				SiblingSum:  level[sibling].sum,
				Right:       sibling > idx,
			})
		}
		// When sibling >= len(level) the node was promoted unchanged and
		// no step is emitted for this level.
		idx /= 2
	}
	return proof, nil
}

// Verify checks an inclusion proof against a root. It returns nil when
// the leaf is proven to be part of the committed set AND the root sum
// matches the recomputed sum — the combined hash/sum validation condition
// from the paper.
func Verify(root Root, leaf Leaf, proof *Proof) error {
	cur := node{hash: hashLeaf(leaf), sum: leaf.Sum}
	for _, step := range proof.Steps {
		sib := node{hash: step.SiblingHash, sum: step.SiblingSum}
		sum := cur.sum + sib.sum
		if sum < cur.sum {
			return ErrSumOverflow
		}
		if step.Right {
			cur = node{hash: hashInterior(cur, sib), sum: sum}
		} else {
			cur = node{hash: hashInterior(sib, cur), sum: sum}
		}
	}
	if cur.hash != root.Hash {
		return fmt.Errorf("%w: hash mismatch", ErrProofInvalid)
	}
	if cur.sum != root.Sum {
		return fmt.Errorf("%w: sum mismatch (%d != %d)", ErrProofInvalid, cur.sum, root.Sum)
	}
	return nil
}

// Len returns the number of keys in the map.
func (m *Map) Len() int { return mapLen(m.root) }

func mapLen(n *mapNode) int {
	if n == nil {
		return 0
	}
	return 1 + mapLen(n.left) + mapLen(n.right)
}
