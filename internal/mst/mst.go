// Package mst implements the Merkle-Sum-Tree used by the on-chain
// template contract to commit off-chain payment-channel states
// (paper §IV-E, following the Plasma construction it cites).
//
// Every node carries both a hash and a sum. A parent's sum is the sum of
// its children's sums, so the root simultaneously authenticates the set
// of committed states and the total amount of money they claim, which
// the contract holds within the locked deposit — the paper's "sum
// audit" condition.
package mst

import (
	"encoding/binary"
	"errors"

	"tinyevm/internal/types"
)

// Leaf is one committed off-chain state: an opaque payload hash plus the
// amount (sum contribution) it claims.
type Leaf struct {
	// Hash identifies the committed state (e.g. the hash of a signed
	// channel-close message).
	Hash types.Hash
	// Sum is the amount of value the state claims, in wei.
	Sum uint64
}

// Root is the authenticated digest of a Merkle-sum tree.
type Root struct {
	// Hash authenticates the full leaf set.
	Hash types.Hash
	// Sum is the total of all leaf sums.
	Sum uint64
}

// Errors returned by tree operations.
var (
	ErrEmptyTree    = errors.New("mst: tree has no leaves")
	ErrSumOverflow  = errors.New("mst: sum overflow")
	ErrProofInvalid = errors.New("mst: proof does not verify")
)

// Tree is an immutable Merkle-sum tree built from a slice of leaves.
type Tree struct {
	leaves []Leaf
	// levels[0] is the leaf level, levels[len-1] is the root level with
	// exactly one node.
	levels [][]node
}

type node struct {
	hash types.Hash
	sum  uint64
}

// hashLeaf domain-separates leaf hashes from interior hashes to prevent
// second-preimage splicing between levels.
func hashLeaf(l Leaf) types.Hash {
	var buf [1 + 32 + 8]byte
	buf[0] = 0x00 // leaf domain tag
	copy(buf[1:33], l.Hash[:])
	binary.BigEndian.PutUint64(buf[33:], l.Sum)
	return types.HashData(buf[:])
}

// hashInterior combines two children into a parent node hash. The sums
// are part of the preimage, so a proof cannot lie about either child sum.
func hashInterior(left, right node) types.Hash {
	var buf [1 + 32 + 8 + 32 + 8]byte
	buf[0] = 0x01 // interior domain tag
	copy(buf[1:33], left.hash[:])
	binary.BigEndian.PutUint64(buf[33:41], left.sum)
	copy(buf[41:73], right.hash[:])
	binary.BigEndian.PutUint64(buf[73:81], right.sum)
	return types.HashData(buf[:])
}

// New builds a Merkle-sum tree over the given leaves. The leaf slice is
// copied. Building fails if the leaves are empty or if their sums
// overflow uint64.
func New(leaves []Leaf) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, ErrEmptyTree
	}
	t := &Tree{leaves: make([]Leaf, len(leaves))}
	copy(t.leaves, leaves)

	level := make([]node, len(leaves))
	var total uint64
	for i, l := range leaves {
		level[i] = node{hash: hashLeaf(l), sum: l.Sum}
		next := total + l.Sum
		if next < total {
			return nil, ErrSumOverflow
		}
		total = next
	}
	t.levels = append(t.levels, level)

	for len(level) > 1 {
		parents := make([]node, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				// Odd node: promote unchanged. Its position is still
				// bound by the interior hashes above it.
				parents = append(parents, level[i])
				continue
			}
			sum := level[i].sum + level[i+1].sum
			if sum < level[i].sum {
				return nil, ErrSumOverflow
			}
			parents = append(parents, node{
				hash: hashInterior(level[i], level[i+1]),
				sum:  sum,
			})
		}
		t.levels = append(t.levels, parents)
		level = parents
	}
	return t, nil
}

// Root returns the tree's authenticated root.
func (t *Tree) Root() Root {
	top := t.levels[len(t.levels)-1][0]
	return Root{Hash: top.hash, Sum: top.sum}
}
