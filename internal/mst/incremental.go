package mst

// Incremental authenticated map — the chain's O(log n) state
// commitment. Where Tree commits a fixed leaf slice, Map maintains a
// mutable key → (value hash, sum) set whose root updates in O(log n)
// hashes per write, so sealing a block re-hashes only the accounts the
// block touched instead of the whole state (the legacy Digest path).
//
// The structure is a deterministic treap: an in-key-order binary
// search tree whose heap priorities are derived by hashing the key, so
// the shape — and therefore the root hash — is a pure function of the
// key set, independent of insertion and deletion order. Two nodes
// holding the same map contents always agree on the root.
//
// Every node authenticates its key, value hash, sum and both child
// subtrees:
//
//	nodeHash = H(0x02 | keyLen u32 BE | key | valueHash | sum u64 BE |
//	             leftHash | leftSum u64 BE | rightHash | rightSum u64 BE)
//
// with the all-zero hash and sum 0 standing in for an empty child. The
// 0x02 domain tag keeps map nodes disjoint from the Tree's leaf (0x00)
// and interior (0x01) preimages. Subtree sums use wrapping uint64
// addition (documented: the map's sums are a consistency signal, not
// an audited balance like the template's payment sums).
//
// A MapProof carries, bottom-up, everything needed to recompute each
// ancestor's hash: the proven node's two child digests, then per
// ancestor its own (key, valueHash, sum) and the off-path child's
// digest. Verification needs only the root — a light client checks an
// account against a block header's state commitment with ~log n
// hashes.

import (
	"bytes"
	"encoding/binary"
	"errors"

	"tinyevm/internal/types"
)

// ErrKeyNotFound is returned by Prove for a key the map does not hold.
var ErrKeyNotFound = errors.New("mst: key not in map")

// mapPrioTag seeds the priority derivation, keeping it disjoint from
// every other hash domain in the system.
var mapPrioTag = []byte("tinyevm-mst-map-prio")

// Map is the mutable authenticated map. The zero value is not usable;
// call NewMap. A Map is not safe for concurrent use.
type Map struct {
	root *mapNode
}

type mapNode struct {
	key     []byte
	valHash types.Hash
	sum     uint64
	prio    uint64

	left, right *mapNode

	// hash and subSum authenticate the whole subtree rooted here.
	hash   types.Hash
	subSum uint64
}

// NewMap returns an empty map. Its root is the zero Root.
func NewMap() *Map { return &Map{} }

// mapPrio derives a node's deterministic heap priority from its key.
func mapPrio(key []byte) uint64 {
	h := types.HashConcat(mapPrioTag, key)
	return binary.BigEndian.Uint64(h[:8])
}

// childDigest returns the (hash, sum) pair of a possibly-nil child.
func childDigest(n *mapNode) (types.Hash, uint64) {
	if n == nil {
		return types.Hash{}, 0
	}
	return n.hash, n.subSum
}

// hashMapNode computes the authenticated node hash from its parts.
func hashMapNode(key []byte, valHash types.Hash, sum uint64, lh types.Hash, ls uint64, rh types.Hash, rs uint64) types.Hash {
	buf := make([]byte, 0, 1+4+len(key)+32+8+32+8+32+8)
	buf = append(buf, 0x02) // map-node domain tag
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(key)))
	buf = append(buf, n[:]...)
	buf = append(buf, key...)
	buf = append(buf, valHash[:]...)
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], sum)
	buf = append(buf, s[:]...)
	buf = append(buf, lh[:]...)
	binary.BigEndian.PutUint64(s[:], ls)
	buf = append(buf, s[:]...)
	buf = append(buf, rh[:]...)
	binary.BigEndian.PutUint64(s[:], rs)
	buf = append(buf, s[:]...)
	return types.HashData(buf)
}

// recompute refreshes a node's subtree digest after a child or value
// change.
func recompute(n *mapNode) {
	lh, ls := childDigest(n.left)
	rh, rs := childDigest(n.right)
	n.hash = hashMapNode(n.key, n.valHash, n.sum, lh, ls, rh, rs)
	n.subSum = n.sum + ls + rs // wrapping by design
}

func rotateRight(n *mapNode) *mapNode {
	l := n.left
	n.left = l.right
	recompute(n)
	l.right = n
	recompute(l)
	return l
}

func rotateLeft(n *mapNode) *mapNode {
	r := n.right
	n.right = r.left
	recompute(n)
	r.left = n
	recompute(r)
	return r
}

// Update inserts or replaces key with the given value hash and sum,
// in O(log n) expected hashes.
func (m *Map) Update(key []byte, valueHash types.Hash, sum uint64) {
	m.root = mapInsert(m.root, key, valueHash, sum)
}

func mapInsert(n *mapNode, key []byte, valHash types.Hash, sum uint64) *mapNode {
	if n == nil {
		nn := &mapNode{key: append([]byte(nil), key...), valHash: valHash, sum: sum, prio: mapPrio(key)}
		recompute(nn)
		return nn
	}
	switch bytes.Compare(key, n.key) {
	case 0:
		n.valHash = valHash
		n.sum = sum
		recompute(n)
	case -1:
		n.left = mapInsert(n.left, key, valHash, sum)
		if n.left.prio > n.prio {
			return rotateRight(n)
		}
		recompute(n)
	default:
		n.right = mapInsert(n.right, key, valHash, sum)
		if n.right.prio > n.prio {
			return rotateLeft(n)
		}
		recompute(n)
	}
	return n
}

// Delete removes key; deleting a missing key is a no-op.
func (m *Map) Delete(key []byte) {
	m.root = mapDelete(m.root, key)
}

func mapDelete(n *mapNode, key []byte) *mapNode {
	if n == nil {
		return nil
	}
	switch bytes.Compare(key, n.key) {
	case 0:
		return mapMerge(n.left, n.right)
	case -1:
		n.left = mapDelete(n.left, key)
	default:
		n.right = mapDelete(n.right, key)
	}
	recompute(n)
	return n
}

// mapMerge joins two treaps where every key of a sorts before every
// key of b.
func mapMerge(a, b *mapNode) *mapNode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio >= b.prio {
		a.right = mapMerge(a.right, b)
		recompute(a)
		return a
	}
	b.left = mapMerge(a, b.left)
	recompute(b)
	return b
}

// Root returns the authenticated digest of the map. The empty map's
// root is the zero Root.
func (m *Map) Root() Root {
	if m.root == nil {
		return Root{}
	}
	return Root{Hash: m.root.hash, Sum: m.root.subSum}
}

// MapProof is a membership proof for one key of a Map, verifiable
// against the Root alone.
type MapProof struct {
	// LeftHash/LeftSum and RightHash/RightSum are the child digests of
	// the node holding the proven key (zero for absent children).
	LeftHash  types.Hash
	LeftSum   uint64
	RightHash types.Hash
	RightSum  uint64
	// Steps walk bottom-up through the proven node's ancestors.
	Steps []MapProofStep
}

// MapProofStep is one ancestor on the proof path.
type MapProofStep struct {
	// Key, ValueHash and Sum are the ancestor's own entry.
	Key       []byte
	ValueHash types.Hash
	Sum       uint64
	// SiblingHash and SiblingSum digest the ancestor's off-path child.
	SiblingHash types.Hash
	SiblingSum  uint64
	// Right reports whether the path continues through the ancestor's
	// right child.
	Right bool
}

// Prove builds a membership proof for key.
func (m *Map) Prove(key []byte) (MapProof, error) {
	var path []*mapNode
	n := m.root
	for n != nil {
		c := bytes.Compare(key, n.key)
		if c == 0 {
			break
		}
		path = append(path, n)
		if c < 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		return MapProof{}, ErrKeyNotFound
	}
	var p MapProof
	p.LeftHash, p.LeftSum = childDigest(n.left)
	p.RightHash, p.RightSum = childDigest(n.right)
	for i := len(path) - 1; i >= 0; i-- {
		anc := path[i]
		right := bytes.Compare(key, anc.key) > 0
		var sib *mapNode
		if right {
			sib = anc.left
		} else {
			sib = anc.right
		}
		sh, ss := childDigest(sib)
		p.Steps = append(p.Steps, MapProofStep{
			Key:         append([]byte(nil), anc.key...),
			ValueHash:   anc.valHash,
			Sum:         anc.sum,
			SiblingHash: sh,
			SiblingSum:  ss,
			Right:       right,
		})
	}
	return p, nil
}

// VerifyMapProof checks that (key, valueHash, sum) is committed under
// root. It recomputes the path hashes bottom-up and compares both the
// root hash and the root sum.
func VerifyMapProof(root Root, key []byte, valueHash types.Hash, sum uint64, p MapProof) error {
	cur := hashMapNode(key, valueHash, sum, p.LeftHash, p.LeftSum, p.RightHash, p.RightSum)
	curSum := sum + p.LeftSum + p.RightSum
	for _, st := range p.Steps {
		if st.Right {
			cur = hashMapNode(st.Key, st.ValueHash, st.Sum, st.SiblingHash, st.SiblingSum, cur, curSum)
		} else {
			cur = hashMapNode(st.Key, st.ValueHash, st.Sum, cur, curSum, st.SiblingHash, st.SiblingSum)
		}
		curSum += st.Sum + st.SiblingSum
	}
	if cur != root.Hash || curSum != root.Sum {
		return ErrProofInvalid
	}
	return nil
}
