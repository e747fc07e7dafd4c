// Package store is the pluggable persistence layer under TinyEVM's
// durable state: a small key-value interface with an in-memory backend
// (tests, ephemeral deployments), the record log every durable backend
// commits through (log.go), and the flat write-ahead-log backend built
// on it (wal.go); the segment engine on the same log is store/disk.
//
// The chain layer commits sealed blocks through a KVStore; the service
// layer journals its operation log and checkpoints into one. Both address disjoint key prefixes of the same store through
// Prefixed.
package store

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"sync"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// KVStore is a flat key-value store with atomic batched writes.
// Implementations must be safe for concurrent use.
type KVStore interface {
	// Get returns the value for key and whether it exists. The returned
	// slice is the caller's to keep.
	Get(key []byte) ([]byte, bool, error)
	// Put stores key -> value (a single-op batch).
	Put(key, value []byte) error
	// Delete removes key; deleting a missing key is not an error.
	Delete(key []byte) error
	// Iterate calls fn for every key with the given prefix in ascending
	// byte order. Returning an error from fn stops the iteration and is
	// returned. The key and value slices are the callback's to keep.
	Iterate(prefix []byte, fn func(key, value []byte) error) error
	// Batch starts a write batch; its ops apply atomically on Commit.
	Batch() Batch
	// Close releases the store. Operations after Close fail with
	// ErrClosed.
	Close() error
}

// Batch collects writes that commit atomically: after a crash, either
// every op of the batch is visible or none is.
type Batch interface {
	Put(key, value []byte)
	Delete(key []byte)
	// Len returns the number of buffered ops.
	Len() int
	// Commit applies the batch. The batch must not be reused afterwards.
	Commit() error
}

// HexKey returns prefix followed by n as sixteen lower-case hex digits —
// the spelling of every sequence-numbered key (op/<seq>, block/<num>),
// whose byte order is therefore numeric order.
func HexKey(prefix string, n uint64) []byte {
	const digits = "0123456789abcdef"
	key := make([]byte, len(prefix)+16)
	copy(key, prefix)
	for i := len(key) - 1; i >= len(prefix); i-- {
		key[i] = digits[n&15]
		n >>= 4
	}
	return key
}

// Mem is the in-memory KVStore backend.
type Mem struct {
	mu     sync.RWMutex
	m      map[string][]byte
	closed bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[string][]byte)} }

// Get implements KVStore.
func (s *Mem) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.m[string(key)]
	return bytes.Clone(v), ok, nil
}

// Put implements KVStore.
func (s *Mem) Put(key, value []byte) error { return PutOne(s.Batch(), key, value) }

// Delete implements KVStore.
func (s *Mem) Delete(key []byte) error { return DeleteOne(s.Batch(), key) }

// Iterate implements KVStore.
func (s *Mem) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	ops := SortedOps(s.m, string(prefix))
	s.mu.RUnlock()
	return EachOp(ops, fn)
}

// Batch implements KVStore.
func (s *Mem) Batch() Batch { return NewBatch(s.commit) }

func (s *Mem) commit(ops []Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, op := range ops {
		op.ApplyTo(s.m)
	}
	return nil
}

// Close implements KVStore.
func (s *Mem) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// opBatch is the Batch of every backend: it buffers ops and hands them
// to the backend's commit, which applies them atomically.
type opBatch struct {
	ops    []Op
	commit func([]Op) error
}

// NewBatch returns a Batch that buffers ops for commit. Put copies the
// value, so commit may keep the ops it is handed.
func NewBatch(commit func([]Op) error) Batch { return &opBatch{commit: commit} }

func (b *opBatch) Put(key, value []byte) {
	cp := make([]byte, len(value)) // non-nil even when empty: nil marks a delete
	copy(cp, value)
	b.ops = append(b.ops, Op{Key: string(key), Value: cp})
}

func (b *opBatch) Delete(key []byte) { b.ops = append(b.ops, Op{Key: string(key)}) }

func (b *opBatch) Len() int { return len(b.ops) }

func (b *opBatch) Commit() error {
	if len(b.ops) == 0 {
		return nil
	}
	if err := b.commit(b.ops); err != nil {
		return err
	}
	b.ops = nil
	return nil
}

// PutOne commits a single put through b.
func PutOne(b Batch, key, value []byte) error {
	b.Put(key, value)
	return b.Commit()
}

// DeleteOne commits a single delete through b.
func DeleteOne(b Batch, key []byte) error {
	b.Delete(key)
	return b.Commit()
}

// SortedOps returns the pairs of m whose key starts with prefix, in
// ascending key order. Values alias m; stored values are never mutated
// in place, so the result stays valid after the backend's lock is
// released.
func SortedOps(m map[string][]byte, prefix string) []Op {
	var ops []Op
	if prefix == "" {
		ops = make([]Op, 0, len(m))
	}
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			ops = append(ops, Op{Key: k, Value: v})
		}
	}
	slices.SortFunc(ops, func(a, b Op) int { return strings.Compare(a.Key, b.Key) })
	return ops
}

// EachOp calls fn with a copy of every pair of ops, in order — the tail
// of every backend's Iterate, run without the backend's lock.
func EachOp(ops []Op, fn func(key, value []byte) error) error {
	for _, op := range ops {
		if err := fn([]byte(op.Key), bytes.Clone(op.Value)); err != nil {
			return err
		}
	}
	return nil
}

// Prefixed returns a view of kv that namespaces every key under prefix,
// letting independent subsystems (chain persistence, the service op
// log) share one underlying store without key collisions. Closing the
// view is a no-op; the owner of kv closes it.
func Prefixed(kv KVStore, prefix string) KVStore {
	return &prefixed{kv: kv, prefix: []byte(prefix)}
}

type prefixed struct {
	kv     KVStore
	prefix []byte
}

func (p *prefixed) key(k []byte) []byte {
	out := make([]byte, 0, len(p.prefix)+len(k))
	out = append(out, p.prefix...)
	return append(out, k...)
}

func (p *prefixed) Get(key []byte) ([]byte, bool, error) { return p.kv.Get(p.key(key)) }
func (p *prefixed) Put(key, value []byte) error          { return p.kv.Put(p.key(key), value) }
func (p *prefixed) Delete(key []byte) error              { return p.kv.Delete(p.key(key)) }

func (p *prefixed) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	return p.kv.Iterate(p.key(prefix), func(key, value []byte) error {
		return fn(key[len(p.prefix):], value)
	})
}

func (p *prefixed) Batch() Batch { return &prefixedBatch{p: p, b: p.kv.Batch()} }

func (p *prefixed) Close() error { return nil }

type prefixedBatch struct {
	p *prefixed
	b Batch
}

func (b *prefixedBatch) Put(key, value []byte) { b.b.Put(b.p.key(key), value) }
func (b *prefixedBatch) Delete(key []byte)     { b.b.Delete(b.p.key(key)) }
func (b *prefixedBatch) Len() int              { return b.b.Len() }
func (b *prefixedBatch) Commit() error         { return b.b.Commit() }
