package tinyevm

// The sharded hot path. Payment channels are pairwise-independent:
// open/pay/claim/close between one node pair touches only that pair's
// devices, radios and channel tables, so operations on distinct pairs
// never need to see each other. The service exploits that by striping
// its state into N shard locks keyed by device address; a pairwise
// operation holds the global lock in read mode plus the (one or two)
// stripes covering its nodes, and everything else — validation,
// signatures, radio delivery — runs entirely off the global lock.
//
// Lock ordering (deadlock freedom and journal linearizability):
//
//  1. s.mu — read mode for pairwise ops, write mode for global ops.
//     A write holder excludes every sharded op, so global operations
//     (AddNode, on-chain txs, block production, routes, Close) observe
//     a fully quiesced service and never touch the stripes.
//  2. shard locks — always acquired in ascending stripe order. When a
//     channel op discovers (under its own stripe) that the peer's
//     stripe sorts lower, it releases and re-acquires both ascending;
//     channels are never deleted and a channel's peer never changes,
//     so the second lookup under the final locks is authoritative.
//  3. s.logMu — the sequencer lock, taken last, only around sequence
//     assignment and the intent-log append.
//
// Why replay stays byte-identical: the journal sequence is assigned
// while every shard lock of the op is held, so any two operations that
// share a node (and therefore a stripe) are journaled in exactly their
// execution order, and operations sharing no node commute — all the
// state they touch (parties, channel tables, device clocks, energy
// meters, radio inboxes) is per-node. Single-threaded replay in
// sequence order is therefore a linearization of the concurrent run,
// and the chain's per-block byte comparison plus VerifyStoreHead keep
// that honest on every recovery. Radio loss is per-node state too: each
// sender draws from its own seeded stream (radio.Endpoint), so a lossy
// deployment shards like a loss-free one.

import (
	"context"
	"sync"
	"sync/atomic"
)

// DefaultShards is the default stripe count of the pairwise hot path.
const DefaultShards = 32

// serviceShard is one lock stripe. pending counts the pairwise ops
// queued on or holding the stripe (stats only).
type serviceShard struct {
	mu      sync.Mutex
	pending atomic.Int64
	// Pad to a cache line so adjacent stripes do not false-share under
	// contention (64B line; mutex 8B + atomic 8B).
	_ [48]byte
}

// shardCount resolves the configured stripe count.
func shardCount(cfg serviceConfig) int {
	n := cfg.shards
	if n == 0 {
		n = DefaultShards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// shardIndex maps a device address onto one of n stripes (FNV-1a over
// the address bytes). The assignment is a pure function of (addr, n) —
// stable across processes and runs, which FuzzShardKey pins.
func shardIndex(addr Address, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range addr {
		h ^= uint32(b)
		h *= prime32
	}
	return int(h % uint32(n))
}

func (s *Service) shardOf(addr Address) int { return shardIndex(addr, len(s.shards)) }

func (s *Service) lockShard(i int) {
	sh := &s.shards[i]
	sh.pending.Add(1)
	sh.mu.Lock()
}

func (s *Service) unlockShard(i int) {
	sh := &s.shards[i]
	sh.mu.Unlock()
	sh.pending.Add(-1)
}

// lockStripes acquires the stripes an operation's scope covers — the
// acting node's, plus the counterparty's for a pairwise op — and returns
// them in locked (ascending) order, -1 for "none". The counterparty may
// sit behind the channel table, which the node's own stripe guards: lock
// that, look up, and when the peer's stripe sorts lower release and
// re-acquire both in order (rule 2 above). An unknown node locks
// nothing and an unknown channel only the node's stripe; apply then
// fails with the same deterministic error a serial run would.
func (s *Service) lockStripes(def *opDef, rec *opRecord) (lo, hi int) {
	sn, ok := s.nodes[rec.Node]
	if !ok {
		return -1, -1
	}
	a := s.shardOf(sn.n.Address())
	s.lockShard(a)
	peer, ok := peerOf(def.scope, rec, sn)
	if !ok {
		return a, -1
	}
	p := s.shardOf(peer)
	switch {
	case p == a:
		return a, -1
	case p > a:
		s.lockShard(p)
		return a, p
	}
	s.unlockShard(a)
	s.lockShard(p)
	s.lockShard(a)
	return p, a
}

func (s *Service) unlockStripes(lo, hi int) {
	if hi >= 0 {
		s.unlockShard(hi)
	}
	if lo >= 0 {
		s.unlockShard(lo)
	}
}

// shardPending snapshots the per-stripe pending-op counters.
func (s *Service) shardPending() []int {
	out := make([]int, len(s.shards))
	for i := range s.shards {
		out[i] = int(s.shards[i].pending.Load())
	}
	return out
}

// ServiceStats is a point-in-time view of the sharded hot path and the
// persistence pipeline, exposed over RPC as tinyevm_serviceStats.
type ServiceStats struct {
	// Shards is the configured stripe count.
	Shards int
	// ShardPending counts, per stripe, the pairwise ops currently
	// queued on or holding that stripe's lock.
	ShardPending []int
	// PipelineDepth is the number of sealed blocks whose WAL commit is
	// still queued behind the persistence pipeline (0 without a store).
	PipelineDepth int
	// Ops is the next journal sequence number — the count of journaled
	// operations so far (0 without a store).
	Ops uint64
	// Nodes is the registered node count.
	Nodes int
}

// ServiceStats returns hot-path statistics. It takes only the read
// lock, so it can be polled under full load.
func (s *Service) ServiceStats(ctx context.Context) (ServiceStats, error) {
	var st ServiceStats
	if err := ctx.Err(); err != nil {
		return st, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return st, ErrServiceClosed
	}
	st.Shards = len(s.shards)
	st.ShardPending = s.shardPending()
	st.PipelineDepth = s.sys.Chain.PipelineDepth()
	st.Nodes = len(s.order)
	s.logMu.Lock()
	st.Ops = s.opSeq
	s.logMu.Unlock()
	return st, nil
}
