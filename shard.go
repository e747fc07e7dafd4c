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
	"fmt"
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

// lockPair locks the stripes for two addresses in ascending order and
// returns the locked indexes (one entry when they collide).
func (s *Service) lockPair(a, b int) []int {
	if a == b {
		s.lockShard(a)
		return []int{a}
	}
	if b < a {
		a, b = b, a
	}
	s.lockShard(a)
	s.lockShard(b)
	return []int{a, b}
}

func (s *Service) unlockShards(idxs []int) {
	for i := len(idxs) - 1; i >= 0; i-- {
		s.unlockShard(idxs[i])
	}
}

// opIsSharded reports whether an operation kind runs on the sharded
// hot path. Everything else (node registration, on-chain transactions,
// block production, multi-hop routes) takes the exclusive lock.
func opIsSharded(op string) bool {
	switch op {
	case opRegisterSensor, opOpenChannel, opPay, opPayConditional, opClaim,
		opClose, opReopen, opSendSensorData, opDeployContract, opCallContract:
		return true
	}
	return false
}

// lockShardsFor acquires the stripes covering rec's nodes and returns
// their indexes in locked (ascending) order. Resolution failures —
// unknown node, unknown channel, malformed peer — lock conservatively
// and let applyLocked produce the same deterministic error the serial
// path would.
func (s *Service) lockShardsFor(rec *opRecord) []int {
	sn, ok := s.nodes[rec.Node]
	if !ok {
		return nil
	}
	a := s.shardOf(sn.n.Address())
	switch rec.Op {
	case opOpenChannel, opSendSensorData:
		if addr, err := decodeAddr(rec.Peer); err == nil {
			return s.lockPair(a, s.shardOf(addr))
		}
		return s.lockPair(a, a)

	case opPay, opPayConditional, opClaim, opClose, opReopen:
		// The peer sits behind the channel table, which is itself
		// guarded by the node's stripe: lock it, look up, and when the
		// peer's stripe sorts lower re-acquire both in order (see the
		// lock-ordering rules in the package comment above).
		s.lockShard(a)
		cs, ok := sn.n.Channel(rec.Channel)
		if !ok {
			return []int{a}
		}
		p := s.shardOf(cs.Peer)
		if p == a {
			return []int{a}
		}
		if p > a {
			s.lockShard(p)
			return []int{a, p}
		}
		s.unlockShard(a)
		return s.lockPair(a, p)

	default:
		s.lockShard(a)
		return []int{a}
	}
}

// opScope resolves the dispatch scope of one pairwise op: the acting
// node plus its counterparty. It runs with the op's shard locks held
// (or single-threaded during replay), so the lookups are stable.
func (s *Service) opScope(rec *opRecord, sn *ServiceNode) []*ServiceNode {
	scope := []*ServiceNode{sn}
	var peer Address
	switch rec.Op {
	case opOpenChannel, opSendSensorData:
		addr, err := decodeAddr(rec.Peer)
		if err != nil {
			return scope
		}
		peer = addr
	case opPay, opPayConditional, opClaim, opClose, opReopen:
		cs, ok := sn.n.Channel(rec.Channel)
		if !ok {
			return scope
		}
		peer = cs.Peer
	default:
		return scope
	}
	if pn, ok := s.byAddr[peer]; ok && pn != sn {
		scope = append(scope, pn)
	}
	return scope
}

// runSharded executes one pairwise journaled operation under the read
// side of the service lock plus the pair's shard locks.
func (s *Service) runSharded(ctx context.Context, rec *opRecord) (opResult, error) {
	return s.runShardedPrepared(ctx, rec, nil)
}

// runShardedPrepared is runSharded with a pre-journal hook that runs
// under the shard locks — the seam SendSensorData uses to capture its
// nondeterministic sensor readings into the record before it is logged.
func (s *Service) runShardedPrepared(ctx context.Context, rec *opRecord, prepare func() error) (opResult, error) {
	var res opResult
	if err := ctx.Err(); err != nil {
		return res, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.isClosed() {
		return res, ErrServiceClosed
	}
	idxs := s.lockShardsFor(rec)
	defer s.unlockShards(idxs)
	if prepare != nil {
		if err := prepare(); err != nil {
			return res, err
		}
	}
	if err := s.logOp(rec); err != nil {
		return res, err
	}
	var err error
	res, err = s.applyLocked(rec)
	if serr := s.sys.Chain.StoreErr(); serr != nil {
		return res, fmt.Errorf("tinyevm: persistence failed: %w", serr)
	}
	return res, err
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
	if s.isClosed() {
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
