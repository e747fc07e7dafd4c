// Package cluster binds the pieces of the multi-node sidechain
// together: a chain, a consensus engine, a node key and a p2p transport
// become one validator. The node gossips locally sealed blocks, applies
// gossiped blocks verify-before-apply (the expected block hash is
// computed from the header and transaction list before anything
// executes, so a bad block is rejected without rollback), and catches a
// fresh or lagging replica up through headers-then-blocks state sync.
//
// Determinism contract: every validator starts from the same genesis
// state, block templates are pure functions of the parent (timestamp =
// parent + chain.BlockInterval), and transactions execute serially in
// block order — so applying the same block list yields byte-identical
// head hashes, and (when every sender is funded identically) identical
// state digests, on every node.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tinyevm/internal/chain"
	"tinyevm/internal/consensus"
	"tinyevm/internal/p2p"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/store"
	"tinyevm/internal/txpool"
	"tinyevm/internal/types"
)

// Errors surfaced by block verification and cluster operations.
var (
	// ErrBadBlock marks a gossiped block that fails structural or
	// signature verification.
	ErrBadBlock = errors.New("cluster: invalid block")
	// ErrStaleBlock marks a block at or below the local head (ignored).
	ErrStaleBlock = errors.New("cluster: stale block")
	// ErrFutureBlock marks a block more than one ahead of the local
	// head; it is parked and state sync is triggered.
	ErrFutureBlock = errors.New("cluster: block ahead of local head")
	// ErrDiverged marks a strict-mode replica whose execution of a
	// verified block disagreed with the proposer (gas or state digest).
	// It is fatal for the node: continuing would fork silently.
	ErrDiverged = errors.New("cluster: execution diverged from proposer")
)

// archiveKey formats the block-archive key for a height; %016x keeps
// lexicographic order equal to numeric order.
func archiveKey(n uint64) []byte { return []byte(fmt.Sprintf("blk/%016x", n)) }

// Config assembles a cluster node.
type Config struct {
	// Chain is the local replica; required.
	Chain *chain.Chain
	// Engine is the consensus policy; required.
	Engine consensus.Engine
	// Key is the node identity; its address must be in the validator
	// set for this node to propose. Required.
	Key *secp256k1.PrivateKey
	// Transport carries cluster traffic; required.
	Transport p2p.Transport
	// Listen is the local p2p bind address ("" = outbound only).
	Listen string
	// Peers are the addresses of the other validators.
	Peers []string
	// Lock guards Chain. The service layer passes its own mutex so
	// cluster goroutines and service operations serialize; nil gets a
	// private mutex (library/test use).
	Lock sync.Locker
	// Store persists the block archive for crash restart; nil keeps the
	// archive in memory only (a restarted node then state-syncs from
	// scratch, which is exactly what the empty-data-dir path exercises).
	Store store.KVStore
	// StrictDigests enforces byte-identical execution: applied blocks
	// must reproduce the proposer's GasUsed and post-state digest.
	// Requires identical genesis funding on every node.
	StrictDigests bool
	// BlockInterval enables the heartbeat auto-miner: when this node is
	// the scheduled leader it seals a block (possibly empty) this often.
	// Zero disables auto-mining (tests drive production explicitly).
	BlockInterval time.Duration
	// FallbackAfter is how long past the expected production time a
	// round must be before the next validator in schedule order may
	// step in. Zero = strict single leader (no liveness fallback).
	FallbackAfter time.Duration
	// Logf receives diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// Node is one cluster validator.
type Node struct {
	cfg    Config
	logf   func(string, ...any)
	self   types.Address
	lock   sync.Locker
	p2p    *p2p.Node
	pool   *txpool.Pool
	blocks *txpool.BlockPool

	// mu guards the fields below (cluster-internal bookkeeping; never
	// held together with lock acquisition — always lock then mu).
	mu       sync.Mutex
	entries  map[uint64]*p2p.BlockMsg // block archive (gossip bodies)
	pending  map[types.Hash]*chain.Transaction
	lastSeal time.Time
	closed   bool

	// applying marks an in-progress verify-and-apply so the seal hook
	// archives the peer's block instead of signing and gossiping a new
	// one. Guarded by lock (all sealing happens under it).
	applying *p2p.BlockMsg

	syncing  atomic.Bool
	diverged atomic.Bool

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// New assembles a node. Start brings the network up.
func New(cfg Config) (*Node, error) {
	if cfg.Chain == nil || cfg.Engine == nil || cfg.Key == nil || cfg.Transport == nil {
		return nil, errors.New("cluster: Chain, Engine, Key and Transport are required")
	}
	lock := cfg.Lock
	if lock == nil {
		lock = &sync.Mutex{}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	n := &Node{
		cfg:     cfg,
		logf:    logf,
		self:    cfg.Key.Address(),
		lock:    lock,
		pool:    txpool.NewPool(0),
		blocks:  txpool.NewBlockPool(0),
		entries: make(map[uint64]*p2p.BlockMsg),
		pending: make(map[types.Hash]*chain.Transaction),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	n.lastSeal = time.Time{} // set at Start
	pn, err := p2p.NewNode(p2p.Config{
		Transport: cfg.Transport,
		Listen:    cfg.Listen,
		Peers:     cfg.Peers,
		Genesis:   cfg.Chain.GenesisHash(),
		Handler:   (*handler)(n),
		Logf:      logf,
	})
	if err != nil {
		return nil, err
	}
	n.p2p = pn
	// Point block production at this validator's address and hook every
	// seal (local production AND applied gossip) for archive/gossip.
	cfg.Chain.SetCoinbase(n.self)
	cfg.Chain.OnSeal(n.onSeal)
	return n, nil
}

// Start restores the local archive, brings up the p2p endpoint, and —
// when peers are configured — enters the syncing state until one full
// catch-up round has completed. The heartbeat auto-miner (if enabled)
// holds off while syncing, so a restarted node cannot fork by proposing
// from a stale head.
func (n *Node) Start() error {
	n.mu.Lock()
	n.lastSeal = time.Now()
	n.mu.Unlock()
	if err := n.restore(); err != nil {
		return err
	}
	if len(n.cfg.Peers) > 0 {
		n.syncing.Store(true)
	}
	if err := n.p2p.Start(); err != nil {
		return err
	}
	if len(n.cfg.Peers) > 0 {
		n.wg.Add(1)
		go n.syncLoop()
	}
	if n.cfg.BlockInterval > 0 {
		n.wg.Add(1)
		go n.mineLoop()
	}
	return nil
}

// Close stops the goroutines and the p2p endpoint.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	err := n.p2p.Close()
	n.wg.Wait()
	return err
}

// --- status --------------------------------------------------------------

// Status is a point-in-time view of the node, served over RPC as
// tinyevm_nodeStatus.
type Status struct {
	Height    uint64
	Head      types.Hash
	Peers     int
	Role      string // "leader" | "follower" | "syncing" | "diverged"
	Validator types.Address
	Leader    types.Address // scheduled leader for the next height
	Pool      int
}

// StatusLocked reports node status; callers hold the chain lock.
func (n *Node) StatusLocked() Status {
	head := n.cfg.Chain.Head()
	next := head.Number + 1
	st := Status{
		Height:    head.Number,
		Head:      head.Hash,
		Peers:     n.p2p.PeerCount(),
		Validator: n.self,
		Leader:    n.cfg.Engine.LeaderAt(next),
		Pool:      n.pool.Len(),
	}
	switch {
	case n.diverged.Load():
		st.Role = "diverged"
	case n.syncing.Load():
		st.Role = "syncing"
	case st.Leader == n.self:
		st.Role = "leader"
	default:
		st.Role = "follower"
	}
	return st
}

// --- proposing -----------------------------------------------------------

// overdueRounds translates time since the last seal into consensus
// schedule slots for the fallback ladder.
func (n *Node) overdueRounds() uint64 {
	if n.cfg.FallbackAfter <= 0 {
		return 0
	}
	n.mu.Lock()
	last := n.lastSeal
	n.mu.Unlock()
	elapsed := time.Since(last)
	if elapsed <= n.cfg.FallbackAfter {
		return 0
	}
	return uint64(elapsed / n.cfg.FallbackAfter)
}

// CheckProposerLocked reports whether this node may seal the next block
// right now (consensus schedule + sync state). Callers hold the chain
// lock. The service layer gates every on-chain operation on it so
// follower daemons reject with a typed not-leader error instead of
// forking.
func (n *Node) CheckProposerLocked() error {
	if n.diverged.Load() {
		return ErrDiverged
	}
	if n.syncing.Load() {
		return fmt.Errorf("%w: node is syncing", consensus.ErrNotLeader)
	}
	next := n.cfg.Chain.Head().Number + 1
	return n.cfg.Engine.Propose(next, n.self, n.overdueRounds())
}

// ProduceBlockLocked drains the gossip tx pool into the chain mempool
// and seals one block. Callers hold the chain lock and have passed
// CheckProposerLocked.
func (n *Node) ProduceBlockLocked() []*chain.Receipt {
	for _, tx := range n.pool.TakeAll() {
		n.registerBody(tx)
		if err := n.cfg.Chain.Submit(tx); err != nil {
			n.logf("cluster: pooled tx rejected: %v", err)
		}
	}
	return n.cfg.Chain.MineBlock()
}

// RegisterBodyLocked records a transaction body about to enter the
// chain mempool, so the seal hook can reconstruct full block bodies for
// gossip and archive. Callers hold the chain lock. Every cluster-mode
// submission path must pass through here (or ProduceBlockLocked, which
// does).
func (n *Node) RegisterBodyLocked(tx *chain.Transaction) { n.registerBody(tx) }

func (n *Node) registerBody(tx *chain.Transaction) {
	n.mu.Lock()
	n.pending[tx.Hash()] = tx
	n.mu.Unlock()
}

// --- sealing -------------------------------------------------------------

// onSeal runs (under the chain lock) after every sealed block. For a
// locally produced block it assembles the full body from the pending
// registry, signs the hash, archives and gossips. For a block being
// applied from a peer it archives the peer's message as-is (original
// proposer signature preserved for future syncers).
func (n *Node) onSeal(b *chain.Block, receipts []*chain.Receipt) {
	n.mu.Lock()
	n.lastSeal = time.Now()
	n.mu.Unlock()

	if msg := n.applying; msg != nil {
		n.archive(msg)
		return
	}

	msg, err := n.buildBlockMsg(b)
	if err != nil {
		// A block we cannot reconstruct bodies for cannot be gossiped or
		// served to syncing peers; peers will reject the gap loudly.
		n.logf("cluster: ERROR sealed block %d not gossipable: %v", b.Number, err)
		return
	}
	n.archive(msg)
	n.p2p.BroadcastBlock(msg)
	n.cfg.Engine.Finalize(b)
}

// buildBlockMsg assembles the wire form of a locally sealed block: full
// transaction bodies from the pending registry plus this node's
// signature over the block hash.
func (n *Node) buildBlockMsg(b *chain.Block) (*p2p.BlockMsg, error) {
	n.mu.Lock()
	txs := make([]*chain.Transaction, 0, len(b.TxHashes))
	var missing *types.Hash
	for _, h := range b.TxHashes {
		tx, ok := n.pending[h]
		if !ok {
			hh := h
			missing = &hh
			break
		}
		txs = append(txs, tx)
	}
	for _, h := range b.TxHashes {
		delete(n.pending, h)
	}
	n.mu.Unlock()
	if missing != nil {
		return nil, fmt.Errorf("transaction body %s not registered", *missing)
	}

	sig, err := n.cfg.Key.Sign(b.Hash)
	if err != nil {
		return nil, fmt.Errorf("sign block: %w", err)
	}
	return &p2p.BlockMsg{
		Header:      headerOf(b),
		Txs:         txs,
		Sig:         sig.Serialize(),
		StateDigest: n.cfg.Chain.State().Digest(),
	}, nil
}

func headerOf(b *chain.Block) p2p.Header {
	return p2p.Header{
		Number:     b.Number,
		ParentHash: b.ParentHash,
		Hash:       b.Hash,
		Timestamp:  b.Timestamp,
		Coinbase:   b.Coinbase,
		GasUsed:    b.GasUsed,
		TxHashes:   append([]types.Hash(nil), b.TxHashes...),
	}
}

// archive records a block message in memory (serving state sync) and,
// when a store is configured, persists it for restart.
func (n *Node) archive(msg *p2p.BlockMsg) {
	n.mu.Lock()
	n.entries[msg.Header.Number] = msg
	n.mu.Unlock()
	if n.cfg.Store != nil {
		if err := n.cfg.Store.Put(archiveKey(msg.Header.Number), p2p.Encode(msg)); err != nil {
			n.logf("cluster: archive block %d: %v", msg.Header.Number, err)
		}
	}
}

// restore replays the persisted archive through the regular
// verify-and-apply path. An empty (or absent) store is not an error —
// the node will catch up over the network instead.
func (n *Node) restore() error {
	if n.cfg.Store == nil {
		return nil
	}
	byNo := make(map[uint64]*p2p.BlockMsg)
	var max uint64
	err := n.cfg.Store.Iterate([]byte("blk/"), func(key, value []byte) error {
		m, err := p2p.Decode(value)
		if err != nil {
			return fmt.Errorf("archive entry %q: %w", key, err)
		}
		b, ok := m.(*p2p.BlockMsg)
		if !ok {
			return fmt.Errorf("archive entry %q: not a block", key)
		}
		byNo[b.Header.Number] = b
		if b.Header.Number > max {
			max = b.Header.Number
		}
		return nil
	})
	if err != nil {
		return err
	}
	n.lock.Lock()
	defer n.lock.Unlock()
	for h := n.cfg.Chain.Head().Number + 1; h <= max; h++ {
		b, ok := byNo[h]
		if !ok {
			return fmt.Errorf("%w: archive gap at height %d", ErrBadBlock, h)
		}
		if err := n.verifyAndApplyLocked(b); err != nil {
			return fmt.Errorf("archive replay at height %d: %w", h, err)
		}
	}
	if max > 0 {
		n.logf("cluster: restored %d archived blocks, head %d", max, n.cfg.Chain.Head().Number)
	}
	return nil
}

// --- verify and apply ----------------------------------------------------

// verifyAndApplyLocked is the follower path: verify a gossiped block
// completely — structure, hash identity, proposer signature, consensus
// schedule, parent linkage — and only then execute it onto the chain.
// Callers hold the chain lock.
func (n *Node) verifyAndApplyLocked(msg *p2p.BlockMsg) error {
	hdr := &msg.Header
	head := n.cfg.Chain.Head()

	switch {
	case hdr.Number <= head.Number:
		return fmt.Errorf("%w: height %d at head %d", ErrStaleBlock, hdr.Number, head.Number)
	case hdr.Number > head.Number+1:
		return fmt.Errorf("%w: height %d at head %d", ErrFutureBlock, hdr.Number, head.Number)
	}

	// Structure: the header's tx hashes must be exactly the bodies'.
	if len(msg.Txs) != len(hdr.TxHashes) {
		return fmt.Errorf("%w: %d bodies for %d tx hashes", ErrBadBlock, len(msg.Txs), len(hdr.TxHashes))
	}
	for i, tx := range msg.Txs {
		if tx.Hash() != hdr.TxHashes[i] {
			return fmt.Errorf("%w: tx %d hash mismatch", ErrBadBlock, i)
		}
		if _, err := tx.Sender(); err != nil {
			return fmt.Errorf("%w: tx %d sender: %v", ErrBadBlock, i, err)
		}
	}

	// Hash identity: recompute the block hash from the announced fields.
	// Everything the hash covers is now pinned before execution.
	expect := chain.ComputeBlockHash(&chain.Block{
		Number:     hdr.Number,
		ParentHash: hdr.ParentHash,
		Timestamp:  hdr.Timestamp,
		Coinbase:   hdr.Coinbase,
		TxHashes:   hdr.TxHashes,
	})
	if expect != hdr.Hash {
		return fmt.Errorf("%w: announced hash %s, computed %s", ErrBadBlock, hdr.Hash, expect)
	}

	// Proposer signature over the (now verified) hash.
	sig, err := secp256k1.ParseSignature(msg.Sig)
	if err != nil {
		return fmt.Errorf("%w: signature: %v", ErrBadBlock, err)
	}
	signer, err := secp256k1.RecoverAddress(hdr.Hash, sig)
	if err != nil {
		return fmt.Errorf("%w: signature recovery: %v", ErrBadBlock, err)
	}
	if signer != hdr.Coinbase {
		return fmt.Errorf("%w: signed by %s, coinbase %s", ErrBadBlock, signer, hdr.Coinbase)
	}

	// Consensus schedule. Remote timing is unknowable, so verification
	// admits the full fallback ladder the engine allows.
	if err := n.cfg.Engine.Verify(hdr.Number, hdr.Coinbase, ^uint64(0)); err != nil {
		return err
	}

	// Deterministic linkage to our head.
	if hdr.ParentHash != head.Hash {
		return fmt.Errorf("%w: parent %s, local head %s", ErrBadBlock, hdr.ParentHash, head.Hash)
	}
	if hdr.Timestamp != head.Timestamp+chain.BlockInterval {
		return fmt.Errorf("%w: timestamp %d, want %d", ErrBadBlock, hdr.Timestamp, head.Timestamp+chain.BlockInterval)
	}

	// Apply: rebuild the exact template the proposer sealed and execute
	// the body serially. SealBlock recomputes the hash from scratch, so
	// the applied head hash is guaranteed byte-identical to hdr.Hash.
	template := &chain.Block{
		Number:     hdr.Number,
		ParentHash: hdr.ParentHash,
		Timestamp:  hdr.Timestamp,
		Coinbase:   hdr.Coinbase,
	}
	n.applying = msg
	n.cfg.Chain.ApplyTemplate(template, msg.Txs)
	n.applying = nil

	if template.Hash != hdr.Hash {
		// Unreachable if the pre-checks above are complete; fatal if not.
		n.diverged.Store(true)
		return fmt.Errorf("%w: applied hash %s != announced %s", ErrDiverged, template.Hash, hdr.Hash)
	}
	if n.cfg.StrictDigests {
		if template.GasUsed != hdr.GasUsed {
			n.diverged.Store(true)
			return fmt.Errorf("%w: gas used %d != proposer's %d", ErrDiverged, template.GasUsed, hdr.GasUsed)
		}
		if digest := n.cfg.Chain.State().Digest(); digest != msg.StateDigest {
			n.diverged.Store(true)
			return fmt.Errorf("%w: state digest %s != proposer's %s", ErrDiverged, digest, msg.StateDigest)
		}
	}

	n.pool.Remove(msg.Txs)
	n.blocks.PruneBelow(hdr.Number + 1)
	n.cfg.Engine.Finalize(template)
	return nil
}

// applyChainLocked applies msg and then drains any parked successors.
func (n *Node) applyChainLocked(msg *p2p.BlockMsg) error {
	if err := n.verifyAndApplyLocked(msg); err != nil {
		return err
	}
	for {
		next := n.blocks.Pop(n.cfg.Chain.Head().Number + 1)
		if next == nil {
			return nil
		}
		if err := n.verifyAndApplyLocked(next); err != nil {
			n.logf("cluster: parked block %d rejected: %v", next.Header.Number, err)
			return nil
		}
	}
}

// --- gossip handler ------------------------------------------------------

// handler adapts Node to p2p.Handler. Its methods run on p2p reader
// goroutines and take the chain lock themselves.
type handler Node

func (h *handler) HandleTx(tx *chain.Transaction, from string) bool {
	n := (*Node)(h)
	if _, err := tx.Sender(); err != nil {
		n.logf("cluster: gossiped tx from %s unsigned: %v", from, err)
		return false
	}
	n.lock.Lock()
	fresh := n.pool.Add(tx)
	n.lock.Unlock()
	return fresh
}

func (h *handler) HandleBlock(msg *p2p.BlockMsg, from string) bool {
	n := (*Node)(h)
	n.lock.Lock()
	err := n.applyChainLocked(msg)
	n.lock.Unlock()
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrStaleBlock):
		return false
	case errors.Is(err, ErrFutureBlock):
		n.blocks.Add(msg)
		n.kickSync()
		// Relay: a block we cannot place yet may still be fresh news for
		// peers that are further along.
		return true
	default:
		n.logf("cluster: block %d from %s rejected: %v", msg.Header.Number, from, err)
		return false
	}
}

func (h *handler) ServeHeaders(from, count uint64) []p2p.Header {
	n := (*Node)(h)
	n.lock.Lock()
	defer n.lock.Unlock()
	out := make([]p2p.Header, 0, count)
	head := n.cfg.Chain.Head().Number
	for no := from; no <= head && uint64(len(out)) < count; no++ {
		b, err := n.cfg.Chain.BlockByNumber(no)
		if err != nil {
			break
		}
		out = append(out, headerOf(b))
	}
	return out
}

func (h *handler) ServeBlocks(from, count uint64) []*p2p.BlockMsg {
	n := (*Node)(h)
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*p2p.BlockMsg, 0, count)
	for no := from; uint64(len(out)) < count; no++ {
		b, ok := n.entries[no]
		if !ok {
			break
		}
		out = append(out, b)
	}
	return out
}

func (h *handler) Status() (uint64, types.Hash) {
	n := (*Node)(h)
	n.lock.Lock()
	defer n.lock.Unlock()
	head := n.cfg.Chain.Head()
	return head.Number, head.Hash
}

// --- state sync ----------------------------------------------------------

// kickSync nudges the sync loop (non-blocking).
func (n *Node) kickSync() {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// syncLoop runs one catch-up round at startup, then again whenever a
// future block arrives (a gap signal) or periodically as a safety net.
func (n *Node) syncLoop() {
	defer n.wg.Done()
	// Initial round: retry until we have either caught up with a
	// reachable peer or confirmed nobody is ahead.
	for !n.syncRound() {
		select {
		case <-n.stop:
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
	n.syncing.Store(false)
	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-n.kick:
			n.syncRound()
		case <-ticker.C:
			n.syncRound()
		}
	}
}

// syncRound polls every configured peer and replays whatever they have
// above our head. It reports whether at least one peer answered (the
// startup round keeps retrying until one does, unless we have no peers).
func (n *Node) syncRound() bool {
	answered := false
	for _, peerAddr := range n.cfg.Peers {
		if n.syncFromPeer(peerAddr) {
			answered = true
		}
	}
	return answered || len(n.cfg.Peers) == 0
}

// syncFromPeer catches up from one peer: headers first (cheap linkage
// validation against the announced chain), then block bodies in batches
// through the exact same verify-and-apply path gossip uses.
func (n *Node) syncFromPeer(addr string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		n.lock.Lock()
		next := n.cfg.Chain.Head().Number + 1
		n.lock.Unlock()

		resp, hello, err := n.p2p.Request(ctx, addr, &p2p.GetHeaders{From: next, Count: p2p.MaxHeaders})
		if err != nil {
			return false
		}
		hs, ok := resp.(*p2p.Headers)
		if !ok {
			n.logf("cluster: sync %s: unexpected %T to GetHeaders", addr, resp)
			return false
		}
		if hello.Height < next || len(hs.Headers) == 0 {
			return true // peer has nothing above us
		}
		// Validate linkage and hash identity of the announced chain
		// before fetching a single body.
		for i, h := range hs.Headers {
			if h.Number != next+uint64(i) {
				n.logf("cluster: sync %s: non-consecutive headers", addr)
				return false
			}
			computed := chain.ComputeBlockHash(&chain.Block{
				Number:     h.Number,
				ParentHash: h.ParentHash,
				Timestamp:  h.Timestamp,
				Coinbase:   h.Coinbase,
				TxHashes:   h.TxHashes,
			})
			if computed != h.Hash {
				n.logf("cluster: sync %s: header %d hash mismatch", addr, h.Number)
				return false
			}
			if i > 0 && h.ParentHash != hs.Headers[i-1].Hash {
				n.logf("cluster: sync %s: broken parent linkage at %d", addr, h.Number)
				return false
			}
		}

		want := hs.Headers
		for len(want) > 0 {
			batch := uint64(len(want))
			if batch > p2p.MaxBlocks {
				batch = p2p.MaxBlocks
			}
			resp, _, err := n.p2p.Request(ctx, addr, &p2p.GetBlocks{From: want[0].Number, Count: batch})
			if err != nil {
				return false
			}
			bs, ok := resp.(*p2p.Blocks)
			if !ok || len(bs.Blocks) == 0 {
				return false
			}
			for _, b := range bs.Blocks {
				idx := int(b.Header.Number - want[0].Number)
				if idx < 0 || idx >= len(want) || b.Header.Hash != want[idx].Hash {
					n.logf("cluster: sync %s: body does not match announced header", addr)
					return false
				}
				n.lock.Lock()
				err := n.verifyAndApplyLocked(b)
				n.lock.Unlock()
				if err != nil {
					if !errors.Is(err, ErrStaleBlock) {
						n.logf("cluster: sync %s: block %d rejected: %v", addr, b.Header.Number, err)
						return false
					}
				}
			}
			want = want[len(bs.Blocks):]
		}
	}
}

// --- heartbeat mining ----------------------------------------------------

// mineLoop seals a block every BlockInterval while this node is the
// (possibly fallback) scheduled proposer and not syncing. Empty blocks
// are intentional: they advance simulated time, which drives channel
// timeouts and challenge periods.
func (n *Node) mineLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.BlockInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			if n.syncing.Load() || n.diverged.Load() {
				continue
			}
			n.lock.Lock()
			if err := n.CheckProposerLocked(); err == nil {
				n.ProduceBlockLocked()
			}
			n.lock.Unlock()
		}
	}
}
