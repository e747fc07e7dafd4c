package tinyevm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tinyevm/internal/chain"
	"tinyevm/internal/cluster"
	"tinyevm/internal/protocol"
	"tinyevm/internal/store"
)

// Service errors.
var (
	// ErrServiceClosed is returned by every operation after Close.
	ErrServiceClosed = errors.New("tinyevm: service closed")
	// ErrStoreFormat is returned by NewService for a store whose format
	// this build does not open (only its own and the one before it);
	// the store is left as it was.
	ErrStoreFormat = errors.New("tinyevm: unsupported store format")
	// ErrUnknownNode is returned when a node name is not registered.
	ErrUnknownNode = errors.New("tinyevm: unknown node")
	// ErrIncompleteClose is returned by Close when the counterparty did
	// not produce a valid countersignature.
	ErrIncompleteClose = errors.New("tinyevm: close handshake incomplete")
	// ErrDeliveryFailed is returned (wrapping the counterparty's
	// rejection) when an operation was applied on the local node but the
	// automatically dispatched wire message failed on the remote side:
	// the local channel state HAS advanced. errors.Is matches both
	// ErrDeliveryFailed and the underlying cause; the operation's result
	// (e.g. the signed payment) is returned alongside the error.
	ErrDeliveryFailed = errors.New("tinyevm: delivered locally, rejected by counterparty")
)

// chainPrefix is the chain archive's namespace in the service's store.
const chainPrefix = "chain/"

// Option configures a Service (functional options).
type Option func(*serviceConfig)

type serviceConfig struct {
	system       Config
	fundsSet     bool
	shards       int
	kv           store.KVStore
	dataDir      string
	backend      string
	ckptInterval uint64
	mstCommit    bool
	cluster      *ClusterConfig
}

// WithChallengePeriod sets the on-chain template's challenge window in
// blocks.
func WithChallengePeriod(blocks uint64) Option {
	return func(c *serviceConfig) { c.system.ChallengePeriod = blocks }
}

// WithRadioSeed fixes the TSCH loss process for reproducible runs.
func WithRadioSeed(seed int64) Option {
	return func(c *serviceConfig) { c.system.RadioSeed = seed }
}

// WithRadioLossRate injects independent per-frame radio loss.
func WithRadioLossRate(rate float64) Option {
	return func(c *serviceConfig) { c.system.RadioLossRate = rate }
}

// WithFunds sets the initial chain balances of the provider and of each
// subsequently added node. A store records the funds its deployment was
// created with: reopening it without WithFunds uses those, and with
// different ones is refused.
func WithFunds(provider, node uint64) Option {
	return func(c *serviceConfig) {
		c.system.ProviderFunds = provider
		c.system.NodeFunds = node
		c.fundsSet = true
	}
}

// WithStore makes the deployment durable over the given key-value
// store: every sealed block's record is committed at its seal, every
// state-changing operation is journaled, and
// NewService recovers the previous deployment by replaying the journal
// (see the package documentation in oplog.go for the replay contract).
// The caller owns kv and closes it after the service.
//
// The store must be dedicated to one deployment (same provider name and
// options); recovery fails, rather than forking history, when the
// replayed chain diverges from the persisted blocks.
func WithStore(kv store.KVStore) Option {
	return func(c *serviceConfig) { c.kv = kv }
}

// WithDataDir is WithStore over a service-owned store under dir
// (created as needed): the write-ahead log at <dir>/tinyevm.wal by
// default, or the embedded disk backend under <dir>/store with
// WithStoreBackend("disk"). The service closes it on Close. WithStore,
// when also given, wins.
func WithDataDir(dir string) Option {
	return func(c *serviceConfig) { c.dataDir = dir }
}

// WithStoreBackend selects the WithDataDir storage engine: "wal" (the
// default single-file write-ahead log, rewritten on open) or "disk"
// (the embedded memtable + sorted-segment store with background
// compaction; see internal/store/disk). It has no effect with an
// explicit WithStore.
func WithStoreBackend(kind string) Option {
	return func(c *serviceConfig) { c.backend = kind }
}

// WithCheckpointInterval makes a durable deployment write a full state
// checkpoint every n sealed blocks: recovery then restores the latest
// checkpoint and replays only the operation tail journaled after it,
// bounding restart time by checkpoint distance instead of deployment
// lifetime. The folded-in prefix of the operation log is pruned
// atomically with each checkpoint. 0 (the default) disables
// checkpointing — recovery replays the whole log.
//
// Cluster mode takes no store (WithCluster), so it never checkpoints.
func WithCheckpointInterval(n uint64) Option {
	return func(c *serviceConfig) { c.ckptInterval = n }
}

// WithMSTCommitment switches the chain's per-block state commitment
// from the legacy O(n) full-state digest to an incremental
// Merkle-sum-tree root updated in O(log n) per touched account. Blocks
// hash identically either way; only the persisted state commitment
// differs, and a store written in one mode refuses to open in the
// other. The MST mode additionally serves light-client account proofs
// (Service.StateProof, tinyevm_stateProof).
func WithMSTCommitment(on bool) Option {
	return func(c *serviceConfig) { c.mstCommit = on }
}

// Service is the concurrency-safe façade over a TinyEVM deployment.
// Every operation takes a context.Context and may be called from many
// goroutines.
//
// Concurrency model: service state is lock-striped by device address.
// Channel operations between distinct node pairs (open, pay, claim,
// close — including all payment validation and signature checking) run
// concurrently under their pair's shard locks; only operations that
// touch global state (AddNode, on-chain transactions, block production,
// multi-hop routes) take the exclusive service lock. The intent log has
// its own narrow sequencer lock, taken after the shard locks, so the
// journal order is always a valid linearization of the concurrent
// execution — replaying it single-threaded reproduces the deployment
// byte-for-byte. See shard.go for the lock-ordering rules.
//
// Unlike the lockstep façade (NewSystem), the service
// dispatches incoming wire messages automatically: a Pay on one node is
// verified, registered and observable on the counterparty — via
// Subscribe event streams — without any manual ReceivePayment call.
type Service struct {
	// mu is the global service lock. Sharded (pairwise) operations hold
	// it in read mode for their whole duration; global operations —
	// AddNode, on-chain ops, MineBlock, routes, Close, snapshots — hold
	// it in write mode, which excludes every sharded operation.
	mu  sync.RWMutex
	sys *System

	// shards stripe the pairwise hot path by device address; see
	// shard.go. logMu is the sequencer lock: it guards opSeq and the
	// intent-log append, and is always acquired after the shard locks.
	shards []serviceShard
	logMu  sync.Mutex

	nodes  map[string]*ServiceNode
	byAddr map[Address]*ServiceNode
	order  []*ServiceNode

	// closed is flipped by Close under subMu (so subscribe cannot race
	// it) and read lock-free by every operation.
	subMu  sync.Mutex
	subs   map[*subscription]struct{}
	closed atomic.Bool

	// fraudSeen counts template fraud entries already reported per
	// address, so each new entry emits exactly one dispute event.
	fraudSeen map[Address]int

	// ops is the operation-log store (nil without WithStore); opSeq is
	// the next journal sequence number. ownedKV is closed by Close when
	// the service opened the store itself (WithDataDir).
	ops     store.KVStore
	opSeq   uint64
	opBuf   []byte // logOp's encode buffer, guarded by logMu
	ownedKV store.KVStore

	// Checkpoint bookkeeping (checkpoint.go): the configured cadence,
	// the height/sequence of the last written checkpoint, and the op
	// sequence below which the journal has been pruned.
	ckptInterval   uint64
	lastCkptHeight uint64
	lastCkptSeq    uint64
	opPruned       uint64

	// sensorRegs journals the fixed-value sensor registrations so
	// checkpoints can re-install them (the handlers are closures and
	// cannot be snapshotted). opRegisterSensor is a sharded op, so the
	// slice has its own lock.
	sensorMu   sync.Mutex
	sensorRegs []ckptSensor

	// recovery describes what NewService recovered; immutable afterward.
	recovery RecoveryInfo

	// cluster is the multi-node sidechain binding (nil without
	// WithCluster); see cluster_service.go.
	cluster *cluster.Node
}

// NewService creates a TinyEVM deployment whose provider node (the
// payment receiver owning the on-chain template) has the given name.
//
// With WithStore or WithDataDir, NewService also RECOVERS: the journaled
// operation log found in the store is replayed against the fresh
// deployment, reconstructing nodes, channels, balances and sealed
// blocks exactly as they were — every replayed block is verified
// byte-for-byte against the persisted chain records, and a mismatch
// fails construction instead of forking history.
func NewService(providerName string, opts ...Option) (*Service, *ServiceNode, error) {
	cfg := serviceConfig{system: DefaultConfig()}
	for _, o := range opts {
		o(&cfg)
	}
	// Before any store is opened or read: a refused configuration must
	// leave no trace in the caller's store or directory.
	if err := cfg.checkCluster(); err != nil {
		return nil, nil, err
	}

	kv, ownedKV := cfg.kv, store.KVStore(nil)
	var storeOpen time.Duration
	if kv == nil && cfg.dataDir != "" {
		start := time.Now()
		var err error
		if kv, err = openDataDir(cfg.dataDir, cfg.backend); err != nil {
			return nil, nil, err
		}
		ownedKV = kv
		storeOpen = time.Since(start)
	}
	fail := func(err error) (*Service, *ServiceNode, error) {
		if ownedKV != nil {
			ownedKV.Close()
		}
		return nil, nil, err
	}
	var (
		stored serviceMeta
		used   bool
	)
	if kv != nil {
		// Reading the meta is also what refuses or migrates a store of
		// another format, so it comes before every other read.
		var err error
		if stored, used, err = storedMeta(kv); err != nil {
			return fail(err)
		}
		if used && !cfg.fundsSet {
			// Replay must start from the balances the deployment was
			// created with, whatever the defaults are by now.
			cfg.system.ProviderFunds, cfg.system.NodeFunds = stored.ProviderFunds, stored.NodeFunds
		}
	}

	sys, provider, err := NewSystem(cfg.system, providerName)
	if err != nil {
		return fail(err)
	}
	if cfg.mstCommit {
		// Before any store attaches: the first persisted seal must
		// already carry the MST commitment.
		sys.Chain.EnableMSTCommitment()
	}
	s := &Service{
		sys:          sys,
		nodes:        make(map[string]*ServiceNode),
		byAddr:       make(map[Address]*ServiceNode),
		subs:         make(map[*subscription]struct{}),
		fraudSeen:    make(map[Address]int),
		shards:       make([]serviceShard, shardCount(cfg)),
		ckptInterval: cfg.ckptInterval,
		ownedKV:      ownedKV,
	}
	sys.Chain.OnSeal(func(b *chain.Block, _ []*chain.Receipt) {
		s.broadcast(Event{Type: EventBlockSealed, Block: b.Number})
	})
	pn := s.adopt(provider)

	if kv != nil {
		start := time.Now()
		s.ops = kv
		commitMode := ""
		if cfg.mstCommit {
			commitMode = "mst"
		}
		if err := checkMeta(kv, stored, used, serviceMeta{
			Provider:        providerName,
			ChallengePeriod: cfg.system.ChallengePeriod,
			RadioSeed:       cfg.system.RadioSeed,
			RadioLossRate:   cfg.system.RadioLossRate,
			StateCommitment: commitMode,
			ProviderFunds:   cfg.system.ProviderFunds,
			NodeFunds:       cfg.system.NodeFunds,
		}); err != nil {
			return fail(err)
		}
		if err := sys.Chain.AttachStore(store.Prefixed(kv, chainPrefix)); err != nil {
			return fail(err)
		}
		// Recovery: restore the latest checkpoint when one exists, then
		// replay the journaled operation tail on top of it.
		loadStart := time.Now()
		ck, hasCkpt, err := s.loadCheckpoint()
		if err != nil {
			return fail(err)
		}
		if hasCkpt {
			if err := s.restoreFromCheckpoint(ck); err != nil {
				return fail(err)
			}
			s.recovery.CheckpointHeight = ck.Height
			s.recovery.CheckpointSeq = ck.Seq
		}
		replayStart := time.Now()
		replayed, err := s.replayOps()
		if err != nil {
			return fail(err)
		}
		end := time.Now()
		s.recovery.ReplayedOps = replayed
		s.recovery.Recovered = hasCkpt || replayed > 0
		s.recovery.StoreOpen = storeOpen
		s.recovery.CheckpointLoad = replayStart.Sub(loadStart)
		s.recovery.Replay = end.Sub(replayStart)
		s.recovery.Duration = end.Sub(start)
		// Replay ran with synchronous persistence (every seal verified
		// against the store in lockstep); live mode pipelines WAL commits
		// so block N+1 can execute while block N persists.
		sys.Chain.EnablePipeline(chain.DefaultPipelineDepth)
	}
	if cfg.cluster != nil {
		if err := s.setupCluster(cfg.cluster); err != nil {
			return fail(err)
		}
	}
	return s, pn, nil
}

func (s *Service) closeOwnedStore() {
	if s.ownedKV != nil {
		s.ownedKV.Close()
	}
}

func (s *Service) adopt(n *Node) *ServiceNode {
	sn := &ServiceNode{svc: s, n: n}
	s.nodes[n.Name()] = sn
	s.byAddr[n.Address()] = sn
	s.order = append(s.order, sn)
	return sn
}

// do runs fn under the exclusive service lock — the path for
// consistent read-only snapshots — honouring context cancellation and
// service shutdown at the boundary. Journaled operations go through
// run (ops.go).
func (s *Service) do(ctx context.Context, fn func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrServiceClosed
	}
	return fn()
}

// Close shuts the service down: every Subscribe stream is closed and
// subsequent operations fail with ErrServiceClosed. Close is idempotent.
func (s *Service) Close() error {
	s.subMu.Lock()
	if s.closed.Swap(true) {
		s.subMu.Unlock()
		return nil
	}
	subs := make([]*subscription, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subMu.Unlock()
	for _, sub := range subs {
		sub.cancel()
	}
	// The cluster's goroutines acquire s.mu; stop them before taking it.
	if s.cluster != nil {
		s.cluster.Close() //nolint:errcheck // shutdown path
	}
	// Serialize against in-flight operations (sharded ops hold the read
	// lock for their whole duration), drain the persistence pipeline,
	// then release a store the service owns.
	s.mu.Lock()
	s.sys.Chain.ClosePipeline()
	s.closeOwnedStore()
	s.mu.Unlock()
	return nil
}

// AddNode creates, funds and joins a new node.
func (s *Service) AddNode(ctx context.Context, name string) (*ServiceNode, error) {
	res, err := s.run(ctx, opAddNode, &opRecord{Name: name}, nil)
	return res.node, err
}

// Node returns a registered node by name. Name lookups only contend
// with node registration, never with channel traffic.
func (s *Service) Node(name string) (*ServiceNode, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn, ok := s.nodes[name]
	return sn, ok
}

// Nodes returns every node in join order.
func (s *Service) Nodes() []*ServiceNode {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*ServiceNode, len(s.order))
	copy(out, s.order)
	return out
}

// Provider returns the provider node (the template owner).
func (s *Service) Provider() *ServiceNode {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byAddr[s.sys.Provider()]
}

// BalanceOf returns an address's main-chain balance.
func (s *Service) BalanceOf(ctx context.Context, addr Address) (uint64, error) {
	var bal uint64
	err := s.do(ctx, func() error {
		bal = s.sys.Chain.BalanceOf(addr)
		return nil
	})
	return bal, err
}

// HeadBlock returns the current main-chain head number.
func (s *Service) HeadBlock(ctx context.Context) (uint64, error) {
	var n uint64
	err := s.do(ctx, func() error {
		n = s.sys.Chain.Head().Number
		return nil
	})
	return n, err
}

// RunChallengePeriod advances the chain past the active exit deadline.
func (s *Service) RunChallengePeriod(ctx context.Context) error {
	_, err := s.run(ctx, opRunChallenge, &opRecord{}, nil)
	return err
}

// FraudChannels returns the channel ids the template caught addr
// cheating on.
func (s *Service) FraudChannels(ctx context.Context, addr Address) ([]uint64, error) {
	var out []uint64
	err := s.do(ctx, func() error {
		out = s.sys.Template.FraudChannels(addr)
		return nil
	})
	return out, err
}

// TemplateSettled reports whether the on-chain template has dissolved.
func (s *Service) TemplateSettled(ctx context.Context) (bool, error) {
	var settled bool
	err := s.do(ctx, func() error {
		settled = s.sys.Template.Settled()
		return nil
	})
	return settled, err
}

// System exposes the underlying deployment for measurement and
// inspection. It is NOT safe to mutate concurrently with service
// operations; quiesce the service first.
func (s *Service) System() *System { return s.sys }

// RecoveryInfo describes what NewService reconstructed from a durable
// store: whether anything was recovered at all, the checkpoint it
// started from (zero values when none existed), how many journaled
// operations replayed on top, and how long the whole recovery took.
type RecoveryInfo struct {
	// Recovered reports whether the store held prior history.
	Recovered bool
	// CheckpointHeight and CheckpointSeq identify the restored
	// checkpoint (both zero when recovery replayed the full log).
	CheckpointHeight uint64
	CheckpointSeq    uint64
	// ReplayedOps is the length of the journal tail replayed after the
	// checkpoint.
	ReplayedOps int
	// Duration is the wall-clock recovery time inside NewService, from
	// the store being open to the last replayed op: the meta check, the
	// chain attach, CheckpointLoad and Replay.
	Duration time.Duration
	// StoreOpen is how long opening the WithDataDir store took, before
	// Duration starts; zero when the caller handed the store in through
	// WithStore. CheckpointLoad is reading, decoding and restoring the
	// checkpoint (the chain's blocks up to its height included); Replay
	// is the journal tail on top of it and the final head verification.
	StoreOpen      time.Duration
	CheckpointLoad time.Duration
	Replay         time.Duration
}

// RecoveryInfo returns what this service recovered at construction.
// It is immutable after NewService returns.
func (s *Service) RecoveryInfo() RecoveryInfo { return s.recovery }

// StoreStatus describes the service's durable store: the storage
// engine under the journal and the checkpoint position. Surfaced over
// RPC as tinyevm_storeStatus.
type StoreStatus struct {
	// Kind names the backend ("mem", "wal", "disk", or "custom" for a
	// caller-provided store that reports no stats).
	Kind string
	// Segments / SegmentBytes / MemtableBytes / Flushes / Compactions
	// mirror store.Stats for the backend.
	Segments      int
	SegmentBytes  int64
	MemtableBytes int64
	Flushes       uint64
	Compactions   uint64
	// CheckpointInterval is the configured cadence (0: disabled);
	// CheckpointHeight and CheckpointSeq locate the latest checkpoint
	// written or restored by this service.
	CheckpointInterval uint64
	CheckpointHeight   uint64
	CheckpointSeq      uint64
	// Recovery is where this service's cold start went (RecoveryInfo).
	Recovery RecoveryInfo
}

// StoreStatus reports the durable store's backend and checkpoint
// position. ok is false when the service runs without a store.
func (s *Service) StoreStatus(ctx context.Context) (StoreStatus, bool, error) {
	var (
		st StoreStatus
		ok bool
	)
	err := s.do(ctx, func() error {
		if s.ops == nil {
			return nil
		}
		ok = true
		st.CheckpointInterval = s.ckptInterval
		st.CheckpointHeight = s.lastCkptHeight
		st.CheckpointSeq = s.lastCkptSeq
		st.Recovery = s.recovery
		if sp, has := s.ops.(store.StatsProvider); has {
			stats := sp.Stats()
			st.Kind = stats.Kind
			st.Segments = stats.Segments
			st.SegmentBytes = stats.SegmentBytes
			st.MemtableBytes = stats.MemtableBytes
			st.Flushes = stats.Flushes
			st.Compactions = stats.Compactions
		} else {
			st.Kind = "custom"
		}
		return nil
	})
	return st, ok, err
}

// StateProof builds a light-client-verifiable membership proof that
// addr's account is committed under the chain head's state commitment.
// Requires WithMSTCommitment; verify with chain.VerifyAccountProof (or
// client-side via rpc.VerifyStateProof, which also re-digests
// the account preimage).
func (s *Service) StateProof(ctx context.Context, addr Address) (*AccountProof, error) {
	var p *AccountProof
	err := s.do(ctx, func() error {
		var err error
		p, err = s.sys.Chain.StateProof(addr)
		return err
	})
	return p, err
}

// txSender returns the block producer on-chain operations go through.
func (s *Service) txSender() protocol.TxSender {
	if s.cluster != nil {
		return &clusterTxSender{s: s}
	}
	return s.sys.Chain
}

// RouteStep names one forwarding hop of a multi-hop payment: the node
// pays the next hop over its local channel handle.
type RouteStep struct {
	Node    string
	Channel uint64
}

// RoutePayment executes an atomic multi-hop hash-locked payment along
// the route, ending at the named receiver. Intermediaries earn hopFee
// each. The whole exchange (forward lock pass, backward claim pass)
// completes before RoutePayment returns; each hop's payee sees
// payment-received and each payer claim-settled on their streams.
func (s *Service) RoutePayment(ctx context.Context, steps []RouteStep, receiver string, amount, hopFee uint64) (Hash, error) {
	// The secret is the route's only nondeterministic input: draw it
	// here and journal it inside the record so recovery replays the
	// identical exchange.
	secret, _, err := protocol.NewSecret()
	if err != nil {
		return Hash{}, err
	}
	rec := &opRecord{Receiver: receiver, Amount: amount, Fee: hopFee, Secret: secretOf(secret), Steps: steps}
	res, err := s.run(ctx, opRoutePayment, rec, nil)
	return res.lock, err
}

// --- event plumbing ----------------------------------------------------

// maxSubQueue bounds a subscription's queue, as txpool.DefaultCap
// bounds the pools: a stream that falls this far behind is closed and
// its queue freed, so a subscriber that never reads cannot hold the
// service's events.
const maxSubQueue = 4096

// subscription is one Subscribe stream: a queue of up to maxSubQueue
// events decoupling the (locked) event producers from a slow consumer.
type subscription struct {
	node string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Event
	closed bool

	done chan struct{}
	once sync.Once
	out  chan Event
}

func newSubscription(node string) *subscription {
	sub := &subscription{
		node: node,
		done: make(chan struct{}),
		out:  make(chan Event, 16),
	}
	sub.cond = sync.NewCond(&sub.mu)
	go sub.pump()
	return sub
}

// push queues e, or closes the stream when its queue is full.
func (sub *subscription) push(e Event) {
	sub.mu.Lock()
	full := len(sub.queue) >= maxSubQueue
	if !sub.closed && !full {
		sub.queue = append(sub.queue, e)
		sub.cond.Signal()
	}
	sub.mu.Unlock()
	if full {
		sub.cancel()
	}
}

// cancel ends the stream and drops the events it has not delivered.
func (sub *subscription) cancel() {
	sub.once.Do(func() {
		close(sub.done)
		sub.mu.Lock()
		sub.closed = true
		sub.queue = nil
		sub.cond.Signal()
		sub.mu.Unlock()
	})
}

func (sub *subscription) pump() {
	for {
		sub.mu.Lock()
		for len(sub.queue) == 0 && !sub.closed {
			sub.cond.Wait()
		}
		if len(sub.queue) == 0 && sub.closed {
			sub.mu.Unlock()
			close(sub.out)
			return
		}
		e := sub.queue[0]
		sub.queue = sub.queue[1:]
		sub.mu.Unlock()
		select {
		case sub.out <- e:
		case <-sub.done:
			close(sub.out)
			return
		}
	}
}

// subscribe registers a stream bound to node (or "" for every event).
func (s *Service) subscribe(ctx context.Context, node string) <-chan Event {
	sub := newSubscription(node)
	s.subMu.Lock()
	if s.closed.Load() {
		s.subMu.Unlock()
		sub.cancel()
		return sub.out
	}
	s.subs[sub] = struct{}{}
	s.subMu.Unlock()
	go func() {
		select {
		case <-ctx.Done():
			sub.cancel()
		case <-sub.done:
		}
		s.subMu.Lock()
		delete(s.subs, sub)
		s.subMu.Unlock()
	}()
	return sub.out
}

// emit delivers an event to the named node's streams; broadcast events
// (Node == "") reach every stream.
func (s *Service) emit(e Event) {
	e.Time = time.Now()
	s.subMu.Lock()
	for sub := range s.subs {
		if e.Node == "" || sub.node == "" || sub.node == e.Node {
			sub.push(e)
		}
	}
	s.subMu.Unlock()
}

// broadcast emits a system-wide event.
func (s *Service) broadcast(e Event) {
	e.Node = ""
	s.emit(e)
}

// --- wire dispatch -----------------------------------------------------

// firstErr reduces dispatch's error list to its first element (the
// service surfaces one failure per operation; the rest arrive as error
// events on the streams).
func firstErr(errs []error) error {
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// deliveryErr marks a dispatch failure that happened AFTER the local
// side of the operation succeeded, so callers can distinguish "never
// happened" from "applied locally, rejected remotely". Both
// ErrDeliveryFailed and the cause match through errors.Is.
func deliveryErr(errs []error) error {
	if len(errs) > 0 {
		return fmt.Errorf("%w: %w", ErrDeliveryFailed, errs[0])
	}
	return nil
}

// dispatch drains the radio inboxes of the nodes in scope (nil: every
// node), routing each pending message to the matching protocol handler
// and publishing the resulting events. It runs after every
// state-changing operation, while that operation's locks are held, so
// automatic delivery is atomic with the operation that produced the
// messages.
//
// Scoped dispatch is what keeps the sharded hot path correct: an
// operation only ever produces messages for the nodes whose shard locks
// it holds, and every operation fully drains its own messages before
// releasing them — so between operations no inbox anywhere is non-empty
// and draining just the involved pair is exactly equivalent to draining
// the world. Replay computes the same scope from the record and shares
// this code path.
func (s *Service) dispatch(scope []*ServiceNode) []error {
	if scope == nil {
		scope = s.order
	}
	var errs []error
	for progress := true; progress; {
		progress = false
		for _, sn := range scope {
			for sn.n.Radio.Pending() > 0 {
				progress = true
				if err := s.deliverOne(sn); err != nil {
					errs = append(errs, err)
					s.emit(Event{Type: EventError, Node: sn.n.Name(), Err: err})
				}
			}
		}
	}
	return errs
}

// deliverOne hands the oldest pending frame on sn to its party and
// publishes what the frame did.
func (s *Service) deliverOne(sn *ServiceNode) error {
	d, err := sn.n.Party.Deliver()
	if err != nil {
		return err
	}
	s.emit(deliveryEvent(sn.n.Name(), d))
	return nil
}

// deliveryEvent is the event a delivered frame publishes on node's
// stream.
func deliveryEvent(node string, d protocol.Delivery) Event {
	e := Event{Node: node}
	if cs := d.Channel; cs != nil {
		e.Channel, e.Peer = cs.ID, cs.Peer
	}
	switch d.Type {
	case protocol.MsgChannelOpen:
		e.Type, e.Amount = EventChannelOpened, d.Channel.Deposit
	case protocol.MsgPayment:
		e.Type, e.Seq, e.Amount, e.Payment = EventPaymentReceived, d.Payment.Seq, d.Added, d.Payment
	case protocol.MsgCloseRequest, protocol.MsgCloseAck:
		e.Type, e.Seq, e.Amount, e.Final = EventChannelClosed, d.Final.Seq, d.Final.Cumulative, d.Final
	case protocol.MsgHTLCClaim:
		e.Type, e.Seq, e.Payment = EventClaimSettled, d.Payment.Seq, d.Payment
	case protocol.MsgSensorData:
		e.Type, e.Peer, e.Readings = EventSensorData, d.Sensor.From, d.Sensor.Readings
	}
	return e
}

// checkDisputes emits a dispute event for every fraud entry the template
// recorded since the last check.
func (s *Service) checkDisputes() {
	for addr := range s.byAddr {
		frauds := s.sys.Template.FraudChannels(addr)
		for _, ch := range frauds[s.fraudSeen[addr]:] {
			s.broadcast(Event{
				Type: EventDispute, Peer: addr, Channel: ch,
				Block: s.sys.Chain.Head().Number,
			})
		}
		s.fraudSeen[addr] = len(frauds)
	}
}

// --- node façade -------------------------------------------------------

// ServiceNode is one IoT node addressed through the service. All methods
// are safe for concurrent use.
type ServiceNode struct {
	svc *Service
	n   *Node
}

// Name returns the node's name.
func (sn *ServiceNode) Name() string { return sn.n.Name() }

// Address returns the node's device address.
func (sn *ServiceNode) Address() Address { return sn.n.Address() }

// Subscribe returns this node's event stream: channel-opened,
// payment-received, channel-closed, claim-settled, sensor-data and
// error events observed on this node, plus broadcast dispute and
// block-sealed events. The stream closes when ctx is cancelled, the
// service closes, or the consumer falls maxSubQueue (4096) events
// behind — a slow consumer never blocks the protocol, and one that
// stops reading loses its stream instead of holding every event.
func (sn *ServiceNode) Subscribe(ctx context.Context) <-chan Event {
	return sn.svc.subscribe(ctx, sn.n.Name())
}

// RegisterSensor installs a sensor/actuator handler on the node's bus.
// Go handlers cannot be journaled: on a durable deployment, prefer
// RegisterSensorValue (replayed on recovery) or re-register handlers
// after NewService returns.
func (sn *ServiceNode) RegisterSensor(id uint64, fn SensorFunc) {
	sn.n.RegisterSensor(id, fn) // the bus is internally synchronized
}

// RegisterSensorValue installs a fixed-value sensor on the node's bus.
// Unlike RegisterSensor, the registration is journaled, so recovery
// restores it before replaying the channel operations whose contract
// constructors read the sensor — this is the registration path the RPC
// gateway uses.
func (sn *ServiceNode) RegisterSensorValue(ctx context.Context, id, value uint64) error {
	_, err := sn.svc.run(ctx, opRegisterSensor, &opRecord{Node: sn.n.Name(), SensorID: id, Value: value}, nil)
	return err
}

// OpenChannel executes the local template to create an off-chain payment
// channel funded with deposit and announces it to the peer, which
// replicates it immediately (the peer's stream sees channel-opened).
func (sn *ServiceNode) OpenChannel(ctx context.Context, peer Address, deposit, sensorParam uint64) (ChannelState, error) {
	res, err := sn.svc.run(ctx, opOpenChannel, &opRecord{
		Node: sn.n.Name(), Peer: addrOf(peer), Deposit: deposit, SensorParam: sensorParam,
	}, nil)
	return res.channel, err
}

// Pay sends an off-chain payment over the channel. The counterparty
// verifies and registers it before Pay returns; its stream sees
// payment-received.
func (sn *ServiceNode) Pay(ctx context.Context, channelID, amount uint64) (*Payment, error) {
	res, err := sn.svc.run(ctx, opPay, &opRecord{Node: sn.n.Name(), Channel: channelID, Amount: amount}, nil)
	return res.pay, err
}

// PayConditional sends a hash-locked payment; the peer holds it pending
// until Claim reveals the preimage.
func (sn *ServiceNode) PayConditional(ctx context.Context, channelID, amount uint64, lock Hash) (*Payment, error) {
	res, err := sn.svc.run(ctx, opPayConditional, &opRecord{
		Node: sn.n.Name(), Channel: channelID, Amount: amount, Lock: hashOf(lock),
	}, nil)
	return res.pay, err
}

// Claim resolves a pending inbound conditional payment by revealing the
// preimage; the payer finalizes it in the same call (claim-settled).
func (sn *ServiceNode) Claim(ctx context.Context, channelID uint64, secret Secret) (*Payment, error) {
	res, err := sn.svc.run(ctx, opClaim, &opRecord{
		Node: sn.n.Name(), Channel: channelID, Secret: secretOf(secret),
	}, nil)
	return res.pay, err
}

// Close runs the full cooperative close handshake: the final state
// travels to the peer, is countersigned, and the ack is processed — both
// parties' streams see channel-closed. The returned state carries both
// signatures.
func (sn *ServiceNode) Close(ctx context.Context, channelID uint64) (*FinalState, error) {
	res, err := sn.svc.run(ctx, opClose, &opRecord{Node: sn.n.Name(), Channel: channelID}, nil)
	return res.fs, err
}

// Reopen clears a countersigned checkpoint on this side so payments can
// continue (both parties must reopen).
func (sn *ServiceNode) Reopen(ctx context.Context, channelID uint64) error {
	_, err := sn.svc.run(ctx, opReopen, &opRecord{Node: sn.n.Name(), Channel: channelID}, nil)
	return err
}

// Channel returns a snapshot of a channel's local state.
func (sn *ServiceNode) Channel(ctx context.Context, channelID uint64) (ChannelState, bool, error) {
	var (
		out ChannelState
		ok  bool
	)
	err := sn.svc.do(ctx, func() error {
		cs, found := sn.n.Channel(channelID)
		if found {
			out, ok = *cs, true
		}
		return nil
	})
	return out, ok, err
}

// Channels returns snapshots of every channel on this node.
func (sn *ServiceNode) Channels(ctx context.Context) ([]ChannelState, error) {
	var out []ChannelState
	err := sn.svc.do(ctx, func() error {
		for _, cs := range sn.n.ChannelList() {
			out = append(out, *cs)
		}
		return nil
	})
	return out, err
}

// SendSensorData reads the given sensors and pushes the readings to the
// peer, whose stream sees sensor-data.
func (sn *ServiceNode) SendSensorData(ctx context.Context, peer Address, sensorIDs ...uint64) (*SensorData, error) {
	rec := &opRecord{Node: sn.n.Name(), Peer: addrOf(peer)}
	// Sensor values are nondeterministic inputs: read them under the
	// shard locks, before journaling, so recovery replays the exact
	// frames without needing the (non-persistable) Go handlers.
	res, err := sn.svc.run(ctx, opSendSensorData, rec, func() error {
		for _, id := range sensorIDs {
			v, err := sn.n.Dev.Sensors.Sense(id, 0)
			if err != nil {
				return fmt.Errorf("tinyevm: reading sensor 0x%x: %w", id, err)
			}
			rec.Readings = append(rec.Readings, SensorReading{ID: id, Value: v})
		}
		return nil
	})
	return res.data, err
}

// Deposit locks funds into the on-chain template (phase 1).
func (sn *ServiceNode) Deposit(ctx context.Context, amount uint64) (*Receipt, error) {
	res, err := sn.svc.run(ctx, opDeposit, &opRecord{Node: sn.n.Name(), Amount: amount}, nil)
	return res.receipt, err
}

// Commit submits a final state to the on-chain template (phase 3). A
// commit superseding a counterparty's stale commit raises a dispute
// event.
func (sn *ServiceNode) Commit(ctx context.Context, fs *FinalState) (*Receipt, error) {
	res, err := sn.svc.run(ctx, opCommit, &opRecord{Node: sn.n.Name(), Final: finalStateOf(fs)}, nil)
	return res.receipt, err
}

// Exit starts the on-chain exit / challenge period.
func (sn *ServiceNode) Exit(ctx context.Context) (*Receipt, error) {
	res, err := sn.svc.run(ctx, opExit, &opRecord{Node: sn.n.Name()}, nil)
	return res.receipt, err
}

// Settle dissolves the template after the challenge period and
// distributes funds.
func (sn *ServiceNode) Settle(ctx context.Context) (*Receipt, error) {
	res, err := sn.svc.run(ctx, opSettle, &opRecord{Node: sn.n.Name()}, nil)
	return res.receipt, err
}

// DeployContract deploys EVM init code on the node's TinyEVM.
func (sn *ServiceNode) DeployContract(ctx context.Context, initCode []byte) (DeployResult, error) {
	res, err := sn.svc.run(ctx, opDeployContract, &opRecord{Node: sn.n.Name(), Data: initCode}, nil)
	return res.deploy, err
}

// CallContract executes a deployed contract on the node's TinyEVM.
func (sn *ServiceNode) CallContract(ctx context.Context, addr Address, input []byte, value uint64) (CallResult, error) {
	res, err := sn.svc.run(ctx, opCallContract, &opRecord{
		Node: sn.n.Name(), Addr: addrOf(addr), Data: input, Value: value,
	}, nil)
	return res.call, err
}

// EnergyReport returns the node's Table IV style energy report.
func (sn *ServiceNode) EnergyReport(ctx context.Context) (EnergyReport, error) {
	var rep EnergyReport
	err := sn.svc.do(ctx, func() error {
		rep = sn.n.EnergyReport()
		return nil
	})
	return rep, err
}

// VerifyLog checks the node's hash-linked side-chain log.
func (sn *ServiceNode) VerifyLog(ctx context.Context) error {
	return sn.svc.do(ctx, func() error {
		return sn.n.Log.Verify()
	})
}
