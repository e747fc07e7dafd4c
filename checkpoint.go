package tinyevm

// Periodic state checkpoints for the durable service (WithStore /
// WithDataDir + WithCheckpointInterval): recovery normally replays the
// ENTIRE operation log, so restart time grows with deployment lifetime.
// A checkpoint bounds it — every K sealed blocks the service persists a
// full deployment snapshot (chain account state, template tables, every
// node's device state, channel tables and side-chain logs, journaled
// sensor registrations) keyed by the chain height and the op-log
// watermark it covers, and atomically prunes the journaled operations
// the snapshot folds in. Recovery then loads the checkpoint, restores
// the chain to the checkpoint height (verified against that block's
// persisted state commitment), and replays only the operation tail.
//
// Keyspace (root namespace of the shared store, next to op/ and meta/):
//
//	ckpt/state -> checkpointRecord, binary (layout at its encode)
//
// The snapshot and the op-prune deletes travel in ONE atomic batch,
// routed through the chain's commit ordering (Chain.SubmitBatch) so the
// checkpoint lands only after every block sealed before it is durable.
// A crash on either side of the batch leaves a consistent store: the
// old checkpoint with the full tail, or the new one with the short
// tail.
//
// Checkpoints are disabled under cluster mode (peers replicate blocks,
// not snapshots).

import (
	"fmt"

	"tinyevm/internal/chain"
	"tinyevm/internal/codec"
	"tinyevm/internal/device"
	"tinyevm/internal/evm"
	"tinyevm/internal/protocol"
)

const checkpointKey = "ckpt/state"

// checkpointRecord is the persisted deployment snapshot.
type checkpointRecord struct {
	// Seq is the op-log watermark: operations with Seq < this value are
	// folded into the snapshot (and pruned); replay starts here.
	Seq uint64
	// Height is the chain block height the snapshot was taken at.
	Height uint64
	// ChainState is chain.SnapshotState of the main-chain accounts.
	ChainState blobField
	// Template is the on-chain template's mutable state.
	Template ckptTemplate
	// Nodes holds every node in join order (the provider first).
	Nodes []ckptNode
	// Sensors are the journaled fixed-value sensor registrations, in
	// registration order.
	Sensors []ckptSensor
}

type ckptTemplate struct {
	Deposits []ckptDeposit
	Commits  []ckptCommit
	Fraud    []ckptFraud
	ExitBy   addrField
	ExitAt   uint64
	HasExit  bool
	Settled  bool
}

type ckptDeposit struct {
	Addr   addrField
	Amount uint64
}

type ckptCommit struct {
	Sender      addrField
	ID          uint64
	State       blobField // wire FinalState
	SubmittedBy addrField
	Block       uint64
}

type ckptFraud struct {
	Addr   addrField
	Sender addrField
	ID     uint64
}

type ckptNode struct {
	Name          string
	LocalTemplate addrField
	// DeviceState is chain.SnapshotState of the device's accounts.
	DeviceState blobField
	Channels    []ckptChannel
	Log         []ckptLogEntry
	// LossDraws is the node's position in its radio loss stream (zero on
	// a loss-free network).
	LossDraws uint64
}

type ckptChannel struct {
	ID             uint64
	WireID         uint64
	Template       addrField
	Addr           addrField
	Peer           addrField
	Opener         addrField
	Role           uint8
	Deposit        uint64
	Seq            uint64
	Cumulative     uint64
	LastPayment    blobField // wire Payment
	PendingHTLC    blobField // wire Payment
	PendingInbound bool
	LastPreimage   blobField // Secret
	Final          blobField // wire FinalState
	SensorValue    uint64
}

type ckptLogEntry struct {
	Index     uint64
	Kind      uint8
	ChannelID uint64
	Seq       uint64
	Amount    uint64
	Prev      hashField
	Hash      hashField
}

type ckptSensor struct {
	Node  string
	ID    uint64
	Value uint64
}

// Smallest encodings of the repeated elements, which bound how many of
// them a record of a given size can claim to hold.
const (
	minDepositBytes = 20 + 1
	minCommitBytes  = 20 + 1 + 4 + 20 + 1
	minFraudBytes   = 20 + 20 + 1
	minNodeBytes    = 4 + 20 + 1 + 4 + 4 + 4
	minChannelBytes = 2 + 4*20 + 1 + 3 + 4 + 4 + 1 + 4 + 4 + 1
	minLogBytes     = 1 + 1 + 3 + 32 + 32
	minSensorBytes  = 4 + 1 + 1
)

// encode gives the checkpoint's disk form. Integers are uvarints,
// addresses 20 raw bytes, hashes 32, "bytes" and strings a u32 length
// and the bytes, every list a u32 count and its elements:
//
//	record   format | seq | height | chainState bytes | template |
//	         nodes | sensors
//	template deposits (addr, amount) | commits (sender, id, state bytes,
//	         submittedBy, block) | fraud (addr, sender, id) |
//	         flags u8 (1: exit pending, 2: settled) |
//	         [exitBy addr, exitAt — only with flag 1]
//	node     name | localTemplate | lossDraws | deviceState bytes |
//	         channels | log
//	channel  id | wireId | template | addr | peer | opener | role u8 |
//	         deposit | seq | cumulative | lastPayment bytes |
//	         pendingHTLC bytes | pendingInbound u8 (0/1) |
//	         lastPreimage bytes | final bytes | sensorValue
//	log      index | kind u8 | channelId | seq | amount | prev[32] |
//	         hash[32]
//	sensor   node | id | value
//
// chainState and deviceState are chain.SnapshotState records.
func (ck *checkpointRecord) encode() []byte {
	w := codec.NewRecord(nil)
	w.Uvarint(ck.Seq)
	w.Uvarint(ck.Height)
	w.Bytes(ck.ChainState)

	t := &ck.Template
	w.U32(uint32(len(t.Deposits)))
	for _, d := range t.Deposits {
		w.Addr(d.Addr.addr())
		w.Uvarint(d.Amount)
	}
	w.U32(uint32(len(t.Commits)))
	for _, cm := range t.Commits {
		w.Addr(cm.Sender.addr())
		w.Uvarint(cm.ID)
		w.Bytes(cm.State)
		w.Addr(cm.SubmittedBy.addr())
		w.Uvarint(cm.Block)
	}
	w.U32(uint32(len(t.Fraud)))
	for _, f := range t.Fraud {
		w.Addr(f.Addr.addr())
		w.Addr(f.Sender.addr())
		w.Uvarint(f.ID)
	}
	var flags byte
	if t.HasExit {
		flags |= ckptFlagExit
	}
	if t.Settled {
		flags |= ckptFlagSettled
	}
	w.U8(flags)
	if t.HasExit {
		w.Addr(t.ExitBy.addr())
		w.Uvarint(t.ExitAt)
	}

	w.U32(uint32(len(ck.Nodes)))
	for i := range ck.Nodes {
		n := &ck.Nodes[i]
		w.String(n.Name)
		w.Addr(n.LocalTemplate.addr())
		w.Uvarint(n.LossDraws)
		w.Bytes(n.DeviceState)
		w.U32(uint32(len(n.Channels)))
		for j := range n.Channels {
			c := &n.Channels[j]
			w.Uvarint(c.ID)
			w.Uvarint(c.WireID)
			w.Addr(c.Template.addr())
			w.Addr(c.Addr.addr())
			w.Addr(c.Peer.addr())
			w.Addr(c.Opener.addr())
			w.U8(c.Role)
			w.Uvarint(c.Deposit)
			w.Uvarint(c.Seq)
			w.Uvarint(c.Cumulative)
			w.Bytes(c.LastPayment)
			w.Bytes(c.PendingHTLC)
			w.Bool(c.PendingInbound)
			w.Bytes(c.LastPreimage)
			w.Bytes(c.Final)
			w.Uvarint(c.SensorValue)
		}
		w.U32(uint32(len(n.Log)))
		for j := range n.Log {
			e := &n.Log[j]
			w.Uvarint(e.Index)
			w.U8(e.Kind)
			w.Uvarint(e.ChannelID)
			w.Uvarint(e.Seq)
			w.Uvarint(e.Amount)
			w.Hash(e.Prev.hash())
			w.Hash(e.Hash.hash())
		}
	}
	w.U32(uint32(len(ck.Sensors)))
	for _, sr := range ck.Sensors {
		w.String(sr.Node)
		w.Uvarint(sr.ID)
		w.Uvarint(sr.Value)
	}
	return w.Buf
}

const (
	ckptFlagExit    = 1
	ckptFlagSettled = 2
)

// decodeCheckpoint parses a checkpoint record, exactly (a short field,
// an unknown flag or a trailing byte is errBadRecord). Addresses,
// hashes and byte strings in the result are views into data.
func decodeCheckpoint(data []byte) (*checkpointRecord, error) {
	r := codec.OpenRecord(data, errBadRecord)
	count := func(minBytes int) int { return r.Count(r.Remaining() / minBytes) }
	addr := func() addrField { return r.Fixed(len(Address{})) }
	blob := func() blobField { return r.View(r.Remaining()) }
	ck := &checkpointRecord{Seq: r.Uvarint(), Height: r.Uvarint(), ChainState: blob()}

	t := &ck.Template
	if n := count(minDepositBytes); n > 0 {
		t.Deposits = make([]ckptDeposit, n)
		for i := range t.Deposits {
			t.Deposits[i] = ckptDeposit{Addr: addr(), Amount: r.Uvarint()}
		}
	}
	if n := count(minCommitBytes); n > 0 {
		t.Commits = make([]ckptCommit, n)
		for i := range t.Commits {
			t.Commits[i] = ckptCommit{Sender: addr(), ID: r.Uvarint(), State: blob(), SubmittedBy: addr(), Block: r.Uvarint()}
		}
	}
	if n := count(minFraudBytes); n > 0 {
		t.Fraud = make([]ckptFraud, n)
		for i := range t.Fraud {
			t.Fraud[i] = ckptFraud{Addr: addr(), Sender: addr(), ID: r.Uvarint()}
		}
	}
	flags := r.U8()
	if flags&^(ckptFlagExit|ckptFlagSettled) != 0 {
		r.Fail("template flags %#02x", flags)
	}
	t.HasExit, t.Settled = flags&ckptFlagExit != 0, flags&ckptFlagSettled != 0
	if t.HasExit {
		t.ExitBy, t.ExitAt = addr(), r.Uvarint()
	}

	if n := count(minNodeBytes); n > 0 {
		ck.Nodes = make([]ckptNode, n)
	}
	for i := range ck.Nodes {
		node := &ck.Nodes[i]
		node.Name = r.String(r.Remaining())
		node.LocalTemplate = addr()
		node.LossDraws = r.Uvarint()
		node.DeviceState = blob()
		if n := count(minChannelBytes); n > 0 {
			node.Channels = make([]ckptChannel, n)
		}
		for j := range node.Channels {
			node.Channels[j] = ckptChannel{
				ID: r.Uvarint(), WireID: r.Uvarint(),
				Template: addr(), Addr: addr(), Peer: addr(), Opener: addr(),
				Role: r.U8(), Deposit: r.Uvarint(), Seq: r.Uvarint(), Cumulative: r.Uvarint(),
				LastPayment: blob(), PendingHTLC: blob(), PendingInbound: r.Bool(),
				LastPreimage: blob(), Final: blob(), SensorValue: r.Uvarint(),
			}
		}
		if n := count(minLogBytes); n > 0 {
			node.Log = make([]ckptLogEntry, n)
		}
		for j := range node.Log {
			node.Log[j] = ckptLogEntry{
				Index: r.Uvarint(), Kind: r.U8(), ChannelID: r.Uvarint(),
				Seq: r.Uvarint(), Amount: r.Uvarint(),
				Prev: r.Fixed(len(Hash{})), Hash: r.Fixed(len(Hash{})),
			}
		}
	}
	if n := count(minSensorBytes); n > 0 {
		ck.Sensors = make([]ckptSensor, n)
		for i := range ck.Sensors {
			ck.Sensors[i] = ckptSensor{Node: r.String(r.Remaining()), ID: r.Uvarint(), Value: r.Uvarint()}
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tinyevm: decoding checkpoint: %w", err)
	}
	return ck, nil
}

// install puts the fixed-value handler on the node's sensor bus.
func (r ckptSensor) install(sn *ServiceNode) {
	value := r.Value
	sn.n.RegisterSensor(r.ID, func(uint64) (uint64, error) { return value, nil })
}

// --- building ----------------------------------------------------------

func encodeChannel(cs *ChannelState) ckptChannel {
	out := ckptChannel{
		ID: cs.ID, WireID: cs.WireID,
		Template: addrOf(cs.Template), Addr: addrOf(cs.Addr),
		Peer: addrOf(cs.Peer), Opener: addrOf(cs.Opener),
		Role: uint8(cs.Role), Deposit: cs.Deposit,
		Seq: cs.Seq, Cumulative: cs.Cumulative,
		LastPayment: paymentOf(cs.LastPayment),
		PendingHTLC: paymentOf(cs.PendingHTLC), PendingInbound: cs.PendingInbound,
		SensorValue: cs.SensorValue,
	}
	if cs.LastPreimage != (Secret{}) {
		out.LastPreimage = secretOf(cs.LastPreimage)
	}
	if cs.Final != nil {
		out.Final = finalStateOf(cs.Final)
	}
	return out
}

func decodeChannel(rec *ckptChannel) (cs *ChannelState, err error) {
	cs = &ChannelState{
		ID: rec.ID, WireID: rec.WireID,
		Template: rec.Template.addr(), Addr: rec.Addr.addr(),
		Peer: rec.Peer.addr(), Opener: rec.Opener.addr(),
		Role: protocol.Role(rec.Role), Deposit: rec.Deposit,
		Seq: rec.Seq, Cumulative: rec.Cumulative,
		PendingInbound: rec.PendingInbound, SensorValue: rec.SensorValue,
	}
	if cs.LastPayment, err = rec.LastPayment.payment(); err != nil {
		return nil, err
	}
	if cs.PendingHTLC, err = rec.PendingHTLC.payment(); err != nil {
		return nil, err
	}
	if len(rec.LastPreimage) > 0 {
		if cs.LastPreimage, err = rec.LastPreimage.secret(); err != nil {
			return nil, err
		}
	}
	if len(rec.Final) > 0 {
		if cs.Final, err = rec.Final.finalState(); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

func encodeLogEntry(e protocol.LogEntry) ckptLogEntry {
	return ckptLogEntry{
		Index: e.Index, Kind: e.Kind, ChannelID: e.ChannelID,
		Seq: e.Seq, Amount: e.Amount,
		Prev: hashOf(e.Prev), Hash: hashOf(e.Hash),
	}
}

func decodeLogEntry(rec *ckptLogEntry) protocol.LogEntry {
	return protocol.LogEntry{
		Index: rec.Index, Kind: rec.Kind, ChannelID: rec.ChannelID,
		Seq: rec.Seq, Amount: rec.Amount,
		Prev: rec.Prev.hash(), Hash: rec.Hash.hash(),
	}
}

func encodeTemplateSnapshot(snap protocol.TemplateSnapshot) ckptTemplate {
	var out ckptTemplate
	for _, d := range snap.Deposits {
		out.Deposits = append(out.Deposits, ckptDeposit{Addr: addrOf(d.Addr), Amount: d.Amount})
	}
	for _, cm := range snap.Commits {
		out.Commits = append(out.Commits, ckptCommit{
			Sender: addrOf(cm.Sender), ID: cm.ID,
			State:       finalStateOf(&cm.State),
			SubmittedBy: addrOf(cm.SubmittedBy), Block: cm.Block,
		})
	}
	for _, f := range snap.Fraud {
		out.Fraud = append(out.Fraud, ckptFraud{Addr: addrOf(f.Addr), Sender: addrOf(f.Sender), ID: f.ID})
	}
	if snap.Exit != nil {
		out.HasExit = true
		out.ExitBy = addrOf(snap.Exit.By)
		out.ExitAt = snap.Exit.Deadline
	}
	out.Settled = snap.Settled
	return out
}

func decodeTemplateSnapshot(rec *ckptTemplate) (protocol.TemplateSnapshot, error) {
	var snap protocol.TemplateSnapshot
	for _, d := range rec.Deposits {
		snap.Deposits = append(snap.Deposits, protocol.TemplateDeposit{Addr: d.Addr.addr(), Amount: d.Amount})
	}
	for _, cm := range rec.Commits {
		fs, err := cm.State.finalState()
		if err != nil {
			return snap, err
		}
		snap.Commits = append(snap.Commits, protocol.TemplateCommit{
			Sender: cm.Sender.addr(), ID: cm.ID, State: *fs,
			SubmittedBy: cm.SubmittedBy.addr(), Block: cm.Block,
		})
	}
	for _, f := range rec.Fraud {
		snap.Fraud = append(snap.Fraud, protocol.TemplateFraud{Addr: f.Addr.addr(), Sender: f.Sender.addr(), ID: f.ID})
	}
	if rec.HasExit {
		snap.Exit = &protocol.ExitRequest{By: rec.ExitBy.addr(), Deadline: rec.ExitAt}
	}
	snap.Settled = rec.Settled
	return snap, nil
}

// buildCheckpointLocked snapshots the whole deployment. It must run
// under the exclusive service lock, between operations (all radio
// inboxes drained — the snapshot does not capture in-flight frames
// because there never are any between operations).
func (s *Service) buildCheckpointLocked() *checkpointRecord {
	ck := &checkpointRecord{
		Seq:    s.opSeq,
		Height: s.sys.Chain.Head().Number,
	}
	ck.ChainState = chain.SnapshotState(s.sys.Chain.State())
	ck.Template = encodeTemplateSnapshot(s.sys.Template.Snapshot())
	for _, sn := range s.order {
		node := ckptNode{
			Name:          sn.n.Name(),
			LocalTemplate: addrOf(sn.n.LocalTemplate),
			LossDraws:     sn.n.Radio.LossDraws(),
			DeviceState:   chain.SnapshotState(sn.n.Dev.State),
		}
		for _, cs := range sn.n.ChannelList() {
			node.Channels = append(node.Channels, encodeChannel(cs))
		}
		for _, e := range sn.n.Log.Entries() {
			node.Log = append(node.Log, encodeLogEntry(e))
		}
		ck.Nodes = append(ck.Nodes, node)
	}
	s.sensorMu.Lock()
	ck.Sensors = append(ck.Sensors, s.sensorRegs...)
	s.sensorMu.Unlock()
	return ck
}

// maybeCheckpointLocked writes a checkpoint when the chain head has
// advanced at least the configured interval past the last one. Called
// at the end of every exclusive-path operation (the only path that
// seals blocks); the sharded hot path never comes through here.
func (s *Service) maybeCheckpointLocked() error {
	if s.ops == nil || s.ckptInterval == 0 {
		return nil
	}
	head := s.sys.Chain.Head().Number
	if head < s.lastCkptHeight+s.ckptInterval {
		return nil
	}
	ck := s.buildCheckpointLocked()
	// One atomic batch: the snapshot plus the pruning of every journaled
	// op it folds in — routed through the chain's commit ordering so it
	// lands only after all previously sealed blocks are durable.
	batch := s.ops.Batch()
	batch.Put([]byte(checkpointKey), ck.encode())
	for seq := s.opPruned; seq < ck.Seq; seq++ {
		batch.Delete(opKey(seq))
	}
	if err := s.sys.Chain.SubmitBatch(batch); err != nil {
		return fmt.Errorf("tinyevm: writing checkpoint: %w", err)
	}
	s.opPruned = ck.Seq
	s.lastCkptSeq = ck.Seq
	s.lastCkptHeight = ck.Height
	return nil
}

// --- recovery ----------------------------------------------------------

// loadCheckpoint reads the persisted checkpoint, if any.
func (s *Service) loadCheckpoint() (*checkpointRecord, bool, error) {
	data, ok, err := s.ops.Get([]byte(checkpointKey))
	if err != nil || !ok {
		return nil, false, err
	}
	ck, err := decodeCheckpoint(data)
	return ck, err == nil, err
}

// restoreFromCheckpoint pours a checkpoint into the freshly built
// system: chain blocks and state to the checkpoint height (verified
// against that block's persisted state commitment), template tables,
// every node in join order, and the journaled sensor registrations.
// The op-log tail then replays on top through the normal path.
func (s *Service) restoreFromCheckpoint(ck *checkpointRecord) error {
	if err := s.sys.Chain.RestoreCheckpoint(ck.Height, func(st *evm.MemState) error {
		st.Reset()
		return chain.RestoreState(st, ck.ChainState)
	}); err != nil {
		return fmt.Errorf("tinyevm: checkpoint chain restore: %w", err)
	}
	tsnap, err := decodeTemplateSnapshot(&ck.Template)
	if err != nil {
		return err
	}
	s.sys.Template.Restore(tsnap)

	if len(ck.Nodes) == 0 || len(s.order) != 1 {
		return fmt.Errorf("tinyevm: malformed checkpoint: %d nodes, %d already joined", len(ck.Nodes), len(s.order))
	}
	for i := range ck.Nodes {
		nrec := &ck.Nodes[i]
		channels := make([]*ChannelState, 0, len(nrec.Channels))
		for j := range nrec.Channels {
			cs, err := decodeChannel(&nrec.Channels[j])
			if err != nil {
				return err
			}
			channels = append(channels, cs)
		}
		log := make([]protocol.LogEntry, 0, len(nrec.Log))
		for j := range nrec.Log {
			log = append(log, decodeLogEntry(&nrec.Log[j]))
		}
		localTemplate := nrec.LocalTemplate.addr()
		if i == 0 {
			// The provider joined when the system was built (its local
			// template deploy is deterministic, so the address must come
			// out where the checkpoint recorded it); wipe the device state
			// and pour the snapshot over it.
			pn := s.order[0]
			if pn.n.Name() != nrec.Name {
				return fmt.Errorf("tinyevm: checkpoint provider %q, deployment provider %q", nrec.Name, pn.n.Name())
			}
			if pn.n.LocalTemplate != localTemplate {
				return fmt.Errorf("tinyevm: checkpoint provider template %s, deployed %s", localTemplate, pn.n.LocalTemplate)
			}
			pn.n.Dev.State.Reset()
			if err := chain.RestoreState(pn.n.Dev.State, nrec.DeviceState); err != nil {
				return err
			}
			if err := pn.n.RestoreProtocolState(channels, log); err != nil {
				return err
			}
			pn.n.Radio.SetLossDraws(nrec.LossDraws)
			continue
		}
		n, err := s.sys.RestoreNode(nrec.Name, localTemplate, func(dev *device.Device) error {
			dev.State.Reset()
			return chain.RestoreState(dev.State, nrec.DeviceState)
		})
		if err != nil {
			return err
		}
		if err := n.RestoreProtocolState(channels, log); err != nil {
			return err
		}
		n.Radio.SetLossDraws(nrec.LossDraws)
		s.adopt(n)
	}

	for _, sr := range ck.Sensors {
		sn, ok := s.nodes[sr.Node]
		if !ok {
			return fmt.Errorf("tinyevm: checkpoint sensor on unknown node %q", sr.Node)
		}
		sr.install(sn)
	}
	s.sensorMu.Lock()
	s.sensorRegs = append(s.sensorRegs[:0], ck.Sensors...)
	s.sensorMu.Unlock()

	// Sync the fraud counters to the restored template so tail-replayed
	// chain operations do not re-announce checkpointed disputes (no
	// subscribers exist yet; the sync emits nothing).
	s.checkDisputes()

	s.opSeq = ck.Seq
	s.opPruned = ck.Seq
	s.lastCkptSeq = ck.Seq
	s.lastCkptHeight = ck.Height
	return nil
}
