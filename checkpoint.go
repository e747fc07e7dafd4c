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
	"tinyevm/internal/evm"
	"tinyevm/internal/protocol"
)

const checkpointKey = "ckpt/state"

// checkpointRecord is the persisted deployment snapshot. It holds the
// protocol's own types; encode and decodeCheckpoint are their disk form.
type checkpointRecord struct {
	// Seq is the op-log watermark: operations with Seq < this value are
	// folded into the snapshot (and pruned); replay starts here.
	Seq uint64
	// Height is the chain block height the snapshot was taken at.
	Height uint64
	// ChainState is chain.SnapshotState of the main-chain accounts.
	ChainState blobField
	// Template is the on-chain template's mutable state.
	Template protocol.TemplateSnapshot
	// Nodes holds every node in join order (the provider first).
	Nodes []ckptNode
	// Sensors are the journaled fixed-value sensor registrations, in
	// registration order.
	Sensors []ckptSensor
}

type ckptNode struct {
	Name          string
	LocalTemplate Address
	// DeviceState is chain.SnapshotState of the device's accounts.
	DeviceState blobField
	Channels    []*ChannelState
	Log         []protocol.LogEntry
	// LossDraws is the node's position in its radio loss stream (zero on
	// a loss-free network).
	LossDraws uint64
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
// chainState and deviceState are chain.SnapshotState records. Payments
// and final states are their protocol wire encodings (a final state
// under MsgCloseRequest), a preimage its 32 bytes; a nil payment or
// final state and the zero preimage are empty.
func (ck *checkpointRecord) encode() []byte {
	w := codec.NewRecord(nil)
	w.Uvarint(ck.Seq)
	w.Uvarint(ck.Height)
	w.Bytes(ck.ChainState)

	t := &ck.Template
	w.U32(uint32(len(t.Deposits)))
	for _, d := range t.Deposits {
		w.Addr(d.Addr)
		w.Uvarint(d.Amount)
	}
	w.U32(uint32(len(t.Commits)))
	for i := range t.Commits {
		cm := &t.Commits[i]
		w.Addr(cm.Sender)
		w.Uvarint(cm.ID)
		w.Bytes(finalStateOf(&cm.State))
		w.Addr(cm.SubmittedBy)
		w.Uvarint(cm.Block)
	}
	w.U32(uint32(len(t.Fraud)))
	for _, f := range t.Fraud {
		w.Addr(f.Addr)
		w.Addr(f.Sender)
		w.Uvarint(f.ID)
	}
	var flags byte
	if t.Exit != nil {
		flags |= ckptFlagExit
	}
	if t.Settled {
		flags |= ckptFlagSettled
	}
	w.U8(flags)
	if t.Exit != nil {
		w.Addr(t.Exit.By)
		w.Uvarint(t.Exit.Deadline)
	}

	w.U32(uint32(len(ck.Nodes)))
	for i := range ck.Nodes {
		n := &ck.Nodes[i]
		w.String(n.Name)
		w.Addr(n.LocalTemplate)
		w.Uvarint(n.LossDraws)
		w.Bytes(n.DeviceState)
		w.U32(uint32(len(n.Channels)))
		for _, c := range n.Channels {
			w.Uvarint(c.ID)
			w.Uvarint(c.WireID)
			w.Addr(c.Template)
			w.Addr(c.Addr)
			w.Addr(c.Peer)
			w.Addr(c.Opener)
			w.U8(uint8(c.Role))
			w.Uvarint(c.Deposit)
			w.Uvarint(c.Seq)
			w.Uvarint(c.Cumulative)
			w.Bytes(paymentOf(c.LastPayment))
			w.Bytes(paymentOf(c.PendingHTLC))
			w.Bool(c.PendingInbound)
			w.Bytes(preimageOf(c.LastPreimage))
			if c.Final != nil {
				w.Bytes(finalStateOf(c.Final))
			} else {
				w.Bytes(nil)
			}
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
			w.Hash(e.Prev)
			w.Hash(e.Hash)
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

// decodeCheckpoint parses a checkpoint record, exactly: a short field,
// an unknown flag, a trailing byte, or a nested payment, final state or
// preimage other than what encode writes for it is errBadRecord. The
// two state snapshots in the result are views into data.
func decodeCheckpoint(data []byte) (*checkpointRecord, error) {
	r := codec.OpenRecord(data, errBadRecord)
	// The first nested object that does not decode. Reading goes on past
	// it: the record's framing does not depend on what a blob holds.
	var nestedErr error
	nested := func(err error) {
		if nestedErr == nil {
			nestedErr = err
		}
	}
	count := func(minBytes int) int { return r.Count(r.Remaining() / minBytes) }
	blob := func() blobField { return r.View(r.Remaining()) }
	ck := &checkpointRecord{Seq: r.Uvarint(), Height: r.Uvarint(), ChainState: blob()}

	t := &ck.Template
	if n := count(minDepositBytes); n > 0 {
		t.Deposits = make([]protocol.TemplateDeposit, n)
		for i := range t.Deposits {
			t.Deposits[i] = protocol.TemplateDeposit{Addr: r.Addr(), Amount: r.Uvarint()}
		}
	}
	if n := count(minCommitBytes); n > 0 {
		t.Commits = make([]protocol.TemplateCommit, n)
		for i := range t.Commits {
			cm := &t.Commits[i]
			cm.Sender, cm.ID = r.Addr(), r.Uvarint()
			if fs, err := blob().finalState(); err == nil {
				cm.State = *fs
			} else {
				nested(err)
			}
			cm.SubmittedBy, cm.Block = r.Addr(), r.Uvarint()
		}
	}
	if n := count(minFraudBytes); n > 0 {
		t.Fraud = make([]protocol.TemplateFraud, n)
		for i := range t.Fraud {
			t.Fraud[i] = protocol.TemplateFraud{Addr: r.Addr(), Sender: r.Addr(), ID: r.Uvarint()}
		}
	}
	flags := r.U8()
	if flags&^(ckptFlagExit|ckptFlagSettled) != 0 {
		r.Fail("template flags %#02x", flags)
	}
	t.Settled = flags&ckptFlagSettled != 0
	if flags&ckptFlagExit != 0 {
		t.Exit = &protocol.ExitRequest{By: r.Addr(), Deadline: r.Uvarint()}
	}

	if n := count(minNodeBytes); n > 0 {
		ck.Nodes = make([]ckptNode, n)
	}
	for i := range ck.Nodes {
		node := &ck.Nodes[i]
		node.Name = r.String(r.Remaining())
		node.LocalTemplate = r.Addr()
		node.LossDraws = r.Uvarint()
		node.DeviceState = blob()
		if n := count(minChannelBytes); n > 0 {
			node.Channels = make([]*ChannelState, n)
		}
		for j := range node.Channels {
			cs := &ChannelState{
				ID: r.Uvarint(), WireID: r.Uvarint(),
				Template: r.Addr(), Addr: r.Addr(), Peer: r.Addr(), Opener: r.Addr(),
				Role: protocol.Role(r.U8()), Deposit: r.Uvarint(), Seq: r.Uvarint(), Cumulative: r.Uvarint(),
			}
			lastPayment, pendingHTLC := blob(), blob()
			cs.PendingInbound = r.Bool()
			preimage, final := blob(), blob()
			cs.SensorValue = r.Uvarint()
			nested(channelObjects(cs, lastPayment, pendingHTLC, preimage, final))
			node.Channels[j] = cs
		}
		if n := count(minLogBytes); n > 0 {
			node.Log = make([]protocol.LogEntry, n)
		}
		for j := range node.Log {
			node.Log[j] = protocol.LogEntry{
				Index: r.Uvarint(), Kind: r.U8(), ChannelID: r.Uvarint(),
				Seq: r.Uvarint(), Amount: r.Uvarint(),
				Prev: r.Hash(), Hash: r.Hash(),
			}
		}
	}
	if n := count(minSensorBytes); n > 0 {
		ck.Sensors = make([]ckptSensor, n)
		for i := range ck.Sensors {
			ck.Sensors[i] = ckptSensor{Node: r.String(r.Remaining()), ID: r.Uvarint(), Value: r.Uvarint()}
		}
	}
	err := r.Done()
	if err == nil {
		err = nestedErr
	}
	if err != nil {
		return nil, fmt.Errorf("tinyevm: decoding checkpoint: %w", err)
	}
	return ck, nil
}

// channelObjects sets a checkpointed channel's nested protocol objects
// from their disk forms (see encode).
func channelObjects(cs *ChannelState, lastPayment, pendingHTLC, preimage, final blobField) (err error) {
	if cs.LastPayment, err = lastPayment.payment(); err != nil {
		return err
	}
	if cs.PendingHTLC, err = pendingHTLC.payment(); err != nil {
		return err
	}
	if cs.LastPreimage, err = preimage.preimage(); err != nil {
		return err
	}
	if len(final) > 0 {
		cs.Final, err = final.finalState()
	}
	return err
}

// install puts the fixed-value handler on the node's sensor bus.
func (r ckptSensor) install(sn *ServiceNode) {
	value := r.Value
	sn.n.RegisterSensor(r.ID, func(uint64) (uint64, error) { return value, nil })
}

// buildCheckpointLocked snapshots the whole deployment. It must run
// under the exclusive service lock, between operations (all radio
// inboxes drained — the snapshot does not capture in-flight frames
// because there never are any between operations).
func (s *Service) buildCheckpointLocked() *checkpointRecord {
	ck := &checkpointRecord{
		Seq:        s.opSeq,
		Height:     s.sys.Chain.Head().Number,
		ChainState: chain.SnapshotState(s.sys.Chain.State()),
		Template:   s.sys.Template.Snapshot(),
	}
	for _, sn := range s.order {
		ck.Nodes = append(ck.Nodes, ckptNode{
			Name:          sn.n.Name(),
			LocalTemplate: sn.n.LocalTemplate,
			LossDraws:     sn.n.Radio.LossDraws(),
			DeviceState:   chain.SnapshotState(sn.n.Dev.State),
			Channels:      sn.n.ChannelList(),
			Log:           sn.n.Log.Entries(),
		})
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
	s.sys.Template.Restore(ck.Template)

	if len(ck.Nodes) == 0 || len(s.order) != 1 {
		return fmt.Errorf("tinyevm: malformed checkpoint: %d nodes, %d already joined", len(ck.Nodes), len(s.order))
	}
	for i := range ck.Nodes {
		nrec := &ck.Nodes[i]
		var n *Node
		if i == 0 {
			// The provider joined when the system was built (its local
			// template deploy is deterministic, so the address must come
			// out where the checkpoint recorded it).
			n = s.order[0].n
			if n.Name() != nrec.Name {
				return fmt.Errorf("tinyevm: checkpoint provider %q, deployment provider %q", nrec.Name, n.Name())
			}
			if n.LocalTemplate != nrec.LocalTemplate {
				return fmt.Errorf("tinyevm: checkpoint provider template %s, deployed %s", nrec.LocalTemplate, n.LocalTemplate)
			}
		} else {
			var err error
			if n, err = s.sys.RestoreNode(nrec.Name, nrec.LocalTemplate); err != nil {
				return err
			}
			s.adopt(n)
		}
		// Wipe the device state and pour the snapshot over it.
		n.Dev.State.Reset()
		if err := chain.RestoreState(n.Dev.State, nrec.DeviceState); err != nil {
			return fmt.Errorf("tinyevm: restoring %s: %w", nrec.Name, err)
		}
		if err := n.RestoreProtocolState(nrec.Channels, nrec.Log); err != nil {
			return err
		}
		n.Radio.SetLossDraws(nrec.LossDraws)
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
