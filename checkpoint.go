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
//	ckpt/state -> checkpointRecord JSON
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
	"encoding/json"
	"fmt"

	"tinyevm/internal/chain"
	"tinyevm/internal/device"
	"tinyevm/internal/evm"
	"tinyevm/internal/protocol"
)

const checkpointKey = "ckpt/state"

// checkpointRecord is the persisted deployment snapshot.
type checkpointRecord struct {
	// Seq is the op-log watermark: operations with Seq < this value are
	// folded into the snapshot (and pruned); replay starts here.
	Seq uint64 `json:"seq"`
	// Height is the chain block height the snapshot was taken at.
	Height uint64 `json:"height"`
	// ChainState is chain.SnapshotState of the main-chain accounts.
	ChainState json.RawMessage `json:"chainState"`
	// Template is the on-chain template's mutable state.
	Template ckptTemplate `json:"template"`
	// Nodes holds every node in join order (the provider first).
	Nodes []ckptNode `json:"nodes"`
	// Sensors are the journaled fixed-value sensor registrations, in
	// registration order.
	Sensors []ckptSensor `json:"sensors,omitempty"`
}

type ckptTemplate struct {
	Deposits []ckptDeposit `json:"deposits,omitempty"`
	Commits  []ckptCommit  `json:"commits,omitempty"`
	Fraud    []ckptFraud   `json:"fraud,omitempty"`
	ExitBy   addrField     `json:"exitBy,omitempty"`
	ExitAt   uint64        `json:"exitDeadline,omitempty"`
	HasExit  bool          `json:"hasExit,omitempty"`
	Settled  bool          `json:"settled,omitempty"`
}

type ckptDeposit struct {
	Addr   addrField `json:"addr"`
	Amount uint64    `json:"amount"`
}

type ckptCommit struct {
	Sender      addrField `json:"sender"`
	ID          uint64    `json:"id"`
	State       blobField `json:"state"` // wire FinalState
	SubmittedBy addrField `json:"submittedBy"`
	Block       uint64    `json:"block"`
}

type ckptFraud struct {
	Addr   addrField `json:"addr"`
	Sender addrField `json:"sender"`
	ID     uint64    `json:"id"`
}

type ckptNode struct {
	Name          string          `json:"name"`
	LocalTemplate addrField       `json:"localTemplate"`
	DeviceState   json.RawMessage `json:"deviceState"`
	Channels      []ckptChannel   `json:"channels,omitempty"`
	Log           []ckptLogEntry  `json:"log,omitempty"`
	// LossDraws is the node's position in its radio loss stream (zero,
	// and omitted, on a loss-free network).
	LossDraws uint64 `json:"lossDraws,omitempty"`
}

type ckptChannel struct {
	ID             uint64    `json:"id"`
	WireID         uint64    `json:"wireId"`
	Template       addrField `json:"template"`
	Addr           addrField `json:"addr"`
	Peer           addrField `json:"peer"`
	Opener         addrField `json:"opener"`
	Role           uint8     `json:"role"`
	Deposit        uint64    `json:"deposit"`
	Seq            uint64    `json:"seq,omitempty"`
	Cumulative     uint64    `json:"cumulative,omitempty"`
	LastPayment    blobField `json:"lastPayment,omitempty"` // wire Payment
	PendingHTLC    blobField `json:"pendingHtlc,omitempty"` // wire Payment
	PendingInbound bool      `json:"pendingInbound,omitempty"`
	LastPreimage   blobField `json:"lastPreimage,omitempty"` // Secret
	Final          blobField `json:"final,omitempty"`        // wire FinalState
	SensorValue    uint64    `json:"sensorValue,omitempty"`
}

type ckptLogEntry struct {
	Index     uint64    `json:"index"`
	Kind      uint8     `json:"kind"`
	ChannelID uint64    `json:"channelId"`
	Seq       uint64    `json:"seq,omitempty"`
	Amount    uint64    `json:"amount,omitempty"`
	Prev      hashField `json:"prev"`
	Hash      hashField `json:"hash"`
}

type ckptSensor struct {
	Node  string `json:"node"`
	ID    uint64 `json:"id"`
	Value uint64 `json:"value"`
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
func (s *Service) buildCheckpointLocked() (*checkpointRecord, error) {
	ck := &checkpointRecord{
		Seq:    s.opSeq,
		Height: s.sys.Chain.Head().Number,
	}
	chainState, err := chain.SnapshotState(s.sys.Chain.State())
	if err != nil {
		return nil, err
	}
	ck.ChainState = chainState
	ck.Template = encodeTemplateSnapshot(s.sys.Template.Snapshot())
	for _, sn := range s.order {
		node := ckptNode{
			Name:          sn.n.Name(),
			LocalTemplate: addrOf(sn.n.LocalTemplate),
			LossDraws:     sn.n.Radio.LossDraws(),
		}
		devState, err := chain.SnapshotState(sn.n.Dev.State)
		if err != nil {
			return nil, err
		}
		node.DeviceState = devState
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
	return ck, nil
}

// maybeCheckpointLocked writes a checkpoint when the chain head has
// advanced at least the configured interval past the last one. Called
// at the end of every exclusive-path operation (the only path that
// seals blocks); the sharded hot path never comes through here.
func (s *Service) maybeCheckpointLocked() error {
	if s.ops == nil || s.ckptInterval == 0 || s.cluster != nil {
		return nil
	}
	head := s.sys.Chain.Head().Number
	if head < s.lastCkptHeight+s.ckptInterval {
		return nil
	}
	ck, err := s.buildCheckpointLocked()
	if err != nil {
		return fmt.Errorf("tinyevm: building checkpoint: %w", err)
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("tinyevm: encoding checkpoint: %w", err)
	}
	// One atomic batch: the snapshot plus the pruning of every journaled
	// op it folds in — routed through the chain's commit ordering so it
	// lands only after all previously sealed blocks are durable.
	batch := s.ops.Batch()
	batch.Put([]byte(checkpointKey), data)
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
	var ck checkpointRecord
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, false, fmt.Errorf("tinyevm: decoding checkpoint: %w", err)
	}
	return &ck, true, nil
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
