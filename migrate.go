package tinyevm

// The store's format stamp and the one-shot migrations of a store
// written by an older format.
//
//   - Format 0 (no stamp): the journal (op/*), the checkpoint
//     (ckpt/state) and the chain archive (chain/*) are JSON objects with
//     every address, hash and byte string spelled in hex. This file and
//     internal/chain/migrate.go are the only code that still
//     understands them, and they only read them.
//   - Format 2: binary records, but the chain archive also holds a head
//     pointer (chain/meta/head) and one record per account
//     (chain/acct/*) beside its blocks. Nothing reads them any more.
//   - Format 3: binary records; the chain archive is chain/block/* alone.
//
// The stamp is the "format" field of meta/service, the deployment's
// parameter record — a handful of scalars read once per open, and the
// one record that stays JSON, which is why it lives in this file.
// storedMeta is the single place a format is inspected. A store of an
// older format — or with no meta at all — is rewritten in ONE atomic
// batch that also writes the stamped meta, so a crash leaves either the
// old store or the migrated one, a second open migrates nothing, and
// every decoder on the recovery path sees the current format only. A
// legacy record that does not decode fails the migration (and so the
// open): nothing is skipped, except the account and head records, which
// are dropped unread. No option selects a format.

import (
	"encoding/hex"
	"encoding/json"
	"fmt"

	"tinyevm/internal/chain"
	"tinyevm/internal/protocol"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
)

// serviceMeta pins the deployment parameters that change replay
// semantics. It is written the first time a store is used and verified
// on every recovery: replaying a log under a different provider name,
// challenge period or radio loss process would reconstruct a different
// history, so it is refused up front.
type serviceMeta struct {
	Provider        string  `json:"provider"`
	ChallengePeriod uint64  `json:"challengePeriod"`
	RadioSeed       int64   `json:"radioSeed"`
	RadioLossRate   float64 `json:"radioLossRate"`
	// StateCommitment is "" for the legacy full-state digest and "mst"
	// for the incremental Merkle-sum-tree commitment — persisted state
	// commitments differ between the modes, so a store written in one
	// refuses to open in the other. Stores from before the knob existed
	// decode to "" and keep working in digest mode.
	StateCommitment string `json:"stateCommitment,omitempty"`
	// ProviderFunds and NodeFunds are the initial chain balances every
	// replay starts from. Stores from before they were recorded decode
	// to 0 and were funded with legacyFunds, the default of their day.
	ProviderFunds uint64 `json:"providerFunds,omitempty"`
	NodeFunds     uint64 `json:"nodeFunds,omitempty"`
	// Format stamps the store: absent (0) on one whose records are JSON,
	// then 2 and storeFormat (see the file comment).
	Format int `json:"format,omitempty"`
}

const (
	serviceMetaKey = "meta/service"
	legacyFunds    = 100_000_000
	storeFormat    = 3
)

// storedMeta reads the deployment parameters a store was first used
// with, if it has been used, migrating the store first when its meta
// carries an older stamp or none.
func storedMeta(kv store.KVStore) (meta serviceMeta, ok bool, err error) {
	data, ok, err := kv.Get([]byte(serviceMetaKey))
	if err != nil || !ok {
		return meta, false, err
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return meta, false, fmt.Errorf("tinyevm: decoding store meta: %w", err)
	}
	if meta.ProviderFunds == 0 && meta.NodeFunds == 0 {
		meta.ProviderFunds, meta.NodeFunds = legacyFunds, legacyFunds
	}
	switch meta.Format {
	case storeFormat:
	case 0, 2:
		fromJSON := meta.Format == 0
		meta.Format = storeFormat
		if err := migrateStore(kv, meta, fromJSON); err != nil {
			return meta, false, err
		}
	default:
		return meta, false, fmt.Errorf("tinyevm: store has record format %d, this build reads %d", meta.Format, storeFormat)
	}
	return meta, true, nil
}

// checkMeta verifies the store's deployment parameters against the
// requested ones, or records them on first use.
func checkMeta(kv store.KVStore, have serviceMeta, used bool, meta serviceMeta) error {
	meta.Format = storeFormat
	if !used {
		// No meta, no stamp: whatever the store already holds (nothing,
		// on a real first use) predates the stamp and is rewritten in
		// the batch that writes it.
		return migrateStore(kv, meta, true)
	}
	if have != meta {
		return fmt.Errorf("tinyevm: store belongs to a different deployment (store %+v, requested %+v)", have, meta)
	}
	return nil
}

// The hex spellings of the record fields.

type hexAddr addrField

func (f *hexAddr) UnmarshalText(text []byte) error {
	a, err := types.HexToAddress(string(text))
	*f = a[:]
	return err
}

func (f hexAddr) addr() Address { return addrField(f).addr() }

type hexHash hashField

func (f *hexHash) UnmarshalText(text []byte) error {
	h, err := types.HexToHash(string(text))
	*f = h[:]
	return err
}

func (f hexHash) hash() Hash { return hashField(f).hash() }

type hexBlob blobField

func (f *hexBlob) UnmarshalText(text []byte) (err error) {
	*f, err = hex.AppendDecode(nil, text)
	return err
}

type legacyStep struct {
	Node    string `json:"node"`
	Channel uint64 `json:"channel"`
}

type legacyReading struct {
	ID    uint64 `json:"id"`
	Value uint64 `json:"value"`
}

type legacyOp struct {
	Seq         uint64          `json:"seq"`
	Op          string          `json:"op"`
	Node        string          `json:"node,omitempty"`
	Name        string          `json:"name,omitempty"`
	Peer        hexAddr         `json:"peer,omitempty"`
	Channel     uint64          `json:"channel,omitempty"`
	Amount      uint64          `json:"amount,omitempty"`
	Fee         uint64          `json:"fee,omitempty"`
	Deposit     uint64          `json:"deposit,omitempty"`
	SensorParam uint64          `json:"sensorParam,omitempty"`
	SensorID    uint64          `json:"sensorId,omitempty"`
	Value       uint64          `json:"value,omitempty"`
	Lock        hexHash         `json:"lock,omitempty"`
	Secret      hexBlob         `json:"secret,omitempty"`
	Final       hexBlob         `json:"final,omitempty"`
	Receiver    string          `json:"receiver,omitempty"`
	Steps       []legacyStep    `json:"steps,omitempty"`
	Readings    []legacyReading `json:"readings,omitempty"`
	Data        hexBlob         `json:"data,omitempty"`
	Addr        hexAddr         `json:"addr,omitempty"`
}

// record converts the decoded legacy operation. Its secret and final
// state are decoded as replay will decode them, so a record replay
// would refuse fails the migration instead.
func (l *legacyOp) record() (*opRecord, error) {
	rec := &opRecord{
		Seq: l.Seq, Op: l.Op, Node: l.Node, Name: l.Name, Peer: addrField(l.Peer),
		Channel: l.Channel, Amount: l.Amount, Fee: l.Fee, Deposit: l.Deposit,
		SensorParam: l.SensorParam, SensorID: l.SensorID, Value: l.Value,
		Lock: hashField(l.Lock), Secret: blobField(l.Secret), Final: blobField(l.Final),
		Receiver: l.Receiver, Data: blobField(l.Data), Addr: addrField(l.Addr),
	}
	for _, st := range l.Steps {
		rec.Steps = append(rec.Steps, RouteStep(st))
	}
	for _, rd := range l.Readings {
		rec.Readings = append(rec.Readings, SensorReading(rd))
	}
	if len(rec.Secret) > 0 {
		if _, err := rec.Secret.secret(); err != nil {
			return nil, err
		}
	}
	if len(rec.Final) > 0 {
		if _, err := rec.Final.finalState(); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

type legacyCheckpoint struct {
	Seq        uint64          `json:"seq"`
	Height     uint64          `json:"height"`
	ChainState json.RawMessage `json:"chainState"`
	Template   struct {
		Deposits []struct {
			Addr   hexAddr `json:"addr"`
			Amount uint64  `json:"amount"`
		} `json:"deposits,omitempty"`
		Commits []struct {
			Sender      hexAddr `json:"sender"`
			ID          uint64  `json:"id"`
			State       hexBlob `json:"state"`
			SubmittedBy hexAddr `json:"submittedBy"`
			Block       uint64  `json:"block"`
		} `json:"commits,omitempty"`
		Fraud []struct {
			Addr   hexAddr `json:"addr"`
			Sender hexAddr `json:"sender"`
			ID     uint64  `json:"id"`
		} `json:"fraud,omitempty"`
		ExitBy  hexAddr `json:"exitBy,omitempty"`
		ExitAt  uint64  `json:"exitDeadline,omitempty"`
		HasExit bool    `json:"hasExit,omitempty"`
		Settled bool    `json:"settled,omitempty"`
	} `json:"template"`
	Nodes   []legacyNode `json:"nodes"`
	Sensors []struct {
		Node  string `json:"node"`
		ID    uint64 `json:"id"`
		Value uint64 `json:"value"`
	} `json:"sensors,omitempty"`
}

type legacyNode struct {
	Name          string          `json:"name"`
	LocalTemplate hexAddr         `json:"localTemplate"`
	DeviceState   json.RawMessage `json:"deviceState"`
	Channels      []struct {
		ID             uint64  `json:"id"`
		WireID         uint64  `json:"wireId"`
		Template       hexAddr `json:"template"`
		Addr           hexAddr `json:"addr"`
		Peer           hexAddr `json:"peer"`
		Opener         hexAddr `json:"opener"`
		Role           uint8   `json:"role"`
		Deposit        uint64  `json:"deposit"`
		Seq            uint64  `json:"seq,omitempty"`
		Cumulative     uint64  `json:"cumulative,omitempty"`
		LastPayment    hexBlob `json:"lastPayment,omitempty"`
		PendingHTLC    hexBlob `json:"pendingHtlc,omitempty"`
		PendingInbound bool    `json:"pendingInbound,omitempty"`
		LastPreimage   hexBlob `json:"lastPreimage,omitempty"`
		Final          hexBlob `json:"final,omitempty"`
		SensorValue    uint64  `json:"sensorValue,omitempty"`
	} `json:"channels,omitempty"`
	Log []struct {
		Index     uint64  `json:"index"`
		Kind      uint8   `json:"kind"`
		ChannelID uint64  `json:"channelId"`
		Seq       uint64  `json:"seq,omitempty"`
		Amount    uint64  `json:"amount,omitempty"`
		Prev      hexHash `json:"prev"`
		Hash      hexHash `json:"hash"`
	} `json:"log,omitempty"`
	LossDraws uint64 `json:"lossDraws,omitempty"`
}

// record converts the decoded legacy checkpoint into the protocol's
// types, decoding the nested payments, final states and preimages as
// decodeCheckpoint does; the two nested state snapshots are converted by
// the chain package, which owns their form.
func (l *legacyCheckpoint) record() (*checkpointRecord, error) {
	ck := &checkpointRecord{Seq: l.Seq, Height: l.Height}
	var err error
	if ck.ChainState, err = chain.MigrateStateSnapshot(l.ChainState); err != nil {
		return nil, err
	}
	lt, t := &l.Template, &ck.Template
	for _, d := range lt.Deposits {
		t.Deposits = append(t.Deposits, protocol.TemplateDeposit{Addr: d.Addr.addr(), Amount: d.Amount})
	}
	for _, cm := range lt.Commits {
		fs, err := blobField(cm.State).finalState()
		if err != nil {
			return nil, err
		}
		t.Commits = append(t.Commits, protocol.TemplateCommit{
			Sender: cm.Sender.addr(), ID: cm.ID, State: *fs,
			SubmittedBy: cm.SubmittedBy.addr(), Block: cm.Block,
		})
	}
	for _, f := range lt.Fraud {
		t.Fraud = append(t.Fraud, protocol.TemplateFraud{Addr: f.Addr.addr(), Sender: f.Sender.addr(), ID: f.ID})
	}
	if lt.HasExit {
		t.Exit = &protocol.ExitRequest{By: lt.ExitBy.addr(), Deadline: lt.ExitAt}
	}
	t.Settled = lt.Settled
	for i := range l.Nodes {
		ln := &l.Nodes[i]
		node := ckptNode{Name: ln.Name, LocalTemplate: ln.LocalTemplate.addr(), LossDraws: ln.LossDraws}
		if node.DeviceState, err = chain.MigrateStateSnapshot(ln.DeviceState); err != nil {
			return nil, err
		}
		for _, c := range ln.Channels {
			cs := &ChannelState{
				ID: c.ID, WireID: c.WireID,
				Template: c.Template.addr(), Addr: c.Addr.addr(),
				Peer: c.Peer.addr(), Opener: c.Opener.addr(),
				Role: protocol.Role(c.Role), Deposit: c.Deposit, Seq: c.Seq, Cumulative: c.Cumulative,
				PendingInbound: c.PendingInbound, SensorValue: c.SensorValue,
			}
			err := channelObjects(cs, blobField(c.LastPayment), blobField(c.PendingHTLC),
				blobField(c.LastPreimage), blobField(c.Final))
			if err != nil {
				return nil, err
			}
			node.Channels = append(node.Channels, cs)
		}
		for _, e := range ln.Log {
			node.Log = append(node.Log, protocol.LogEntry{
				Index: e.Index, Kind: e.Kind, ChannelID: e.ChannelID, Seq: e.Seq, Amount: e.Amount,
				Prev: e.Prev.hash(), Hash: e.Hash.hash(),
			})
		}
		ck.Nodes = append(ck.Nodes, node)
	}
	for _, sr := range l.Sensors {
		ck.Sensors = append(ck.Sensors, ckptSensor(sr))
	}
	return ck, nil
}

// migrateStore brings kv to storeFormat in one atomic batch: it
// rewrites whatever journal, checkpoint and chain records kv holds from
// JSON to binary (fromJSON), drops the chain's account and head records
// and writes the stamped meta. On a store's first use there is nothing
// to rewrite and the batch is the meta record alone.
func migrateStore(kv store.KVStore, meta serviceMeta, fromJSON bool) error {
	batch := kv.Batch()
	if fromJSON {
		if err := migrateJSON(kv, batch); err != nil {
			return err
		}
	}
	if err := dropChainState(kv, batch); err != nil {
		return err
	}
	out, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	batch.Put([]byte(serviceMetaKey), out)
	return batch.Commit()
}

// migrateJSON puts the binary form of every JSON journal, checkpoint
// and chain block record of kv into batch.
func migrateJSON(kv store.KVStore, batch store.Batch) error {
	var buf []byte
	if err := kv.Iterate([]byte(opKeyPrefix), func(key, value []byte) error {
		var l legacyOp
		err := json.Unmarshal(value, &l)
		var rec *opRecord
		if err == nil {
			rec, err = l.record()
		}
		if err != nil {
			return fmt.Errorf("tinyevm: migrating op record %s: %w", key, err)
		}
		buf = rec.encode(buf)
		batch.Put(key, buf)
		return nil
	}); err != nil {
		return err
	}
	if data, ok, err := kv.Get([]byte(checkpointKey)); err != nil {
		return err
	} else if ok {
		var l legacyCheckpoint
		if err := json.Unmarshal(data, &l); err != nil {
			return fmt.Errorf("tinyevm: migrating %s: %w", checkpointKey, err)
		}
		ck, err := l.record()
		if err != nil {
			return fmt.Errorf("tinyevm: migrating %s: %w", checkpointKey, err)
		}
		batch.Put([]byte(checkpointKey), ck.encode())
	}
	return chain.MigrateLegacy(store.Prefixed(kv, chainPrefix), func(key, value []byte) {
		batch.Put(append([]byte(chainPrefix), key...), value)
	})
}

// dropChainState deletes the chain records formats before storeFormat
// kept beside the blocks: one per account and the head pointer. The
// accounts come back from the checkpoint and the journal, the head is
// the highest block.
func dropChainState(kv store.KVStore, batch store.Batch) error {
	if err := kv.Iterate([]byte(chainPrefix+"acct/"), func(key, _ []byte) error {
		batch.Delete(key)
		return nil
	}); err != nil {
		return err
	}
	const head = chainPrefix + "meta/head"
	if _, ok, err := kv.Get([]byte(head)); err != nil || !ok {
		return err
	}
	batch.Delete([]byte(head))
	return nil
}
