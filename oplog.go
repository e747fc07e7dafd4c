package tinyevm

// The durable operation log behind WithStore/WithDataDir: every
// state-changing service operation is journaled as one opRecord BEFORE
// it executes (write-ahead intent logging), and NewService replays the
// log through the same apply the live path uses (ops.go) to reconstruct
// the deployment after a crash or restart. This file is the record, the
// append and the replay loop; what each kind of record means is its
// opDef.
//
// Why replay works: the whole simulation is deterministic. Device keys
// derive from node names, ECDSA signing uses RFC 6979 nonces, the radio
// loss process is seeded, and block timestamps follow the fixed
// interval. The only nondeterministic inputs — routing secrets and
// sensor readings — are captured inside the records themselves, so
// replaying the log reproduces balances, channels, blocks and state
// digests byte-for-byte. The chain's persistence hook cross-checks
// this on every replayed seal: a block that does not match the record
// already in the store fails recovery instead of silently forking
// history.
//
// Keyspace (under the service's "op/" namespace of the shared store):
//
//	op/<seq %016x> -> opRecord, binary (layout at opRecord.encode)
//
// The log is append-only through the KVStore; on the WAL backend each
// record is one checksummed batch. Logging intent-first means an
// operation that was journaled but not acknowledged before a crash is
// still applied on recovery — the durability contract is "acknowledged
// operations survive; the tail may include the in-flight one".

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"tinyevm/internal/codec"
	"tinyevm/internal/store"
	"tinyevm/internal/store/disk"
)

// opRecord is one journaled operation: a flat union over every op
// kind. Op is the opDef's name, filled in by run. Its disk form (pinned
// by TestOpRecordFormatPin) carries only the fields that are set.
type opRecord struct {
	Seq uint64
	Op  string

	Node        string
	Name        string
	Peer        addrField
	Channel     uint64
	Amount      uint64
	Fee         uint64
	Deposit     uint64
	SensorParam uint64
	SensorID    uint64
	Value       uint64
	Lock        hashField
	Secret      blobField
	Final       blobField
	Receiver    string
	Steps       []RouteStep
	Readings    []SensorReading // captured at log time: replay does not touch the sensor bus
	Data        blobField
	Addr        addrField
}

// Presence bits of the optional fields, in declaration order. A bit is
// never reused: a retired field keeps its bit and decode refuses it.
const (
	fNode uint32 = 1 << iota
	fName
	fPeer
	fChannel
	fAmount
	fFee
	fDeposit
	fSensorParam
	fSensorID
	fValue
	fLock
	fSecret
	fFinal
	fReceiver
	fSteps
	fReadings
	fData
	fAddr
	opFieldBits = iota
)

// encode appends the record's disk form to buf[:0]:
//
//	format | seq uvarint | op string | present u32 | the present fields
//
// in declaration order — strings and blobs as a u32 length and the
// bytes, integers as uvarints, Peer and Addr as 20 raw bytes, Lock as
// 32, Steps as a u32 count of (node string, channel uvarint), Readings
// as a u32 count of (id uvarint, value uvarint). A field is present iff
// it is non-zero (non-empty), so a record has exactly one encoding.
func (rec *opRecord) encode(buf []byte) []byte {
	w := codec.NewRecord(buf)
	w.Uvarint(rec.Seq)
	w.String(rec.Op)
	mark := len(w.Buf)
	w.U32(0)
	var present uint32
	str := func(bit uint32, v string) {
		if v != "" {
			present |= bit
			w.String(v)
		}
	}
	u64 := func(bit uint32, v uint64) {
		if v != 0 {
			present |= bit
			w.Uvarint(v)
		}
	}
	blob := func(bit uint32, v []byte) {
		if len(v) != 0 {
			present |= bit
			w.Bytes(v)
		}
	}
	str(fNode, rec.Node)
	str(fName, rec.Name)
	if len(rec.Peer) != 0 {
		present |= fPeer
		w.Addr(rec.Peer.addr())
	}
	u64(fChannel, rec.Channel)
	u64(fAmount, rec.Amount)
	u64(fFee, rec.Fee)
	u64(fDeposit, rec.Deposit)
	u64(fSensorParam, rec.SensorParam)
	u64(fSensorID, rec.SensorID)
	u64(fValue, rec.Value)
	if len(rec.Lock) != 0 {
		present |= fLock
		w.Hash(rec.Lock.hash())
	}
	blob(fSecret, rec.Secret)
	blob(fFinal, rec.Final)
	str(fReceiver, rec.Receiver)
	if len(rec.Steps) != 0 {
		present |= fSteps
		w.U32(uint32(len(rec.Steps)))
		for _, st := range rec.Steps {
			w.String(st.Node)
			w.Uvarint(st.Channel)
		}
	}
	if len(rec.Readings) != 0 {
		present |= fReadings
		w.U32(uint32(len(rec.Readings)))
		for _, rd := range rec.Readings {
			w.Uvarint(rd.ID)
			w.Uvarint(rd.Value)
		}
	}
	blob(fData, rec.Data)
	if len(rec.Addr) != 0 {
		present |= fAddr
		w.Addr(rec.Addr.addr())
	}
	binary.BigEndian.PutUint32(w.Buf[mark:], present)
	return w.Buf
}

// decodeOpRecord parses one journal record, exactly: an unknown
// presence bit, a present field holding its zero value, a short field
// or a trailing byte is errBadRecord. Byte-string fields are views into
// data.
func decodeOpRecord(data []byte) (*opRecord, error) {
	r := codec.OpenRecord(data, errBadRecord)
	rec := &opRecord{Seq: r.Uvarint(), Op: r.String(r.Remaining())}
	present := r.U32()
	if present>>opFieldBits != 0 {
		r.Fail("unknown field bits %#x", present)
	}
	has := func(bit uint32) bool { return present&bit != 0 && r.Err() == nil }
	empty := func(bit uint32, isZero bool) {
		if isZero {
			r.Fail("field %#x present but empty", bit)
		}
	}
	str := func(bit uint32) (v string) {
		if has(bit) {
			v = r.String(r.Remaining())
			empty(bit, v == "")
		}
		return v
	}
	u64 := func(bit uint32) (v uint64) {
		if has(bit) {
			v = r.Uvarint()
			empty(bit, v == 0)
		}
		return v
	}
	blob := func(bit uint32) (v []byte) {
		if has(bit) {
			v = r.View(r.Remaining())
			empty(bit, len(v) == 0)
		}
		return v
	}
	fixed := func(bit uint32, n int) (v []byte) {
		if has(bit) {
			v = r.Fixed(n)
		}
		return v
	}
	rec.Node = str(fNode)
	rec.Name = str(fName)
	rec.Peer = fixed(fPeer, len(Address{}))
	rec.Channel = u64(fChannel)
	rec.Amount = u64(fAmount)
	rec.Fee = u64(fFee)
	rec.Deposit = u64(fDeposit)
	rec.SensorParam = u64(fSensorParam)
	rec.SensorID = u64(fSensorID)
	rec.Value = u64(fValue)
	rec.Lock = fixed(fLock, len(Hash{}))
	rec.Secret = blob(fSecret)
	rec.Final = blob(fFinal)
	rec.Receiver = str(fReceiver)
	if has(fSteps) {
		n := r.Count(r.Remaining() / 5) // a step is at least a u32 length and a uvarint
		empty(fSteps, n == 0)
		rec.Steps = make([]RouteStep, n)
		for i := range rec.Steps {
			rec.Steps[i] = RouteStep{Node: r.String(r.Remaining()), Channel: r.Uvarint()}
		}
	}
	if has(fReadings) {
		n := r.Count(r.Remaining() / 2)
		empty(fReadings, n == 0)
		rec.Readings = make([]SensorReading, n)
		for i := range rec.Readings {
			rec.Readings[i] = SensorReading{ID: r.Uvarint(), Value: r.Uvarint()}
		}
	}
	rec.Data = blob(fData)
	rec.Addr = fixed(fAddr, len(Address{}))
	if err := r.Done(); err != nil {
		return nil, err
	}
	return rec, nil
}

const opKeyPrefix = "op/"

func opKey(seq uint64) []byte { return store.HexKey(opKeyPrefix, seq) }

// logOp journals rec as the next sequence entry. With no store attached
// it is a no-op. The append happens BEFORE the operation executes;
// a failed append fails the operation without applying it.
//
// The sequencer lock (logMu) makes seq assignment + append atomic, so
// concurrent sharded operations get dense, crash-consistent sequence
// numbers. Callers still hold their shard locks (or the exclusive
// service lock) across logOp AND the subsequent apply, which is what
// guarantees that conflicting operations are journaled in their
// execution order — see the linearization argument in shard.go.
func (s *Service) logOp(rec *opRecord) error {
	if s.ops == nil {
		return nil
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	rec.Seq = s.opSeq
	// The store's batch copies the value, so one buffer serves every
	// record.
	s.opBuf = rec.encode(s.opBuf)
	if err := s.ops.Put(opKey(rec.Seq), s.opBuf); err != nil {
		return fmt.Errorf("tinyevm: journaling %s op: %w", rec.Op, err)
	}
	s.opSeq++
	return nil
}

// replayOps re-applies the journaled operation log against the freshly
// built (or checkpoint-restored) system, returning how many operations
// replayed. Records below the checkpoint watermark (s.opSeq, set by
// restoreFromCheckpoint; 0 without one) are already folded into the
// snapshot and are skipped — checkpointing prunes them atomically, so
// normally none exist. A well-formed record's own error is ignored (the
// live attempt failed identically); a record replay cannot interpret —
// bytes that do not decode exactly, an unknown op, a misshapen secret or
// final state — and chain/store divergence abort the recovery.
func (s *Service) replayOps() (int, error) {
	count := 0
	watermark := s.opSeq
	err := s.ops.Iterate([]byte(opKeyPrefix), func(key, value []byte) error {
		rec, err := decodeOpRecord(value)
		if err != nil {
			return fmt.Errorf("tinyevm: decoding op record %s: %w", key, err)
		}
		if rec.Seq < watermark {
			return nil
		}
		if rec.Seq >= s.opSeq {
			s.opSeq = rec.Seq + 1 // single-threaded recovery; no logMu needed
		}
		def, ok := opByName[rec.Op]
		if !ok {
			return fmt.Errorf("tinyevm: op record %s: unknown op %q", key, rec.Op)
		}
		if _, err := s.apply(def, rec); errors.Is(err, errBadRecord) {
			return fmt.Errorf("tinyevm: op record %s: %w", key, err)
		}
		count++
		return nil
	})
	if err != nil {
		return count, err
	}
	if err := s.sys.Chain.StoreErr(); err != nil {
		return count, fmt.Errorf("tinyevm: recovery verification failed after %d ops: %w", count, err)
	}
	if err := s.sys.Chain.VerifyStoreHead(); err != nil {
		return count, fmt.Errorf("tinyevm: recovery verification failed after %d ops: %w", count, err)
	}
	return count, nil
}

// openDataDir opens the service-owned store under dir: the WAL file by
// default, the embedded disk backend with WithStoreBackend("disk").
// TINYEVM_DISK_FLUSH_BYTES overrides the disk backend's memtable flush
// threshold — the store-smoke harness shrinks it to force segment
// flushes and background compactions within a short workload.
func openDataDir(dir, backend string) (store.KVStore, error) {
	switch backend {
	case "", "wal":
		return store.OpenWAL(filepath.Join(dir, "tinyevm.wal"))
	case "disk":
		var opts []disk.Option
		if v := os.Getenv("TINYEVM_DISK_FLUSH_BYTES"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("tinyevm: bad TINYEVM_DISK_FLUSH_BYTES %q", v)
			}
			opts = append(opts, disk.WithFlushBytes(n))
		}
		return disk.Open(filepath.Join(dir, "store"), opts...)
	default:
		return nil, fmt.Errorf("tinyevm: unknown store backend %q (want \"wal\" or \"disk\")", backend)
	}
}
