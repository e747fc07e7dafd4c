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
//	op/<seq %016x> -> opRecord JSON
//
// The log is append-only through the KVStore; on the WAL backend each
// record is one checksummed batch. Logging intent-first means an
// operation that was journaled but not acknowledged before a crash is
// still applied on recovery — the durability contract is "acknowledged
// operations survive; the tail may include the in-flight one".

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"tinyevm/internal/store"
	"tinyevm/internal/store/disk"
)

// opStep is one hop of a journaled multi-hop route.
type opStep struct {
	Node    string `json:"node"`
	Channel uint64 `json:"channel"`
}

// opReading is one journaled sensor reading (nondeterministic input,
// captured at log time so replay does not touch the sensor bus).
type opReading struct {
	ID    uint64 `json:"id"`
	Value uint64 `json:"value"`
}

// opRecord is one journaled operation: a flat union over every op
// kind whose JSON is the journal's disk format (pinned by
// TestOpRecordFormatPin); unused fields stay out of the JSON. Op is the
// opDef's name, filled in by run.
type opRecord struct {
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`

	Node        string      `json:"node,omitempty"`
	Name        string      `json:"name,omitempty"`
	Peer        addrField   `json:"peer,omitempty"`
	Channel     uint64      `json:"channel,omitempty"`
	Amount      uint64      `json:"amount,omitempty"`
	Fee         uint64      `json:"fee,omitempty"`
	Deposit     uint64      `json:"deposit,omitempty"`
	SensorParam uint64      `json:"sensorParam,omitempty"`
	SensorID    uint64      `json:"sensorId,omitempty"`
	Value       uint64      `json:"value,omitempty"`
	Lock        hashField   `json:"lock,omitempty"`
	Secret      blobField   `json:"secret,omitempty"`
	Final       blobField   `json:"final,omitempty"`
	Receiver    string      `json:"receiver,omitempty"`
	Steps       []opStep    `json:"steps,omitempty"`
	Readings    []opReading `json:"readings,omitempty"`
	Data        blobField   `json:"data,omitempty"`
	Addr        addrField   `json:"addr,omitempty"`
}

const opKeyPrefix = "op/"

func opKey(seq uint64) []byte { return []byte(fmt.Sprintf("%s%016x", opKeyPrefix, seq)) }

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
}

const (
	serviceMetaKey = "meta/service"
	legacyFunds    = 100_000_000
)

// storedMeta reads the deployment parameters a store was first used
// with, if it has been used.
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
	return meta, true, nil
}

// checkMeta verifies (or, on first use, records) the store's deployment
// parameters.
func (s *Service) checkMeta(meta serviceMeta) error {
	have, ok, err := storedMeta(s.ops)
	if err != nil {
		return err
	}
	if !ok {
		out, err := json.Marshal(meta)
		if err != nil {
			return err
		}
		return s.ops.Put([]byte(serviceMetaKey), out)
	}
	if have != meta {
		return fmt.Errorf("tinyevm: store belongs to a different deployment (store %+v, requested %+v)", have, meta)
	}
	return nil
}

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
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("tinyevm: encoding op record: %w", err)
	}
	if err := s.ops.Put(opKey(rec.Seq), data); err != nil {
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
// undecodable JSON or hex, an unknown op, a misshapen secret or final
// state — and chain/store divergence abort the recovery.
func (s *Service) replayOps() (int, error) {
	count := 0
	watermark := s.opSeq
	err := s.ops.Iterate([]byte(opKeyPrefix), func(key, value []byte) error {
		var rec opRecord
		if err := json.Unmarshal(value, &rec); err != nil {
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
		if _, err := s.apply(def, &rec); errors.Is(err, errBadRecord) {
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
