package tinyevm

// The store's format stamp and the support window.
//
//   - Format 2: binary records, but the chain archive also holds a head
//     pointer (chain/meta/head) and one record per account
//     (chain/acct/*) beside its blocks. Nothing reads them any more.
//   - Format 3 (storeFormat): binary records; the chain archive is
//     chain/block/* alone.
//
// A build opens its own format and the one before it, nothing else. The
// stamp is the "format" field of meta/service, the deployment's
// parameter record — a handful of scalars read once per open, and the
// one record that stays JSON, which is why it lives in this file.
// storedMeta is the single place a format is inspected. Any other store
// — a stamp of 0 or none, records without a meta, a stamp from a later
// build — is refused with ErrStoreFormat before anything is written. A
// format-2 store is brought to storeFormat in ONE atomic batch that
// also writes the stamped meta, so a crash leaves either the old store
// or the migrated one, a second open migrates nothing, and every
// decoder on the recovery path sees the current format only. Each
// format bump adds one step here and deletes the one that fell out of
// the window. No option selects a format.

import (
	"encoding/json"
	"fmt"

	"tinyevm/internal/store"
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
	// refuses to open in the other.
	StateCommitment string `json:"stateCommitment,omitempty"`
	// ProviderFunds and NodeFunds are the initial chain balances every
	// replay starts from; an absent field is 0.
	ProviderFunds uint64 `json:"providerFunds,omitempty"`
	NodeFunds     uint64 `json:"nodeFunds,omitempty"`
	// Format stamps the store (see the file comment).
	Format int `json:"format,omitempty"`
}

const (
	serviceMetaKey = "meta/service"
	storeFormat    = 3
)

// formatError refuses a store of the given format.
func formatError(format int, why string) error {
	return fmt.Errorf("%w %d%s: this build opens formats %d and %d",
		ErrStoreFormat, format, why, storeFormat-1, storeFormat)
}

// storedMeta reads the deployment parameters a store was first used
// with, if it has been used, migrating a format-2 store first and
// refusing one outside the window.
func storedMeta(kv store.KVStore) (meta serviceMeta, ok bool, err error) {
	data, ok, err := kv.Get([]byte(serviceMetaKey))
	if err != nil {
		return meta, false, err
	}
	if !ok {
		// No meta: a store on its first use, unless it already holds
		// records, which only a build from before the stamp wrote.
		for _, prefix := range []string{opKeyPrefix, "ckpt/", chainPrefix} {
			if err := kv.Iterate([]byte(prefix), func(key, _ []byte) error {
				return formatError(0, fmt.Sprintf(" (%s without %s)", key, serviceMetaKey))
			}); err != nil {
				return meta, false, err
			}
		}
		return meta, false, nil
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return meta, false, fmt.Errorf("tinyevm: decoding store meta: %w", err)
	}
	switch meta.Format {
	case storeFormat:
	case storeFormat - 1:
		meta.Format = storeFormat
		if err := migrateStore(kv, meta); err != nil {
			return meta, false, err
		}
	default:
		return meta, false, formatError(meta.Format, "")
	}
	return meta, true, nil
}

// checkMeta verifies the store's deployment parameters against the
// requested ones, or records them on first use.
func checkMeta(kv store.KVStore, have serviceMeta, used bool, meta serviceMeta) error {
	meta.Format = storeFormat
	if !used {
		// An empty store: the batch is the stamped meta alone.
		return migrateStore(kv, meta)
	}
	if have != meta {
		return fmt.Errorf("tinyevm: store belongs to a different deployment (store %+v, requested %+v)", have, meta)
	}
	return nil
}

// migrateStore brings kv to storeFormat in one atomic batch: it drops
// the chain's account and head records and writes the stamped meta.
func migrateStore(kv store.KVStore, meta serviceMeta) error {
	batch := kv.Batch()
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

// dropChainState deletes the chain records format 2 kept beside the
// blocks: one per account and the head pointer. The accounts come back
// from the checkpoint and the journal, the head is the highest block.
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
