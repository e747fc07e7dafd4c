// Chain persistence: sealed blocks and per-block state deltas are
// committed to a store.KVStore by an OnSeal-driven hook, and a chain can
// be restored from such a store without re-executing its history.
//
// Keyspace (within whatever namespace the caller hands AttachStore):
//
//	meta/head            -> head record    (latest sealed block)
//	block/<num %016x>    -> block record   (header, receipts, state digest)
//	acct/<addr hex>      -> account record (full account value; deleted
//	                                        when the account dies)
//
// Every value is a binary record on internal/codec (layouts in
// record.go and docs/STORAGE.md); stores written before that are
// rewritten once, on attach (migrate.go).
//
// One atomic batch per seal carries the block record, the head pointer
// and the account records mutated since the previous seal (the dirty
// delta MemState tracks) — so the durability boundary is the block
// seal: a crash loses at most the mempool and un-sealed mutations.
//
// When a seal finds its block number already persisted (a service-level
// op-log replay re-executing history), the freshly produced record is
// compared byte-for-byte against the stored one instead of rewritten;
// any divergence — a different block hash, receipt set or state digest —
// marks the store corrupt (StoreErr) rather than silently overwriting
// history.
//
// Restore (NewFromStore) rebuilds blocks, receipts and EVM state.
// Native contracts are Go objects and are NOT restored — callers that
// use them (the protocol template) must re-install them and replay
// their operation log; tinyevm.Service does exactly that.

package chain

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"

	"tinyevm/internal/evm"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
)

// ErrStoreMismatch marks a replayed block that diverges from the
// persisted record — the store belongs to a different history.
var ErrStoreMismatch = errors.New("chain: replayed block diverges from persisted record")

const (
	headKey    = "meta/head"
	blockPfx   = "block/"
	acctPfx    = "acct/"
	acctKeyLen = len(acctPfx) + 2*len(types.Address{})
)

func blockKey(n uint64) []byte { return store.HexKey(blockPfx, n) }

func acctKey(addr types.Address) []byte {
	return hex.AppendEncode(append(make([]byte, 0, acctKeyLen), acctPfx...), addr[:])
}

// acctKeyAddr parses the address out of an acct/ key.
func acctKeyAddr(key []byte) (addr types.Address, err error) {
	if len(key) != acctKeyLen {
		return addr, fmt.Errorf("%w: account key %q", ErrBadRecord, key)
	}
	if _, err := hex.Decode(addr[:], key[len(acctPfx):]); err != nil {
		return addr, fmt.Errorf("%w: account key %q", ErrBadRecord, key)
	}
	return addr, nil
}

// AttachStore wires a persistence store into the chain: the state
// starts tracking mutated accounts and every sealed block commits one
// atomic batch (block record, head pointer, account delta). Attach a
// store before producing blocks; attaching twice is an error.
//
// Persistence failures are latched into StoreErr — block production
// itself never fails, but a durable deployment must check StoreErr
// after sealing (tinyevm.Service surfaces it on the next operation).
func (c *Chain) AttachStore(kv store.KVStore) error {
	if c.kv != nil {
		return errors.New("chain: store already attached")
	}
	if err := migrateStandalone(kv); err != nil {
		return err
	}
	c.kv = kv
	c.state.EnableDirtyTracking()
	c.OnSeal(c.persistSeal)
	return nil
}

// StoreErr returns the first persistence or verification error, if any.
// Once set, no further batches are committed.
func (c *Chain) StoreErr() error {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	return c.storeErr
}

// setStoreErr latches the first persistence error. Later errors are
// dropped: the first failure is the root cause, and everything after it
// is downstream of a store already known to be bad.
func (c *Chain) setStoreErr(err error) {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if c.storeErr == nil {
		c.storeErr = err
	}
}

// VerifyStoreHead checks that the chain has reached (at least) the
// persisted head, with an identical block hash at that height. An
// op-log replay that silently under-produces blocks — a log that does
// not belong to this store — fails here even though no individual seal
// diverged.
func (c *Chain) VerifyStoreHead() error {
	if c.kv == nil {
		return nil
	}
	data, ok, err := c.kv.Get([]byte(headKey))
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	head, err := decodeHead(data)
	if err != nil {
		return err
	}
	b, err := c.BlockByNumber(head.Number)
	if err != nil {
		return fmt.Errorf("%w: persisted head is block %d, replay reached %d",
			ErrStoreMismatch, head.Number, c.Head().Number)
	}
	if b.Hash != head.Hash {
		return fmt.Errorf("%w: block %d hash %s != persisted head %s",
			ErrStoreMismatch, head.Number, b.Hash, head.Hash)
	}
	return nil
}

// persistSeal is the OnSeal hook committing one block's durable batch.
// The batch is always BUILT synchronously on the sealing goroutine (the
// block record and the dirty delta must capture the state this seal
// produced); with the pipeline enabled (pipeline.go) the built batch is
// committed asynchronously, in seal order.
func (c *Chain) persistSeal(b *Block, receipts []*Receipt) {
	if c.StoreErr() != nil {
		return
	}
	// Drain the dirty delta exactly once, up front: the MST commitment
	// must fold this seal's delta in before the commitment is computed,
	// and it must do so on the replay-verify path too (replay keeps the
	// incremental root in lockstep with the blocks it re-seals).
	dirty := c.state.TakeDirty()
	if c.commitMST {
		c.applyCommitmentDelta(dirty)
	}
	rec := encodeBlock(b, receipts, c.stateCommitment())

	if existing, ok, err := c.kv.Get(blockKey(b.Number)); err != nil {
		c.setStoreErr(err)
		return
	} else if ok {
		// Replay over an existing store: verify instead of rewrite. The
		// delta is identical to what is already persisted, so it was
		// only needed for the commitment update above.
		if !bytes.Equal(existing, rec) {
			c.setStoreErr(fmt.Errorf("%w: block %d", ErrStoreMismatch, b.Number))
		}
		return
	}

	batch := c.kv.Batch()
	var acct []byte
	for _, addr := range dirty {
		if !c.state.Exists(addr) {
			batch.Delete(acctKey(addr))
			continue
		}
		// The batch copies the value, so one buffer serves every account.
		acct = encodeAcct(acct, c.state, addr)
		batch.Put(acctKey(addr), acct)
	}
	batch.Put(blockKey(b.Number), rec)
	batch.Put([]byte(headKey), encodeHead(headRecord{Number: b.Number, Hash: b.Hash}))
	if c.pipe != nil {
		c.pipe.enqueue(batch)
		return
	}
	if err := batch.Commit(); err != nil {
		c.setStoreErr(err)
	}
}

// NewFromStore restores a chain from a store previously written through
// AttachStore: sealed blocks, receipts and the full EVM state come back
// byte-identical (state digests are re-verified against the persisted
// head block). The returned chain has the store attached and continues
// persisting. An empty store yields a fresh chain.
//
// Native contracts are not restored; re-install them before executing
// transactions that target them.
func NewFromStore(kv store.KVStore) (*Chain, error) {
	c := New()
	if err := c.AttachStore(kv); err != nil {
		return nil, err
	}
	data, ok, err := kv.Get([]byte(headKey))
	if err != nil {
		return nil, err
	}
	if ok {
		head, err := decodeHead(data)
		if err != nil {
			return nil, err
		}
		if err := c.restore(kv, head); err != nil {
			return nil, err
		}
		// Restoring is not a mutation any seal should persist again.
		c.state.ClearDirty()
	}
	return c, nil
}

// restoreBlocks loads blocks and receipts 1..upto from kv, verifying
// parent links and recomputing every block hash.
func (c *Chain) restoreBlocks(kv store.KVStore, upto uint64) error {
	for n := uint64(1); n <= upto; n++ {
		data, ok, err := kv.Get(blockKey(n))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("chain: store missing block %d (want through %d)", n, upto)
		}
		b, receipts, _, err := decodeBlock(data)
		if err != nil {
			return fmt.Errorf("chain: decoding block %d: %w", n, err)
		}
		if b.Number != n {
			return fmt.Errorf("chain: block %d stored under the key of block %d", b.Number, n)
		}
		if b.ParentHash != c.Head().Hash {
			return fmt.Errorf("chain: block %d parent hash does not link to block %d", n, n-1)
		}
		if got := blockHash(b); got != b.Hash {
			return fmt.Errorf("chain: block %d hash mismatch (stored %s, computed %s)", n, b.Hash, got)
		}
		c.blocks = append(c.blocks, b)
		for _, r := range receipts {
			c.receipts[r.TxHash] = r
		}
	}
	return nil
}

// persistedCommitment loads the state commitment recorded with block n.
func (c *Chain) persistedCommitment(kv store.KVStore, n uint64) (types.Hash, error) {
	data, ok, err := kv.Get(blockKey(n))
	if err != nil || !ok {
		return types.Hash{}, fmt.Errorf("chain: reloading block %d: %v", n, err)
	}
	_, _, digest, err := decodeBlock(data)
	return digest, err
}

func (c *Chain) restore(kv store.KVStore, head headRecord) error {
	if err := c.restoreBlocks(kv, head.Number); err != nil {
		return err
	}
	if got := c.Head().Hash; got != head.Hash {
		return fmt.Errorf("chain: head hash mismatch (stored %s, restored %s)", head.Hash, got)
	}

	if err := kv.Iterate([]byte(acctPfx), func(key, value []byte) error {
		addr, err := acctKeyAddr(key)
		if err != nil {
			return err
		}
		if err := decodeAcct(c.state, addr, value); err != nil {
			return fmt.Errorf("chain: decoding account %s: %w", key, err)
		}
		return nil
	}); err != nil {
		return err
	}

	// The restored state must digest exactly as it did when the head
	// block was sealed.
	if head.Number > 0 {
		want, err := c.persistedCommitment(kv, head.Number)
		if err != nil {
			return err
		}
		if got := c.state.Digest(); got != want {
			return fmt.Errorf("chain: restored state digest %s does not match persisted %s", got, want)
		}
	}
	return nil
}

// RestoreCheckpoint rebuilds the chain to a checkpoint height: blocks
// and receipts 1..height come from the attached store (parent-linked,
// hashes recomputed), the state snapshot is poured in by apply (the
// service's checkpoint decoder), and the result is verified against
// block height's persisted state commitment — a snapshot that does not
// reproduce the commitment the chain sealed at that height fails
// loudly, before any tail replay runs on top of it.
//
// It must run on a freshly attached chain (no blocks beyond genesis,
// no replay yet). Under the MST commitment the incremental map is
// rebuilt from the restored state, bit-identical to the map the
// sealing run maintained.
func (c *Chain) RestoreCheckpoint(height uint64, apply func(st *evm.MemState) error) error {
	if c.kv == nil {
		return errors.New("chain: checkpoint restore needs an attached store")
	}
	if len(c.blocks) != 1 {
		return errors.New("chain: checkpoint restore on a non-fresh chain")
	}
	if err := c.restoreBlocks(c.kv, height); err != nil {
		return err
	}
	if err := apply(c.state); err != nil {
		return err
	}
	// The snapshot overwrite is not part of any seal's delta.
	c.state.ClearDirty()
	if c.commitMST {
		c.rebuildCommitment()
	}
	if height > 0 {
		want, err := c.persistedCommitment(c.kv, height)
		if err != nil {
			return err
		}
		if got := c.stateCommitment(); got != want {
			return fmt.Errorf("chain: checkpoint state commitment %s does not match block %d's %s", got, height, want)
		}
	}
	return nil
}
