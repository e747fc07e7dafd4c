// Chain persistence: every sealed block is committed to a store.KVStore
// by an OnSeal-driven hook, as one record.
//
// Keyspace (within whatever namespace the caller hands AttachStore):
//
//	block/<num %016x>    -> block record (header, receipts, state
//	                                      commitment)
//
// Every value is a binary record on internal/codec (layouts in
// record.go and docs/STORAGE.md).
//
// Each seal commits its block record in an atomic batch of its own, in
// seal order, so the persisted blocks always form the prefix 1..H: the
// head is the highest block present and needs no pointer. The store
// holds no account state. The state is rebuilt from a checkpoint
// snapshot and an op-log replay (tinyevm.Service), and every block's
// state commitment verifies the result.
//
// When a seal finds its block number already persisted (a service-level
// op-log replay re-executing history), the freshly produced record is
// compared byte-for-byte against the stored one instead of rewritten;
// any divergence — a different block hash, receipt set or state
// commitment — marks the store corrupt (StoreErr) rather than silently
// overwriting history.

package chain

import (
	"bytes"
	"errors"
	"fmt"

	"tinyevm/internal/evm"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
)

// ErrStoreMismatch marks a replayed block that diverges from the
// persisted record — the store belongs to a different history.
var ErrStoreMismatch = errors.New("chain: replayed block diverges from persisted record")

const blockPfx = "block/"

func blockKey(n uint64) []byte { return store.HexKey(blockPfx, n) }

// AttachStore wires a persistence store into the chain: every sealed
// block commits its record in one atomic batch. Attach a store before
// producing blocks; attaching twice is an error.
//
// Persistence failures are latched into StoreErr — block production
// itself never fails, but a durable deployment must check StoreErr
// after sealing (tinyevm.Service surfaces it on the next operation).
func (c *Chain) AttachStore(kv store.KVStore) error {
	if c.kv != nil {
		return errors.New("chain: store already attached")
	}
	c.kv = kv
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

// VerifyStoreHead checks that the chain has reached the persisted head:
// the store must hold no block past the chain's own. Every block at or
// below the head was already compared byte for byte as replay re-sealed
// it (or linked and re-hashed by RestoreCheckpoint), so an op-log
// replay that silently under-produces blocks — a log that does not
// belong to this store — fails here even though no individual seal
// diverged.
func (c *Chain) VerifyStoreHead() error {
	if c.kv == nil {
		return nil
	}
	head := c.Head().Number
	if _, ok, err := c.kv.Get(blockKey(head + 1)); err != nil || !ok {
		return err
	}
	return fmt.Errorf("%w: store holds block %d, replay reached %d", ErrStoreMismatch, head+1, head)
}

// persistSeal is the OnSeal hook committing one block's record. The
// record is always BUILT synchronously on the sealing goroutine (it
// must capture the state commitment this seal produced); with the
// pipeline enabled (pipeline.go) the batch is committed asynchronously,
// in seal order.
func (c *Chain) persistSeal(b *Block, receipts []*Receipt) {
	if c.StoreErr() != nil {
		return
	}
	rec := encodeBlock(b, receipts, c.stateCommitment())

	if existing, ok, err := c.kv.Get(blockKey(b.Number)); err != nil {
		c.setStoreErr(err)
		return
	} else if ok {
		// Replay over an existing store: verify instead of rewrite.
		if !bytes.Equal(existing, rec) {
			c.setStoreErr(fmt.Errorf("%w: block %d", ErrStoreMismatch, b.Number))
		}
		return
	}

	batch := c.kv.Batch()
	batch.Put(blockKey(b.Number), rec)
	if c.pipe != nil {
		c.pipe.enqueue(batch)
		return
	}
	if err := batch.Commit(); err != nil {
		c.setStoreErr(err)
	}
}

// restoreBlocks loads blocks 1..upto from the attached
// store, verifying parent links and recomputing every block hash. It
// returns the state commitment recorded with block upto (zero when upto
// is 0).
func (c *Chain) restoreBlocks(upto uint64) (commitment types.Hash, err error) {
	for n := uint64(1); n <= upto; n++ {
		data, ok, err := c.kv.Get(blockKey(n))
		if err != nil {
			return commitment, err
		}
		if !ok {
			return commitment, fmt.Errorf("chain: store missing block %d (want through %d)", n, upto)
		}
		var b *Block
		b, _, commitment, err = decodeBlock(data)
		if err != nil {
			return commitment, fmt.Errorf("chain: decoding block %d: %w", n, err)
		}
		if b.Number != n {
			return commitment, fmt.Errorf("chain: block %d stored under the key of block %d", b.Number, n)
		}
		if b.ParentHash != c.Head().Hash {
			return commitment, fmt.Errorf("chain: block %d parent hash does not link to block %d", n, n-1)
		}
		if got := blockHash(b); got != b.Hash {
			return commitment, fmt.Errorf("chain: block %d hash mismatch (stored %s, computed %s)", n, b.Hash, got)
		}
		c.blocks = append(c.blocks, b)
	}
	return commitment, nil
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
	want, err := c.restoreBlocks(height)
	if err != nil {
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
		if got := c.stateCommitment(); got != want {
			return fmt.Errorf("chain: checkpoint state commitment %s does not match block %d's %s", got, height, want)
		}
	}
	return nil
}
