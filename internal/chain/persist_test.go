package chain

import (
	"errors"
	"testing"

	"tinyevm/internal/asm"
	"tinyevm/internal/evm"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
)

// buildPersistedChain produces a few blocks (transfers + a contract
// deployment with storage writes) on a chain attached to kv.
func buildPersistedChain(t testing.TB, kv store.KVStore) *Chain {
	t.Helper()
	c := New()
	if err := c.AttachStore(kv); err != nil {
		t.Fatal(err)
	}
	key := fundedKey(c, "persist-alice")
	to := types.MustHexToAddress("0x00000000000000000000000000000000000000bb")

	for nonce := uint64(0); nonce < 3; nonce++ {
		tx := NewTx(nonce, &to, 1000+nonce, nil)
		if err := tx.Sign(key); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}

	// Deploy a contract that writes a storage slot in its constructor
	// and returns one byte of runtime code.
	initCode, err := asm.Assemble(`
		PUSH1 0x2a
		PUSH1 0x01
		SSTORE
		PUSH1 0x01
		PUSH1 0x00
		MSTORE8
		PUSH1 0x01
		PUSH1 0x00
		RETURN
	`)
	if err != nil {
		t.Fatal(err)
	}
	tx := NewTx(3, nil, 0, initCode)
	if err := tx.Sign(key); err != nil {
		t.Fatal(err)
	}
	r, err := c.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Status {
		t.Fatalf("deploy failed: %v", r.Err)
	}
	if err := c.StoreErr(); err != nil {
		t.Fatal(err)
	}
	return c
}

// restoreChain rebuilds a chain from kv's blocks and a snapshot of
// the state at the head, the way a service restores a checkpoint.
func restoreChain(kv store.KVStore, head uint64, snapshot []byte) (*Chain, error) {
	r := New()
	if err := r.AttachStore(kv); err != nil {
		return nil, err
	}
	err := r.RestoreCheckpoint(head, func(st *evm.MemState) error {
		return RestoreState(st, snapshot)
	})
	return r, err
}

// TestChainPersistRestore proves a chain restored from its persisted
// blocks and a state snapshot is identical to the original: head block
// hash, state digest and receipts all match, and the store holds one
// record per block and nothing else.
func TestChainPersistRestore(t *testing.T) {
	kv := store.NewMem()
	c := buildPersistedChain(t, kv)

	var keys []string
	if err := kv.Iterate(nil, func(k, _ []byte) error {
		keys = append(keys, string(k))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != int(c.Head().Number) || keys[len(keys)-1] != string(blockKey(c.Head().Number)) {
		t.Fatalf("store holds %q, want block records 1..%d", keys, c.Head().Number)
	}

	r, err := restoreChain(kv, c.Head().Number, SnapshotState(c.State()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Head().Hash, c.Head().Hash; got != want {
		t.Fatalf("head hash %s != %s", got, want)
	}
	if got, want := r.State().Digest(), c.State().Digest(); got != want {
		t.Fatalf("state digest %s != %s", got, want)
	}
	// The restored chain keeps persisting: seal one more block on it
	// and restore again.
	key := fundedKey(r, "persist-bob")
	to := types.MustHexToAddress("0x00000000000000000000000000000000000000cc")
	tx := NewTx(0, &to, 7, nil)
	if err := tx.Sign(key); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SendTransaction(tx); err != nil {
		t.Fatal(err)
	}
	if err := r.StoreErr(); err != nil {
		t.Fatal(err)
	}
	r2, err := restoreChain(kv, r.Head().Number, SnapshotState(r.State()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r2.State().Digest(), r.State().Digest(); got != want {
		t.Fatalf("second restore digest %s != %s", got, want)
	}
}

// TestChainPersistWAL runs the restore round-trip through the real WAL
// backend, closing and reopening the file in between.
func TestChainPersistWAL(t *testing.T) {
	path := t.TempDir() + "/chain.wal"
	w, err := store.OpenWAL(path, store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	c := buildPersistedChain(t, w)
	wantHead, snapshot := c.Head(), SnapshotState(c.State())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := store.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	r, err := restoreChain(w2, wantHead.Number, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if r.Head().Hash != wantHead.Hash || r.State().Digest() != c.State().Digest() {
		t.Fatal("WAL round-trip diverged")
	}
}

// TestChainReplayVerification pins the replay contract: re-executing
// the same history over an existing store verifies clean, while a
// diverging history latches ErrStoreMismatch instead of overwriting the
// persisted chain.
func TestChainReplayVerification(t *testing.T) {
	kv := store.NewMem()
	buildPersistedChain(t, kv)

	// Identical replay: clean.
	c2 := buildPersistedChain(t, kv)
	if err := c2.StoreErr(); err != nil {
		t.Fatalf("identical replay flagged: %v", err)
	}

	// Diverging replay: a different first transfer.
	c3 := New()
	if err := c3.AttachStore(kv); err != nil {
		t.Fatal(err)
	}
	key := fundedKey(c3, "persist-alice")
	to := types.MustHexToAddress("0x00000000000000000000000000000000000000bb")
	tx := NewTx(0, &to, 999_999, nil) // different amount -> different block
	if err := tx.Sign(key); err != nil {
		t.Fatal(err)
	}
	if _, err := c3.SendTransaction(tx); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(c3.StoreErr(), ErrStoreMismatch) {
		t.Fatalf("diverging replay not flagged: %v", c3.StoreErr())
	}
}

// TestChainRestoreDetectsTampering corrupts a persisted block below
// the restore height, or the state snapshot restored on top of them,
// and expects RestoreCheckpoint to refuse it.
func TestChainRestoreDetectsTampering(t *testing.T) {
	tamper := func(t *testing.T, mutate func(kv store.KVStore, snapshot []byte)) {
		t.Helper()
		kv := store.NewMem()
		c := buildPersistedChain(t, kv)
		snapshot := SnapshotState(c.State())
		mutate(kv, snapshot)
		if _, err := restoreChain(kv, c.Head().Number, snapshot); err == nil {
			t.Fatal("tampered store restored cleanly")
		}
	}

	t.Run("account balance", func(t *testing.T) {
		tamper(t, func(_ store.KVStore, snapshot []byte) {
			snapshot[1+4+20+31] ^= 0x01 // format, count, address: the first balance's low byte
		})
	})
	t.Run("missing block", func(t *testing.T) {
		tamper(t, func(kv store.KVStore, _ []byte) {
			kv.Delete(blockKey(2))
		})
	})
	t.Run("flipped byte", func(t *testing.T) {
		tamper(t, func(kv store.KVStore, _ []byte) {
			rec, _, _ := kv.Get(blockKey(2))
			rec[1+1+32] ^= 0x01 // format, number, parent hash: the block hash
			kv.Put(blockKey(2), rec)
		})
	})
}

// failingKV is a store whose batches never commit.
type failingKV struct{ store.KVStore }

func (f failingKV) Batch() store.Batch { return failingBatch{f.KVStore.Batch()} }

type failingBatch struct{ store.Batch }

func (failingBatch) Commit() error { return errors.New("disk full") }

// TestMSTRootFollowsStateAfterStoreError: a latched store error stops
// persistence, not the commitment — later seals still fold their
// account delta, so the root stays the root of the current state.
func TestMSTRootFollowsStateAfterStoreError(t *testing.T) {
	c := New()
	c.EnableMSTCommitment()
	if err := c.AttachStore(failingKV{store.NewMem()}); err != nil {
		t.Fatal(err)
	}
	c.MineBlock()
	if c.StoreErr() == nil {
		t.Fatal("the failed commit latched no error")
	}
	c.Fund(types.Address{0x77}, 5)
	c.MineBlock()
	got, _ := c.StateRoot()
	c.rebuildCommitment()
	if want, _ := c.StateRoot(); got != want {
		t.Fatalf("root after a latched store error %s, state's %s", got.Hash, want.Hash)
	}
}
