package chain

import (
	"errors"
	"testing"

	"tinyevm/internal/asm"
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

// TestChainPersistRestore proves a chain restored with NewFromStore is
// byte-identical to the original: head block hash, state digest,
// balances, contract storage and receipts all match.
func TestChainPersistRestore(t *testing.T) {
	kv := store.NewMem()
	c := buildPersistedChain(t, kv)

	r, err := NewFromStore(kv)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Head().Hash, c.Head().Hash; got != want {
		t.Fatalf("head hash %s != %s", got, want)
	}
	if got, want := r.Head().Number, c.Head().Number; got != want {
		t.Fatalf("head number %d != %d", got, want)
	}
	if got, want := r.State().Digest(), c.State().Digest(); got != want {
		t.Fatalf("state digest %s != %s", got, want)
	}
	for _, b := range c.blocks {
		for _, txh := range b.TxHashes {
			orig, _ := c.Receipt(txh)
			got, ok := r.Receipt(txh)
			if !ok {
				t.Fatalf("receipt %s missing after restore", txh)
			}
			if got.Status != orig.Status || got.GasUsed != orig.GasUsed ||
				got.ContractAddress != orig.ContractAddress || got.BlockNumber != orig.BlockNumber {
				t.Fatalf("receipt %s diverged after restore", txh)
			}
		}
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
	r2, err := NewFromStore(kv)
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
	wantHead, wantDigest := c.Head().Hash, c.State().Digest()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := store.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	r, err := NewFromStore(w2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Head().Hash != wantHead || r.State().Digest() != wantDigest {
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

// TestChainRestoreDetectsTampering corrupts persisted records and
// expects NewFromStore to refuse them.
func TestChainRestoreDetectsTampering(t *testing.T) {
	tamper := func(t *testing.T, mutate func(kv store.KVStore)) {
		t.Helper()
		kv := store.NewMem()
		buildPersistedChain(t, kv)
		mutate(kv)
		if _, err := NewFromStore(kv); err == nil {
			t.Fatal("tampered store restored cleanly")
		}
	}

	t.Run("account balance", func(t *testing.T) {
		tamper(t, func(kv store.KVStore) {
			key := secpAddrKey(t, kv) // any acct/ key
			rec, _, _ := kv.Get(key)
			rec[32] ^= 0x01 // the balance's low byte
			kv.Put(key, rec)
		})
	})
	t.Run("missing block", func(t *testing.T) {
		tamper(t, func(kv store.KVStore) {
			kv.Delete(blockKey(2))
		})
	})
	t.Run("head hash", func(t *testing.T) {
		tamper(t, func(kv store.KVStore) {
			kv.Put([]byte(headKey), encodeHead(headRecord{Number: 4}))
		})
	})
}

func secpAddrKey(t *testing.T, kv store.KVStore) []byte {
	t.Helper()
	var key []byte
	err := kv.Iterate([]byte("acct/"), func(k, v []byte) error {
		key = append([]byte("acct/"), k[len("acct/"):]...)
		return errors.New("stop")
	})
	if key == nil {
		t.Fatalf("no account records (%v)", err)
	}
	return key
}
