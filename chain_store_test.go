package tinyevm_test

// The chain archive in the service's store: one block record per seal,
// and the recovery guards that hold it to the journal and the
// checkpoint.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"tinyevm"
	"tinyevm/internal/chain"
	"tinyevm/internal/store"
)

// tallyKV counts the puts that reach a store under the chain's
// namespace, and their bytes.
type tallyKV struct {
	store.KVStore
	mu          sync.Mutex
	puts, bytes int
}

func (t *tallyKV) Put(key, value []byte) error { return store.PutOne(t.Batch(), key, value) }
func (t *tallyKV) Batch() store.Batch          { return &tallyBatch{t.KVStore.Batch(), t} }

func (t *tallyKV) counts() (puts, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.puts, t.bytes
}

type tallyBatch struct {
	store.Batch
	kv *tallyKV
}

func (b *tallyBatch) Put(key, value []byte) {
	if strings.HasPrefix(string(key), "chain/") {
		b.kv.mu.Lock()
		b.kv.puts++
		b.kv.bytes += len(key) + len(value)
		b.kv.mu.Unlock()
	}
	b.Batch.Put(key, value)
}

// keysUnder returns the keys of kv under prefix.
func keysUnder(t *testing.T, kv store.KVStore, prefix string) []string {
	t.Helper()
	var keys []string
	if err := kv.Iterate([]byte(prefix), func(k, _ []byte) error {
		keys = append(keys, string(k))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestSealWritesOneChainRecord runs session-shaped rounds — deposit,
// open, four payments, close, the provider's commit — and requires each
// seal to put exactly one chain record: its block.
func TestSealWritesOneChainRecord(t *testing.T) {
	const rounds = 50
	ctx := context.Background()
	tally := &tallyKV{KVStore: store.NewMem()}
	svc, hub, err := tinyevm.NewService("hub", tinyevm.WithStore(tally))
	if err != nil {
		t.Fatal(err)
	}
	car, err := svc.AddNode(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*tinyevm.ServiceNode{hub, car} {
		if err := n.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rounds; i++ {
		if _, err := car.Deposit(ctx, 100); err != nil {
			t.Fatal(err)
		}
		cs, err := car.OpenChannel(ctx, hub.Address(), 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		for p := uint64(1); p <= 4; p++ {
			if _, err := car.Pay(ctx, cs.ID, p); err != nil {
				t.Fatal(err)
			}
		}
		fs, err := car.Close(ctx, cs.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := hub.Commit(ctx, fs); err != nil || !r.Status {
			t.Fatalf("commit: %v %v", r, err)
		}
	}
	seals, err := svc.HeadBlock(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	puts, bytes := tally.counts()
	t.Logf("%d seals: %.2f chain puts, %.0f B per seal", seals, float64(puts)/float64(seals), float64(bytes)/float64(seals))
	if seals < 2*rounds || puts != int(seals) {
		t.Fatalf("%d chain puts for %d seals, want one each", puts, seals)
	}
	assertNoChainState(t, tally)
}

// TestRecoveryDetectsMissingOps: a journal that lost the operation
// which sealed the last block replays to a shorter chain than the store
// holds, and the open must say so.
func TestRecoveryDetectsMissingOps(t *testing.T) {
	ctx := context.Background()
	kv := store.NewMem()
	svc, _, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv))...)
	if err != nil {
		t.Fatal(err)
	}
	car, err := svc.AddNode(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := car.Deposit(ctx, 1_000); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()

	ops := keysUnder(t, kv, "op/")
	if err := kv.Delete([]byte(ops[len(ops)-1])); err != nil { // the second deposit
		t.Fatal(err)
	}
	svc2, _, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv))...)
	if err == nil {
		svc2.Close()
		t.Fatal("a journal one seal short of the chain store opened")
	}
	if !errors.Is(err, chain.ErrStoreMismatch) {
		t.Fatalf("open failed with %v, want ErrStoreMismatch", err)
	}
}

// TestCheckpointOpenDetectsTamperedBlocks: the blocks below a
// checkpoint are restored from the store, not replayed, and a missing
// or altered one must fail the open.
func TestCheckpointOpenDetectsTamperedBlocks(t *testing.T) {
	for name, tamper := range map[string]func(kv store.KVStore, key []byte){
		"missing block": func(kv store.KVStore, key []byte) { kv.Delete(key) },
		"flipped byte": func(kv store.KVStore, key []byte) {
			rec, _, _ := kv.Get(key)
			rec[1+1+32] ^= 0x01 // format, number, parent hash: the block hash
			kv.Put(key, rec)
		},
	} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			kv := store.NewMem()
			opts := recoveryOpts(tinyevm.WithStore(kv), tinyevm.WithCheckpointInterval(1))
			svc, lot, err := tinyevm.NewService("lot", opts...)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if _, err := lot.Deposit(ctx, 1_000); err != nil {
					t.Fatal(err)
				}
			}
			st, _, err := svc.StoreStatus(ctx)
			if err != nil || st.CheckpointHeight < 3 {
				t.Fatalf("checkpoint at %d (%v)", st.CheckpointHeight, err)
			}
			svc.Close()

			tamper(kv, []byte("chain/block/0000000000000002"))
			svc2, _, err := tinyevm.NewService("lot", opts...)
			if err == nil {
				svc2.Close()
				t.Fatal("a tampered block below the checkpoint opened")
			}
		})
	}
}
