package chain

import (
	"bytes"
	"errors"
	"testing"

	"tinyevm/internal/evm"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
)

// chainRecordSeeds returns one of every record family a chain store
// holds, from a chain with transfers, a deployment, storage and a
// failed transaction's receipt: kind 0 head, 1 block, 2 account,
// 3 state snapshot.
func chainRecordSeeds(t testing.TB) map[uint8][][]byte {
	kv := store.NewMem()
	c := buildPersistedChain(t, kv)
	seeds := map[uint8][][]byte{3: {SnapshotState(c.state)}}
	for prefix, kind := range map[string]uint8{headKey: 0, blockPfx: 1, acctPfx: 2} {
		if err := kv.Iterate([]byte(prefix), func(_, v []byte) error {
			seeds[kind] = append(seeds[kind], v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	failed := &Receipt{TxHash: types.Hash{7}, GasUsed: 21000, Err: errors.New("out of gas"),
		Logs: []evm.Log{{Address: types.Address{1}, Topics: []types.Hash{{2}, {3}}, Data: []byte("log")}}}
	seeds[1] = append(seeds[1], encodeBlock(&Block{Number: 9, Hash: types.Hash{9}}, []*Receipt{failed}, types.Hash{8}))
	return seeds
}

func TestChainRecordsRoundTrip(t *testing.T) {
	for kind, recs := range chainRecordSeeds(t) {
		if len(recs) == 0 {
			t.Fatalf("no seed of kind %d", kind)
		}
		for _, rec := range recs {
			checkChainRecord(t, kind, rec, true)
		}
	}
}

// checkChainRecord decodes data as a record of the given kind and, when
// it decodes, requires the decoder to have been exact: the value
// re-encodes to the same bytes (a state snapshot: to a snapshot that
// restores to the same state), and one more byte is refused.
func checkChainRecord(t testing.TB, kind uint8, data []byte, mustDecode bool) {
	t.Helper()
	var (
		again []byte
		err   error
	)
	addr := types.Address{0xaa}
	decode := func(data []byte) ([]byte, error) {
		switch kind % 4 {
		case 0:
			h, err := decodeHead(data)
			return encodeHead(h), err
		case 1:
			b, receipts, digest, err := decodeBlock(data)
			if err != nil {
				return nil, err
			}
			for _, r := range receipts {
				if r.BlockNumber != b.Number {
					t.Fatalf("receipt in block %d says block %d", b.Number, r.BlockNumber)
				}
			}
			return encodeBlock(b, receipts, digest), nil
		case 2:
			st := evm.NewMemState()
			err := decodeAcct(st, addr, data)
			return encodeAcct(nil, st, addr), err
		default:
			st := evm.NewMemState()
			if err := RestoreState(st, data); err != nil {
				return nil, err
			}
			// A snapshot may hold accounts that do not observationally
			// exist; SnapshotState drops them, the state digest ignores
			// them.
			snap, st2 := SnapshotState(st), evm.NewMemState()
			if err := RestoreState(st2, snap); err != nil || st2.Digest() != st.Digest() {
				t.Fatalf("snapshot of a restored state restores differently: %v", err)
			}
			if len(snap) > len(data) {
				t.Fatalf("restored %d bytes into a %d-byte snapshot", len(data), len(snap))
			}
			return data, nil
		}
	}
	again, err = decode(data)
	if err != nil {
		if mustDecode {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if !errors.Is(err, ErrBadRecord) {
			t.Fatalf("kind %d: untyped decode error %v", kind, err)
		}
		return
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("kind %d is not canonical:\n in %x\nout %x", kind, data, again)
	}
	if _, err := decode(append(bytes.Clone(data), 0)); err == nil {
		t.Fatalf("kind %d: trailing byte accepted", kind)
	}
}

// FuzzChainRecordDecode feeds arbitrary bytes to every decoder a chain
// store can reach: none may panic or allocate beyond what the input can
// hold (every count is checked against the bytes left), errors are
// typed, and whatever decodes is exactly what the encoder writes.
func FuzzChainRecordDecode(f *testing.F) {
	for kind, recs := range chainRecordSeeds(f) {
		for _, rec := range recs {
			f.Add(kind, rec)
			f.Add(kind, rec[:len(rec)/2])
		}
	}
	f.Add(uint8(1), []byte(`{"number":1,"parent_hash":"0x00"}`))
	f.Add(uint8(3), []byte{0x02, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		checkChainRecord(t, kind, data, false)
	})
}

// TestMigrateStandaloneChainStore: a chain store of JSON records opened
// on its own (no service above it) is rewritten by AttachStore and
// restores to the chain that wrote it.
func TestMigrateStandaloneChainStore(t *testing.T) {
	kv := store.NewMem()
	c := buildPersistedChain(t, kv)
	legacy := legacyCopy(t, kv, c)
	if is, err := isLegacy(legacy); err != nil || !is {
		t.Fatalf("isLegacy = %v, %v", is, err)
	}
	r, err := NewFromStore(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if r.Head().Hash != c.Head().Hash || r.State().Digest() != c.State().Digest() {
		t.Fatal("migrated chain restored differently")
	}
	if err := kv.Iterate(nil, func(k, v []byte) error {
		if got, _, _ := legacy.Get(k); !bytes.Equal(got, v) {
			t.Errorf("%s: migrated %x, native %x", k, got, v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if is, _ := isLegacy(legacy); is {
		t.Fatal("store still legacy after the migration")
	}
}
