package chain

import (
	"bytes"
	"errors"
	"testing"

	"tinyevm/internal/codec"
	"tinyevm/internal/evm"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
)

// chainRecordSeeds returns one of every record family the chain
// encodes, from a chain with transfers, a deployment, storage and a
// failed transaction's receipt: kind 0 block (the store's records),
// 1 account (one per live account), 2 state snapshot.
func chainRecordSeeds(t testing.TB) map[uint8][][]byte {
	kv := store.NewMem()
	c := buildPersistedChain(t, kv)
	seeds := map[uint8][][]byte{2: {SnapshotState(c.state)}}
	if err := kv.Iterate(nil, func(_, v []byte) error {
		seeds[0] = append(seeds[0], v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, addr := range c.state.Addresses() {
		if c.state.Exists(addr) {
			seeds[1] = append(seeds[1], EncodeAccountRecord(c.state, addr))
		}
	}
	failed := &Receipt{TxHash: types.Hash{7}, GasUsed: 21000, Err: errors.New("out of gas"),
		Logs: []evm.Log{{Address: types.Address{1}, Topics: []types.Hash{{2}, {3}}, Data: []byte("log")}}}
	seeds[0] = append(seeds[0], encodeBlock(&Block{Number: 9, Hash: types.Hash{9}}, []*Receipt{failed}, types.Hash{8}))
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
		switch kind % 3 {
		case 0:
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
		case 1:
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

// FuzzChainRecordDecode feeds arbitrary bytes to every chain record
// decoder — the store's blocks, the account record a state proof
// carries, a checkpoint's state snapshot: none may panic or allocate beyond what the input can
// hold (every count is checked against the bytes left), errors are
// typed, and whatever decodes is exactly what the encoder writes.
func FuzzChainRecordDecode(f *testing.F) {
	for kind, recs := range chainRecordSeeds(f) {
		for _, rec := range recs {
			f.Add(kind, rec)
			f.Add(kind, rec[:len(rec)/2])
		}
	}
	f.Add(uint8(0), []byte(`{"number":1,"parent_hash":"0x00"}`))
	f.Add(uint8(2), []byte{0x02, 0xff, 0xff, 0xff, 0xff})
	// Account records reach the light client from a remote daemon: one
	// claiming more storage slots than it holds, one with its slots out
	// of order.
	acct := func(slots uint32, keys ...byte) []byte {
		w := codec.NewRecord(nil)
		w.Hash(types.Hash{1}) // balance
		w.Uvarint(0)          // nonce
		w.Bytes(nil)          // code
		w.U32(slots)
		for _, k := range keys {
			w.Hash(types.Hash{k})
			w.Hash(types.Hash{1})
		}
		return w.Buf
	}
	f.Add(uint8(1), acct(1<<32-1))
	f.Add(uint8(1), acct(2, 2, 1))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		checkChainRecord(t, kind, data, false)
	})
}
