package tinyevm_test

// Recovery refuses what it cannot interpret: a journaled record that
// names an unknown op or carries a malformed field is a hole in the
// history, not an operation that "failed the first time too".

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"tinyevm"
	"tinyevm/internal/store"
)

// shortHistory journals a minimal valid history into a fresh mem store
// — two nodes, their sensors, one channel with one payment — and
// returns the store and the next journal sequence number.
func shortHistory(t testing.TB) (*store.Mem, uint64) {
	t.Helper()
	ctx := context.Background()
	kv := store.NewMem()
	svc, lot, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv))...)
	if err != nil {
		t.Fatal(err)
	}
	car, err := svc.AddNode(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*tinyevm.ServiceNode{lot, car} {
		if err := n.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := car.OpenChannel(ctx, lot.Address(), 50_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := car.Pay(ctx, cs.ID, 1_000); err != nil {
		t.Fatal(err)
	}
	stats, err := svc.ServiceStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	return kv, stats.Ops
}

func opKeyOf(seq uint64) []byte { return []byte(fmt.Sprintf("op/%016x", seq)) }

var (
	strictLot = tinyevm.Address{0x7e, 0x9d, 0xfb, 0x19, 0x15, 0xd5, 0x68, 0x61, 0x8e, 0x8a, 0xbc, 0xad, 0xd4, 0x5f, 0x77, 0x03, 0x15, 0xa6, 0xda, 0x56}
	strictCar = tinyevm.Address{0xb8, 0x41, 0xdb, 0xdb, 0x9a, 0x9b, 0x24, 0x4d, 0xc4, 0x0e, 0x9e, 0x36, 0x63, 0xcd, 0xf2, 0x07, 0x98, 0x46, 0xb7, 0x63}
)

// presentOffset locates the presence bitmap of an encoded record:
// behind the format byte, the seq uvarint and the length-prefixed name.
func presentOffset(rec []byte) int {
	_, n := binary.Uvarint(rec[1:])
	return 1 + n + 4 + int(binary.BigEndian.Uint32(rec[1+n:]))
}

func TestReplayRefusesUninterpretableRecords(t *testing.T) {
	base, next := shortHistory(t)
	key := string(opKeyOf(next))
	enc := func(rec tinyevm.OpRecord) []byte {
		rec.Seq = next
		return rec.Encode()
	}
	// edit returns a copy of rec changed by fn.
	edit := func(rec []byte, fn func(rec []byte) []byte) []byte { return fn(bytes.Clone(rec)) }
	pay := enc(tinyevm.OpRecord{Op: "pay", Node: "car", Channel: 1, Amount: 5})
	zeros := make([]byte, 32)

	cases := []struct {
		name    string
		rec     []byte
		refused bool
	}{
		{"unknown op", enc(tinyevm.OpRecord{Op: "payy", Node: "car", Channel: 1, Amount: 5}), true},
		{"empty record", nil, true},
		{"JSON in a stamped store", []byte(fmt.Sprintf(`{"seq":%d,"op":"pay","node":"car","channel":1,"amount":5}`, next)), true},
		{"malformed address", edit(enc(tinyevm.OpRecord{Op: "openChannel", Node: "car", Deposit: 5}),
			func(rec []byte) []byte { rec[presentOffset(rec)+3] |= 0x04; return rec }), true}, // peer marked present, not there
		{"short address", edit(enc(tinyevm.OpRecord{Op: "callContract", Node: "car", Addr: strictLot[:]}),
			func(rec []byte) []byte { return rec[:len(rec)-18] }), true},
		{"malformed hash", edit(enc(tinyevm.OpRecord{Op: "payConditional", Node: "car", Channel: 1, Amount: 5, Lock: zeros}),
			func(rec []byte) []byte { return rec[:len(rec)-1] }), true},
		{"blob longer than the record", edit(enc(tinyevm.OpRecord{Op: "deployContract", Node: "car", Data: []byte{0xab, 0xcd}}),
			func(rec []byte) []byte { rec[len(rec)-3]++; return rec }), true},
		{"unknown field bit", edit(pay, func(rec []byte) []byte { rec[presentOffset(rec)+1] |= 0x04; return rec }), true},
		{"present but zero field", edit(pay, func(rec []byte) []byte { rec[len(rec)-1] = 0; return rec }), true},
		{"absent field's bytes left over", edit(pay, func(rec []byte) []byte { rec[presentOffset(rec)+3] &^= 0x10; return rec }), true},
		{"non-minimal integer", edit(pay, func(rec []byte) []byte { return append(rec[:len(rec)-1], 0x85, 0x00) }), true},
		{"trailing byte", edit(pay, func(rec []byte) []byte { return append(rec, 0) }), true},
		{"short secret", enc(tinyevm.OpRecord{Op: "claim", Node: "car", Channel: 1, Secret: []byte{0x00, 0xff}}), true},
		{"undecodable final state", enc(tinyevm.OpRecord{Op: "commit", Node: "car", Final: []byte{0x00, 0xff}}), true},
		// Well-formed records whose operation fails are history: the live
		// attempt failed identically and was journaled intent-first.
		{"failing op", enc(tinyevm.OpRecord{Op: "pay", Node: "car", Channel: 99, Amount: 5}), false},
		{"unknown node", enc(tinyevm.OpRecord{Op: "pay", Node: "nobody", Channel: 1, Amount: 5}), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			kv := cloneStore(t, base)
			if err := kv.Put([]byte(key), c.rec); err != nil {
				t.Fatal(err)
			}
			svc, _, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv))...)
			if err == nil {
				defer svc.Close()
			}
			switch {
			case c.refused && err == nil:
				t.Fatalf("recovery accepted the record (replayed %d ops)", svc.RecoveryInfo().ReplayedOps)
			case c.refused && !strings.Contains(err.Error(), key):
				t.Fatalf("error does not name the record's key %s: %v", key, err)
			case !c.refused && err != nil:
				t.Fatalf("recovery refused a well-formed record: %v", err)
			case !c.refused && svc.RecoveryInfo().ReplayedOps != int(next)+1:
				t.Fatalf("replayed %d ops, want %d", svc.RecoveryInfo().ReplayedOps, next+1)
			}
		})
	}
}

// FuzzJournalReplay plants arbitrary bytes as the last journal record
// behind a short valid history: NewService must never panic, and —
// whether it refuses the store or recovers — a second open over the
// same store must give the same answer and the same deployment.
func FuzzJournalReplay(f *testing.F) {
	// Seeds: one record of every op kind, as the format pin journals it.
	for _, line := range goldenJournal(f) {
		_, value := cutRecord(f, line)
		f.Add(value)
	}
	// Well-formed records the live path could never have journaled.
	const max = 1<<64 - 1
	zeros := make([]byte, 32)
	readings := make([]tinyevm.SensorReading, 4001)
	for i := range readings {
		readings[i] = tinyevm.SensorReading{ID: 1, Value: 2}
	}
	for _, rec := range []tinyevm.OpRecord{
		{Seq: 6, Op: "payy"},
		{Seq: max, Op: "mineBlock"},
		{Seq: 6, Op: "addNode"},
		{Seq: 6, Op: "addNode", Name: "lot"},
		{Seq: 6, Op: "openChannel", Node: "car"},
		{Seq: 6, Op: "openChannel", Node: "car", Peer: strictCar[:], Deposit: max},
		{Seq: 6, Op: "pay", Node: "car", Channel: 1, Amount: max},
		{Seq: 6, Op: "pay", Node: "lot", Channel: 1<<32 + 1, Amount: 1},
		{Seq: 6, Op: "payConditional", Node: "car", Channel: 1, Amount: 5},
		{Seq: 6, Op: "claim", Node: "lot", Channel: 1<<32 + 1, Secret: zeros},
		{Seq: 6, Op: "close", Node: "lot", Channel: 1<<32 + 1},
		{Seq: 6, Op: "reopen", Node: "car", Channel: 1},
		{Seq: 6, Op: "sendSensorData", Node: "car", Peer: strictLot[:], Readings: readings},
		{Seq: 6, Op: "routePayment", Secret: zeros, Receiver: "lot"},
		{Seq: 6, Op: "routePayment", Secret: zeros, Receiver: "lot", Amount: max, Fee: max,
			Steps: []tinyevm.RouteStep{{Node: "car", Channel: 1}, {Node: "car", Channel: 1}}},
		{Seq: 6, Op: "routePayment", Secret: zeros, Receiver: "car", Amount: 5, Steps: []tinyevm.RouteStep{{Node: "car", Channel: 1}}},
		{Seq: 6, Op: "deposit", Node: "car", Amount: max},
		{Seq: 6, Op: "exit", Node: "lot"},
		{Seq: 6, Op: "settle", Node: "car"},
		{Seq: 6, Op: "deployContract", Node: "car", Data: []byte{0x5b, 0x60, 0x00, 0x56}},
		{Seq: 6, Op: "deployContract", Node: "car"},
		{Seq: 6, Op: "callContract", Node: "car", Value: max},
		{Seq: 6, Op: "registerSensorValue", Node: "car", SensorID: max},
	} {
		f.Add(rec.Encode())
	}
	// And a legacy JSON record, which a stamped store must refuse.
	f.Add([]byte(`{"seq":6,"op":"pay","node":"car","channel":1,"amount":5}`))

	base, next := shortHistory(f)
	open := func(kv *store.Mem) (string, error) {
		svc, _, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv))...)
		if err != nil {
			return "", err
		}
		defer svc.Close()
		head := svc.System().Chain.Head()
		return fmt.Sprintf("%d %s %s", head.Number, head.Hash.Hex(), svc.System().Chain.State().Digest().Hex()), nil
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		kv := cloneStore(t, base)
		if err := kv.Put(opKeyOf(next), rec); err != nil {
			t.Fatal(err)
		}
		first, err1 := open(kv)
		second, err2 := open(kv)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("first open: %v; second open: %v", err1, err2)
		}
		if first != second {
			t.Fatalf("two opens of one store diverged: %s vs %s", first, second)
		}
		// A record recovery accepted is one the codec round-trips.
		if err1 == nil {
			back, err := tinyevm.DecodeOpRecord(rec)
			if err != nil {
				t.Fatalf("recovery accepted a record the decoder refuses: %v", err)
			}
			if !bytes.Equal(back.Encode(), rec) {
				t.Fatalf("accepted record is not canonical:\n in %x\nout %x", rec, back.Encode())
			}
		}
	})
}
