package tinyevm_test

// Recovery refuses what it cannot interpret: a journaled record that
// names an unknown op or carries a malformed field is a hole in the
// history, not an operation that "failed the first time too".

import (
	"context"
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

func TestReplayRefusesUninterpretableRecords(t *testing.T) {
	base, next := shortHistory(t)
	key := string(opKeyOf(next))
	cases := []struct {
		name, rec string
		refused   bool
	}{
		{"unknown op", `{"seq":%d,"op":"payy","node":"car","channel":1,"amount":5}`, true},
		{"malformed address", `{"seq":%d,"op":"openChannel","node":"car","peer":"0xzz","deposit":5}`, true},
		{"short address", `{"seq":%d,"op":"callContract","node":"car","addr":"0x1234"}`, true},
		{"malformed hash", `{"seq":%d,"op":"payConditional","node":"car","channel":1,"amount":5,"lock":"0x12"}`, true},
		{"odd-length blob", `{"seq":%d,"op":"deployContract","node":"car","data":"abc"}`, true},
		{"short secret", `{"seq":%d,"op":"claim","node":"car","channel":1,"secret":"00ff"}`, true},
		{"undecodable final state", `{"seq":%d,"op":"commit","node":"car","final":"00ff"}`, true},
		// Well-formed records whose operation fails are history: the live
		// attempt failed identically and was journaled intent-first.
		{"failing op", `{"seq":%d,"op":"pay","node":"car","channel":99,"amount":5}`, false},
		{"unknown node", `{"seq":%d,"op":"pay","node":"nobody","channel":1,"amount":5}`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			kv := cloneStore(t, base)
			if err := kv.Put([]byte(key), []byte(fmt.Sprintf(c.rec, next))); err != nil {
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
		_, value, _ := strings.Cut(line, " ")
		f.Add([]byte(value))
	}
	// Well-formed JSON the live path could never have journaled.
	const lotAddr, carAddr = "0x7e9dfb1915d568618e8abcadd45f770315a6da56", "0xb841dbdb9a9b244dc40e9e3663cdf2079846b763"
	zeros := strings.Repeat("00", 32)
	for _, rec := range []string{
		`{"seq":6,"op":"payy"}`,
		`{"seq":6,"op":"openChannel","node":"car","peer":"0xzz"}`,
		`{"seq":18446744073709551615,"op":"mineBlock"}`,
		`{"seq":6,"op":"addNode"}`,
		`{"seq":6,"op":"addNode","name":"lot"}`,
		`{"seq":6,"op":"openChannel","node":"car"}`,
		`{"seq":6,"op":"openChannel","node":"car","peer":"` + carAddr + `","deposit":18446744073709551615}`,
		`{"seq":6,"op":"pay","node":"car","channel":1,"amount":18446744073709551615}`,
		`{"seq":6,"op":"pay","node":"lot","channel":4294967297,"amount":1}`,
		`{"seq":6,"op":"payConditional","node":"car","channel":1,"amount":5}`,
		`{"seq":6,"op":"claim","node":"lot","channel":4294967297,"secret":"` + zeros + `"}`,
		`{"seq":6,"op":"close","node":"lot","channel":4294967297}`,
		`{"seq":6,"op":"reopen","node":"car","channel":1}`,
		`{"seq":6,"op":"sendSensorData","node":"car","peer":"` + lotAddr + `","readings":[` + strings.Repeat(`{"id":1,"value":2},`, 4000) + `{"id":1}]}`,
		`{"seq":6,"op":"routePayment","secret":"` + zeros + `","receiver":"lot"}`,
		`{"seq":6,"op":"routePayment","secret":"` + zeros + `","receiver":"lot","amount":18446744073709551615,"fee":18446744073709551615,"steps":[{"node":"car","channel":1},{"node":"car","channel":1}]}`,
		`{"seq":6,"op":"routePayment","secret":"` + zeros + `","receiver":"car","amount":5,"steps":[{"node":"car","channel":1}]}`,
		`{"seq":6,"op":"deposit","node":"car","amount":18446744073709551615}`,
		`{"seq":6,"op":"exit","node":"lot"}`,
		`{"seq":6,"op":"settle","node":"car"}`,
		`{"seq":6,"op":"deployContract","node":"car","data":"5b600056"}`,
		`{"seq":6,"op":"deployContract","node":"car"}`,
		`{"seq":6,"op":"callContract","node":"car","value":18446744073709551615}`,
		`{"seq":6,"op":"registerSensorValue","node":"car","sensorId":18446744073709551615}`,
	} {
		f.Add([]byte(rec))
	}

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
	})
}
