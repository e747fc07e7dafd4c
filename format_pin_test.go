package tinyevm_test

// The on-disk format pin for the service's own records: the operation
// journal (op/<seq> -> opRecord JSON) and the checkpoint (ckpt/state).
// testdata/format holds what the commit BEFORE the op-table refactor
// wrote for a fixed workload that issues every operation kind; this
// tree must write the same bytes, and must replay that commit's journal
// to the deployment that commit recorded.
//
// Regenerate (only for an intentional format change) with
//
//	go test -run 'TestOpRecordFormatPin|TestCheckpointFormatPin' -update-format .

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tinyevm"
	"tinyevm/internal/store"
)

var updateFormat = flag.Bool("update-format", false, "rewrite testdata/format from this tree")

const formatDir = "testdata/format"

// formatSecret is the fixed preimage of every conditional payment in
// the format workload.
func formatSecret(tag string) tinyevm.Secret {
	var s tinyevm.Secret
	copy(s[:], "format-pin-secret-"+tag+"................")
	return s
}

// formatWorkloadHead issues every operation kind except routePayment,
// runChallengePeriod and settle, and leaves the deployment with every
// shape of checkpointed state: an open channel with a pending HTLC, one
// with a revealed preimage, a closed one, template deposits, a stale
// and a superseding commit (fraud), and an active exit.
func formatWorkloadHead(t testing.TB, svc *tinyevm.Service, lot *tinyevm.ServiceNode) {
	t.Helper()
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	car, err := svc.AddNode(ctx, "car")
	must(err)
	bike, err := svc.AddNode(ctx, "bike")
	must(err)
	for i, n := range []*tinyevm.ServiceNode{lot, car, bike} {
		must(n.RegisterSensorValue(ctx, tinyevm.SensorTemperature, uint64(2150+i)))
	}
	_, err = car.Deposit(ctx, 40_000)
	must(err)
	_, err = lot.Deposit(ctx, 10_000)
	must(err)

	// car -> lot: pay, checkpoint-close, reopen, pay on, close again: the
	// first final state goes stale.
	cs, err := car.OpenChannel(ctx, lot.Address(), 30_000, 7)
	must(err)
	_, err = car.Pay(ctx, cs.ID, 1_000)
	must(err)
	stale, err := car.Close(ctx, cs.ID)
	must(err)
	must(car.Reopen(ctx, cs.ID))
	lotChans, err := lot.Channels(ctx)
	must(err)
	must(lot.Reopen(ctx, lotChans[0].ID))
	_, err = car.Pay(ctx, cs.ID, 2_000)
	must(err)
	fresh, err := car.Close(ctx, cs.ID)
	must(err)

	// bike -> lot: a claimed conditional payment (revealed preimage).
	cs2, err := bike.OpenChannel(ctx, lot.Address(), 9_000, 0)
	must(err)
	_, err = bike.Pay(ctx, cs2.ID, 400)
	must(err)
	claimed := formatSecret("claimed")
	_, err = bike.PayConditional(ctx, cs2.ID, 700, claimed.Lock())
	must(err)
	lotChans, err = lot.Channels(ctx)
	must(err)
	_, err = lot.Claim(ctx, lotChans[len(lotChans)-1].ID, claimed)
	must(err)

	// bike -> car: a conditional payment left pending.
	cs3, err := bike.OpenChannel(ctx, car.Address(), 5_000, 0)
	must(err)
	_, err = bike.PayConditional(ctx, cs3.ID, 300, formatSecret("pending").Lock())
	must(err)

	// Sensor frames and on-device contracts.
	_, err = car.SendSensorData(ctx, lot.Address(), tinyevm.SensorTemperature)
	must(err)
	dep, err := car.DeployContract(ctx,
		tinyevm.PaymentChannelInitCode(car.Address(), lot.Address(), tinyevm.SensorTemperature, 0))
	must(err)
	must(dep.Err)
	_, err = car.CallContract(ctx, dep.Address, tinyevm.Calldata("sensorData()"), 0)
	must(err)

	// The fraud: the stale state is committed first, the fresh one
	// supersedes it; then an exit opens the challenge period.
	_, err = car.Commit(ctx, stale)
	must(err)
	_, err = lot.Commit(ctx, fresh)
	must(err)
	_, err = car.Exit(ctx)
	must(err)
	must(svc.MineBlock(ctx))
}

// formatWorkloadTail issues the remaining kinds. The route's secret is
// drawn at random inside RoutePayment, which is why it comes after the
// pinned checkpoint and why the journal comparison masks it.
func formatWorkloadTail(t testing.TB, svc *tinyevm.Service, lot *tinyevm.ServiceNode) {
	t.Helper()
	ctx := context.Background()
	bike, _ := svc.Node("bike")
	car, _ := svc.Node("car")
	// Fresh channels carry the route: the first car -> lot channel is
	// closed and the first bike -> car one holds a pending HTLC.
	hop1, err := bike.OpenChannel(ctx, car.Address(), 4_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	hop2, err := car.OpenChannel(ctx, lot.Address(), 6_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RoutePayment(ctx,
		[]tinyevm.RouteStep{{Node: "bike", Channel: hop1.ID}, {Node: "car", Channel: hop2.ID}},
		lot.Name(), 250, 10); err != nil {
		t.Fatal(err)
	}
	if err := svc.RunChallengePeriod(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := lot.Settle(ctx); err != nil {
		t.Fatal(err)
	}
}

// formatOpts are the deployment parameters of the format workload. The
// funds are spelled out because the checkpoint golden holds balances:
// they are what the default was when the goldens were written, and a
// pinned format must not move with a default.
func formatOpts(kv store.KVStore, extra ...tinyevm.Option) []tinyevm.Option {
	return append([]tinyevm.Option{tinyevm.WithChallengePeriod(4), tinyevm.WithStore(kv),
		tinyevm.WithFunds(100_000_000, 100_000_000)}, extra...)
}

// journalLines renders the op/ keyspace as "key value" lines.
func journalLines(t testing.TB, kv store.KVStore) []string {
	t.Helper()
	var lines []string
	err := kv.Iterate([]byte("op/"), func(k, v []byte) error {
		lines = append(lines, fmt.Sprintf("%s %s", k, v))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

var routeSecretRE = regexp.MustCompile(`"secret":"[0-9a-f]{64}"`)

// maskRouteSecret blanks the one nondeterministic field of the journal.
func maskRouteSecret(line string) string {
	if !strings.Contains(line, `"op":"routePayment"`) {
		return line
	}
	return routeSecretRE.ReplaceAllString(line, `"secret":"<random>"`)
}

// formatExpect is what the golden-writing commit observed after
// recovering its own journal.
type formatExpect struct {
	HeadNumber  uint64                          `json:"headNumber"`
	HeadHash    string                          `json:"headHash"`
	StateDigest string                          `json:"stateDigest"`
	Balances    map[string]uint64               `json:"balances"`
	Channels    map[string][]channelFingerprint `json:"channels"`
}

func expectOf(ds deploymentState) formatExpect {
	return formatExpect{ds.headNumber, ds.headHash, ds.stateDigest, ds.balances, ds.channels}
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(formatDir, name))
	if err != nil {
		t.Fatalf("%v (regenerate with -update-format)", err)
	}
	return data
}

// goldenJournal returns the golden journal's "key value" lines.
func goldenJournal(t testing.TB) []string {
	t.Helper()
	return strings.Split(strings.TrimSuffix(string(readGolden(t, "journal.golden")), "\n"), "\n")
}

func writeGolden(t testing.TB, name string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(formatDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(formatDir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpRecordFormatPin runs the every-kind workload and compares each
// journaled record byte-for-byte with the golden journal, then replays
// the GOLDEN journal (the other commit's bytes, its route secret
// included) and requires the recorded head hash, state digest, balances
// and channel states.
func TestOpRecordFormatPin(t *testing.T) {
	kv := store.NewMem()
	svc, lot, err := tinyevm.NewService("lot", formatOpts(kv)...)
	if err != nil {
		t.Fatal(err)
	}
	formatWorkloadHead(t, svc, lot)
	formatWorkloadTail(t, svc, lot)
	svc.Close()
	lines := journalLines(t, kv)

	if *updateFormat {
		svc2, _, err := tinyevm.NewService("lot", formatOpts(kv)...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc2.Close()
		expect, err := json.MarshalIndent(expectOf(captureState(t, svc2)), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		writeGolden(t, "journal.golden", []byte(strings.Join(lines, "\n")+"\n"))
		writeGolden(t, "expect.json", append(expect, '\n'))
		return
	}

	golden := goldenJournal(t)
	if len(lines) != len(golden) {
		t.Fatalf("journal has %d records, golden %d", len(lines), len(golden))
	}
	kinds := make(map[string]bool)
	for i := range golden {
		if got, want := maskRouteSecret(lines[i]), maskRouteSecret(golden[i]); got != want {
			t.Errorf("record %d differs:\n got %s\nwant %s", i, got, want)
		}
		var rec struct {
			Op string `json:"op"`
		}
		_, value, _ := strings.Cut(golden[i], " ")
		if err := json.Unmarshal([]byte(value), &rec); err != nil {
			t.Fatal(err)
		}
		kinds[rec.Op] = true
	}
	if len(kinds) != 18 {
		t.Errorf("golden journal covers %d op kinds, want all 18: %v", len(kinds), kinds)
	}

	// The golden journal, replayed from nothing but its records.
	replay := store.NewMem()
	for _, line := range golden {
		key, value, _ := strings.Cut(line, " ")
		if err := replay.Put([]byte(key), []byte(value)); err != nil {
			t.Fatal(err)
		}
	}
	svc2, _, err := tinyevm.NewService("lot", formatOpts(replay)...)
	if err != nil {
		t.Fatalf("replaying the golden journal: %v", err)
	}
	defer svc2.Close()
	if n := svc2.RecoveryInfo().ReplayedOps; n != len(golden) {
		t.Fatalf("replayed %d of %d golden records", n, len(golden))
	}
	var want formatExpect
	if err := json.Unmarshal(readGolden(t, "expect.json"), &want); err != nil {
		t.Fatal(err)
	}
	got := captureState(t, svc2)
	assertSameDeployment(t, deploymentState{
		want.HeadNumber, want.HeadHash, want.StateDigest, want.Balances, want.Channels,
	}, got)
	if len(got.channels) != len(want.Channels) {
		t.Fatalf("channels on %d nodes, golden %d", len(got.channels), len(want.Channels))
	}
}

// TestCheckpointFormatPin checkpoints after every sealed block of the
// workload head and compares the last checkpoint byte-for-byte with the
// golden one, then restores the GOLDEN checkpoint and requires the
// deployment the live run ended in.
func TestCheckpointFormatPin(t *testing.T) {
	kv := store.NewMem()
	opts := formatOpts(kv, tinyevm.WithCheckpointInterval(1))
	svc, lot, err := tinyevm.NewService("lot", opts...)
	if err != nil {
		t.Fatal(err)
	}
	formatWorkloadHead(t, svc, lot)
	svc.Close()
	got, ok, err := kv.Get([]byte("ckpt/state"))
	if err != nil || !ok {
		t.Fatalf("no checkpoint written: %v", err)
	}
	if *updateFormat {
		writeGolden(t, "checkpoint.golden", got)
		return
	}
	want := readGolden(t, "checkpoint.golden")
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint differs from golden:\n got %s\nwant %s", got, want)
	}

	// Restore from the golden bytes and compare with the live run.
	live := store.NewMem()
	svc2, lot2, err := tinyevm.NewService("lot", formatOpts(live)...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	formatWorkloadHead(t, svc2, lot2)

	if err := kv.Put([]byte("ckpt/state"), want); err != nil {
		t.Fatal(err)
	}
	svc3, _, err := tinyevm.NewService("lot", opts...)
	if err != nil {
		t.Fatalf("restoring the golden checkpoint: %v", err)
	}
	defer svc3.Close()
	if info := svc3.RecoveryInfo(); info.CheckpointHeight == 0 || info.ReplayedOps != 0 {
		t.Fatalf("recovery did not start from the checkpoint alone: %+v", info)
	}
	assertSameDeployment(t, captureState(t, svc2), captureState(t, svc3))
}
