package tinyevm_test

// The on-disk format pins for the service's own records: the operation
// journal (op/<seq>) and the checkpoint (ckpt/state), and the formats a
// store may have to be opened at all.
//
// testdata/format holds what this tree writes — binary records, kept as
// hex — for a fixed workload that issues every operation kind; the tree
// must keep writing those bytes and must replay them to the deployment
// recorded beside them (expect.json). testdata/format/v<N> holds, for
// the one older format this build still opens, the whole store (every
// key, values in hex) a format-N commit left after replaying that
// journal; it is never regenerated: TestMigrateFormat2Store opens it.
//
// Regenerate the current-format pins (only for an intentional format
// change) with
//
//	go test -run 'TestOpRecordFormatPin|TestCheckpointFormatPin' -update-format .

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tinyevm"
	"tinyevm/internal/codec"
	"tinyevm/internal/store"
)

var updateFormat = flag.Bool("update-format", false, "rewrite testdata/format from this tree")

const (
	formatDir  = "testdata/format"
	format2Dir = formatDir + "/v2"
)

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

// journalLines renders the op/ keyspace as "key hex(value)" lines.
func journalLines(t testing.TB, kv store.KVStore) []string {
	t.Helper()
	var lines []string
	err := kv.Iterate([]byte("op/"), func(k, v []byte) error {
		lines = append(lines, fmt.Sprintf("%s %x", k, v))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// cutRecord splits a "key hex(value)" line.
func cutRecord(t testing.TB, line string) (key string, value []byte) {
	t.Helper()
	key, text, _ := strings.Cut(line, " ")
	value, err := hex.DecodeString(text)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	return key, value
}

// maskRouteSecret blanks the one nondeterministic field of the journal:
// the secret RoutePayment draws at random.
func maskRouteSecret(t testing.TB, value []byte) (string, []byte) {
	t.Helper()
	rec, err := tinyevm.DecodeOpRecord(value)
	if err != nil {
		t.Fatalf("%x: %v", value, err)
	}
	if rec.Op == "routePayment" {
		rec.Secret = make([]byte, len(rec.Secret))
	}
	return rec.Op, rec.Encode()
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

func readGolden(t testing.TB, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("%v (regenerate with -update-format)", err)
	}
	return data
}

// goldenLines returns a golden file's "key value" lines.
func goldenLines(t testing.TB, dir, name string) []string {
	t.Helper()
	return strings.Split(strings.TrimSuffix(string(readGolden(t, dir, name)), "\n"), "\n")
}

// goldenJournal returns the golden journal's "key hex(value)" lines.
func goldenJournal(t testing.TB) []string { return goldenLines(t, formatDir, "journal.golden") }

// assertExpect holds a recovered deployment to the golden expect.json.
func assertExpect(t *testing.T, svc *tinyevm.Service) {
	t.Helper()
	var want formatExpect
	if err := json.Unmarshal(readGolden(t, formatDir, "expect.json"), &want); err != nil {
		t.Fatal(err)
	}
	got := captureState(t, svc)
	assertSameDeployment(t, deploymentState{
		want.HeadNumber, want.HeadHash, want.StateDigest, want.Balances, want.Channels,
	}, got)
	if len(got.channels) != len(want.Channels) {
		t.Fatalf("channels on %d nodes, golden %d", len(got.channels), len(want.Channels))
	}
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

// copyKey copies one record between stores.
func copyKey(t testing.TB, dst, src store.KVStore, key string) {
	t.Helper()
	value, ok, err := src.Get([]byte(key))
	if err != nil || !ok {
		t.Fatalf("%s: missing (%v)", key, err)
	}
	if err := dst.Put([]byte(key), value); err != nil {
		t.Fatal(err)
	}
}

// TestOpRecordFormatPin runs the every-kind workload and compares each
// journaled record byte-for-byte with the golden journal, then replays
// the GOLDEN journal (its route secret included) and requires the
// recorded head hash, state digest, balances and channel states.
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
	replay := store.NewMem()
	for i := range golden {
		gotKey, got := cutRecord(t, lines[i])
		wantKey, want := cutRecord(t, golden[i])
		_, gotMasked := maskRouteSecret(t, got)
		op, wantMasked := maskRouteSecret(t, want)
		if gotKey != wantKey || !bytes.Equal(gotMasked, wantMasked) {
			t.Errorf("record %d (%s) differs:\n got %s %x\nwant %s %x", i, op, gotKey, got, wantKey, want)
		}
		if want[0] != codec.DiskFormat {
			t.Errorf("record %d starts with %#02x, not the format byte", i, want[0])
		}
		kinds[op] = true
		if err := replay.Put([]byte(wantKey), want); err != nil {
			t.Fatal(err)
		}
	}
	if len(kinds) != 18 {
		t.Errorf("golden journal covers %d op kinds, want all 18: %v", len(kinds), kinds)
	}

	// The golden journal, replayed from nothing but its records and the
	// stamp that says they are binary.
	copyKey(t, replay, kv, "meta/service")
	svc2, _, err := tinyevm.NewService("lot", formatOpts(replay)...)
	if err != nil {
		t.Fatalf("replaying the golden journal: %v", err)
	}
	defer svc2.Close()
	if n := svc2.RecoveryInfo().ReplayedOps; n != len(golden) {
		t.Fatalf("replayed %d of %d golden records", n, len(golden))
	}
	assertExpect(t, svc2)
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
		writeGolden(t, "checkpoint.golden", []byte(hex.EncodeToString(got)+"\n"))
		return
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(readGolden(t, formatDir, "checkpoint.golden"))))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint differs from golden:\n got %x\nwant %x", got, want)
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

// countingKV counts the atomic commits that reach a store.
type countingKV struct {
	store.KVStore
	commits int
}

func (c *countingKV) Put(key, value []byte) error { return store.PutOne(c.Batch(), key, value) }
func (c *countingKV) Delete(key []byte) error     { return store.DeleteOne(c.Batch(), key) }
func (c *countingKV) Batch() store.Batch          { return &countingBatch{c.KVStore.Batch(), c} }

type countingBatch struct {
	store.Batch
	kv *countingKV
}

func (b *countingBatch) Commit() error {
	if b.Len() > 0 {
		b.kv.commits++
	}
	return b.Batch.Commit()
}

// assertNoChainState requires kv to hold none of the chain records
// format 3 dropped: per-account records and the head pointer.
func assertNoChainState(t *testing.T, kv store.KVStore) {
	t.Helper()
	for _, prefix := range []string{"chain/acct/", "chain/meta/head"} {
		if err := kv.Iterate([]byte(prefix), func(k, _ []byte) error {
			return fmt.Errorf("the store holds %s", k)
		}); err != nil {
			t.Error(err)
		}
	}
}

// format2Store loads the whole store the format-2 commit wrote.
func format2Store(t *testing.T) *store.Mem {
	t.Helper()
	kv := store.NewMem()
	for _, line := range goldenLines(t, format2Dir, "store.golden") {
		key, value := cutRecord(t, line)
		if err := kv.Put([]byte(key), value); err != nil {
			t.Fatal(err)
		}
	}
	return kv
}

// TestMigrateFormat2Store opens the whole store the format-2 commit
// wrote for the format workload — binary records, plus a record per
// account and a head pointer beside the chain's blocks — and requires:
// one atomic batch drops those and restamps the meta; the store
// recovers to the deployment expect.json recorded; and a second open
// writes nothing.
func TestMigrateFormat2Store(t *testing.T) {
	kv := format2Store(t)
	counted := &countingKV{KVStore: kv}
	for open := 1; open <= 2; open++ {
		counted.commits = 0
		svc, _, err := tinyevm.NewService("lot", formatOpts(counted)...)
		if err != nil {
			t.Fatalf("open %d of the format-2 store: %v", open, err)
		}
		assertExpect(t, svc)
		svc.Close()
		if want := 2 - open; counted.commits != want {
			t.Fatalf("open %d committed %d batches, want %d", open, counted.commits, want)
		}
		assertNoChainState(t, kv)
		meta, _, _ := kv.Get([]byte("meta/service"))
		if !bytes.Contains(meta, []byte(`"format":3`)) {
			t.Fatalf("meta record after open %d: %s", open, meta)
		}
	}
}

// TestStoreFormatRefused: a store outside the window this build opens
// (its own format and the one before it) fails the open with
// ErrStoreFormat naming its format, and every key and value is left
// exactly as it was.
func TestStoreFormatRefused(t *testing.T) {
	withMeta := func(meta string) func(t *testing.T) *store.Mem {
		return func(t *testing.T) *store.Mem {
			kv := format2Store(t)
			if err := kv.Put([]byte("meta/service"), []byte(meta)); err != nil {
				t.Fatal(err)
			}
			return kv
		}
	}
	const params = `{"provider":"lot","challengePeriod":4,"radioSeed":1,"radioLossRate":0,` +
		`"providerFunds":100000000,"nodeFunds":100000000`
	for _, tc := range []struct {
		name   string
		format int
		build  func(t *testing.T) *store.Mem
	}{
		{"stampless meta", 0, withMeta(params + `}`)},
		{"op record without meta", 0, func(t *testing.T) *store.Mem {
			kv := store.NewMem()
			key, value := cutRecord(t, goldenJournal(t)[0])
			if err := kv.Put([]byte(key), value); err != nil {
				t.Fatal(err)
			}
			return kv
		}},
		{"format 0", 0, withMeta(params + `,"format":0}`)},
		{"format 4", 4, withMeta(params + `,"format":4}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kv := tc.build(t)
			before := cloneStore(t, kv)
			svc, _, err := tinyevm.NewService("lot", formatOpts(kv)...)
			if err == nil {
				svc.Close()
				t.Fatal("the store opened")
			}
			if !errors.Is(err, tinyevm.ErrStoreFormat) {
				t.Fatalf("error is not ErrStoreFormat: %v", err)
			}
			if want := fmt.Sprintf("format %d", tc.format); !strings.Contains(err.Error(), want) {
				t.Errorf("error does not name %s: %v", want, err)
			}
			assertSameStore(t, before, kv)
		})
	}
}

// assertSameStore requires got to hold exactly want's keys and values.
func assertSameStore(t *testing.T, want, got *store.Mem) {
	t.Helper()
	n := 0
	if err := want.Iterate(nil, func(k, v []byte) error {
		n++
		if now, ok, _ := got.Get(k); !ok || !bytes.Equal(now, v) {
			return fmt.Errorf("%s was rewritten", k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := got.Iterate(nil, func(k, _ []byte) error {
		n--
		return nil
	}); err != nil || n != 0 {
		t.Fatalf("the store gained %d keys (%v)", -n, err)
	}
}

// TestDiskFormatsAreBinary fails when a non-test file outside the
// packages that speak JSON to the outside world (the RPC gateway, the
// load harness, the commands, the disk backend's MANIFEST) imports
// encoding/json — except the one file that holds the JSON meta record —
// or when fields.go grows its hex back: no JSON encoder for a disk
// record may exist.
func TestDiskFormatsAreBinary(t *testing.T) {
	allowed := func(path string) bool {
		for _, dir := range []string{"internal/rpc/", "internal/load/", "cmd/", "internal/store/disk/", "bench/", "examples/"} {
			if strings.HasPrefix(path, dir) {
				return true
			}
		}
		return path == "migrate.go"
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			name, _ := strconv.Unquote(imp.Path.Value)
			if name == "encoding/json" && !allowed(filepath.ToSlash(path)) {
				t.Errorf("%s imports encoding/json", path)
			}
			if name == "encoding/hex" && path == "fields.go" {
				t.Errorf("%s imports encoding/hex", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
