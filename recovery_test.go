package tinyevm_test

// Recovery tests for the durable service: a deployment journaled into a
// store (in-memory or WAL) must come back byte-identical — head block
// hash, chain state digest, balances and channel states — after being
// torn down and reconstructed with NewService over the same store.

import (
	"context"
	"testing"

	"tinyevm"
	"tinyevm/internal/store"
)

// recoveryOpts are the deployment parameters shared by the original run
// and every recovery (the store's meta record pins them).
func recoveryOpts(extra ...tinyevm.Option) []tinyevm.Option {
	return append([]tinyevm.Option{tinyevm.WithChallengePeriod(6)}, extra...)
}

// runRecoveryWorkload drives a representative mixed workload: nodes,
// journaled sensors, channels (one kept open, one closed), plain and
// conditional payments, a multi-hop route, sealed blocks via on-chain
// deposits and explicit mining.
func runRecoveryWorkload(t *testing.T, svc *tinyevm.Service, lot *tinyevm.ServiceNode) {
	t.Helper()
	ctx := context.Background()

	car, err := svc.AddNode(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	bike, err := svc.AddNode(ctx, "bike")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*tinyevm.ServiceNode{lot, car, bike} {
		if err := n.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
			t.Fatal(err)
		}
	}

	cs, err := car.OpenChannel(ctx, lot.Address(), 50_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := car.Pay(ctx, cs.ID, 1_000); err != nil {
			t.Fatal(err)
		}
	}

	// Conditional payment, claimed by the receiver.
	secret, lock, err := tinyevm.NewSecret()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := car.PayConditional(ctx, cs.ID, 700, lock); err != nil {
		t.Fatal(err)
	}
	lotCh, err := lot.Channels(ctx)
	if err != nil || len(lotCh) == 0 {
		t.Fatalf("lot channels: %v %v", lotCh, err)
	}
	if _, err := lot.Claim(ctx, lotCh[0].ID, secret); err != nil {
		t.Fatal(err)
	}

	// A second channel, closed cooperatively.
	cs2, err := bike.OpenChannel(ctx, lot.Address(), 9_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bike.Pay(ctx, cs2.ID, 400); err != nil {
		t.Fatal(err)
	}
	if _, err := bike.Close(ctx, cs2.ID); err != nil {
		t.Fatal(err)
	}

	// Multi-hop route bike -> car -> lot over fresh channels.
	rcs, err := bike.OpenChannel(ctx, car.Address(), 5_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RoutePayment(ctx,
		[]tinyevm.RouteStep{{Node: "bike", Channel: rcs.ID}, {Node: "car", Channel: cs.ID}},
		lot.Name(), 250, 10); err != nil {
		t.Fatal(err)
	}

	// On-chain traffic: deposits seal blocks through SendTransaction.
	if _, err := car.Deposit(ctx, 20_000); err != nil {
		t.Fatal(err)
	}
	if _, err := lot.Deposit(ctx, 10_000); err != nil {
		t.Fatal(err)
	}
	if err := svc.MineBlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// deploymentState is the observable state the recovery must reproduce.
type deploymentState struct {
	headNumber  uint64
	headHash    string
	stateDigest string
	balances    map[string]uint64
	channels    map[string][]channelFingerprint
}

type channelFingerprint struct {
	ID, WireID, Deposit, Seq, Cumulative uint64
	Peer                                 string
	Closed                               bool
	PaymentDigest                        string
}

func captureState(t *testing.T, svc *tinyevm.Service) deploymentState {
	t.Helper()
	ctx := context.Background()
	sys := svc.System()
	ds := deploymentState{
		headNumber:  sys.Chain.Head().Number,
		headHash:    sys.Chain.Head().Hash.Hex(),
		stateDigest: sys.Chain.State().Digest().Hex(),
		balances:    make(map[string]uint64),
		channels:    make(map[string][]channelFingerprint),
	}
	for _, sn := range svc.Nodes() {
		bal, err := svc.BalanceOf(ctx, sn.Address())
		if err != nil {
			t.Fatal(err)
		}
		ds.balances[sn.Name()] = bal
		chs, err := sn.Channels(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range chs {
			fp := channelFingerprint{
				ID: cs.ID, WireID: cs.WireID, Deposit: cs.Deposit,
				Seq: cs.Seq, Cumulative: cs.Cumulative,
				Peer: cs.Peer.Hex(), Closed: cs.Closed(),
			}
			if cs.LastPayment != nil {
				fp.PaymentDigest = cs.LastPayment.Digest().Hex()
			}
			ds.channels[sn.Name()] = append(ds.channels[sn.Name()], fp)
		}
	}
	return ds
}

func assertSameDeployment(t *testing.T, want, got deploymentState) {
	t.Helper()
	if got.headNumber != want.headNumber || got.headHash != want.headHash {
		t.Fatalf("head diverged: %d/%s vs %d/%s", got.headNumber, got.headHash, want.headNumber, want.headHash)
	}
	if got.stateDigest != want.stateDigest {
		t.Fatalf("state digest diverged: %s vs %s", got.stateDigest, want.stateDigest)
	}
	for name, bal := range want.balances {
		if got.balances[name] != bal {
			t.Fatalf("balance of %s diverged: %d vs %d", name, got.balances[name], bal)
		}
	}
	for name, chs := range want.channels {
		if len(got.channels[name]) != len(chs) {
			t.Fatalf("channel count of %s diverged: %d vs %d", name, len(got.channels[name]), len(chs))
		}
		for i, fp := range chs {
			if got.channels[name][i] != fp {
				t.Fatalf("channel %d of %s diverged:\n got %+v\nwant %+v", i, name, got.channels[name][i], fp)
			}
		}
	}
}

// TestServiceRecoveryRoundTrip journals a workload into an in-memory
// store, rebuilds the service from it, and requires the recovered
// deployment to be byte-identical and fully operational.
func TestServiceRecoveryRoundTrip(t *testing.T) {
	kv := store.NewMem()
	svc, lot, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv))...)
	if err != nil {
		t.Fatal(err)
	}
	runRecoveryWorkload(t, svc, lot)
	want := captureState(t, svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, _, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv))...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	assertSameDeployment(t, want, captureState(t, svc2))

	// The recovered deployment keeps working and keeps journaling: pay
	// over the recovered channel, then recover a second time.
	ctx := context.Background()
	car, ok := svc2.Node("car")
	if !ok {
		t.Fatal("car not recovered")
	}
	chs, err := car.Channels(ctx)
	if err != nil || len(chs) == 0 {
		t.Fatalf("car channels after recovery: %v %v", chs, err)
	}
	if _, err := car.Pay(ctx, chs[0].ID, 123); err != nil {
		t.Fatalf("pay after recovery: %v", err)
	}
	want2 := captureState(t, svc2)
	svc2.Close()

	svc3, _, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv))...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	assertSameDeployment(t, want2, captureState(t, svc3))
}

// TestServiceRecoveryWAL runs the round-trip through the real WAL file,
// including a service-owned open/close cycle (WithDataDir) and a
// double recovery proving replay determinism.
func TestServiceRecoveryWAL(t *testing.T) {
	dir := t.TempDir()
	svc, lot, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithDataDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	runRecoveryWorkload(t, svc, lot)
	want := captureState(t, svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		svc2, _, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithDataDir(dir))...)
		if err != nil {
			t.Fatalf("recovery %d: %v", i, err)
		}
		assertSameDeployment(t, want, captureState(t, svc2))
		svc2.Close()
	}
}

// TestRecoveryInfoStages: a cold start says where it went. The stage
// timers nest inside Duration (whose meaning the benchmark depends on),
// StoreOpen is reported only for a store the service opened itself, and
// the checkpointed run books its time under CheckpointLoad.
func TestRecoveryInfoStages(t *testing.T) {
	for _, c := range []struct {
		name  string
		owned bool
		extra []tinyevm.Option
	}{
		{"handed-in store, full replay", false, nil},
		{"data dir, full replay", true, nil},
		{"data dir, checkpoint and tail", true, []tinyevm.Option{tinyevm.WithCheckpointInterval(2)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := recoveryOpts(c.extra...)
			if c.owned {
				opts = append(opts, tinyevm.WithDataDir(t.TempDir()))
			} else {
				opts = append(opts, tinyevm.WithStore(store.NewMem()))
			}
			svc, lot, err := tinyevm.NewService("lot", opts...)
			if err != nil {
				t.Fatal(err)
			}
			if first := svc.RecoveryInfo(); first.Recovered || first.CheckpointLoad+first.Replay > first.Duration {
				t.Fatalf("first open of an empty store: %+v", first)
			}
			runRecoveryWorkload(t, svc, lot)
			svc.Close()

			svc2, _, err := tinyevm.NewService("lot", opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer svc2.Close()
			ri := svc2.RecoveryInfo()
			if !ri.Recovered || ri.Replay <= 0 || ri.CheckpointLoad < 0 {
				t.Fatalf("recovery left a stage untimed: %+v", ri)
			}
			if ri.CheckpointLoad+ri.Replay > ri.Duration {
				t.Fatalf("stages exceed the whole: load %s + replay %s > %s", ri.CheckpointLoad, ri.Replay, ri.Duration)
			}
			if (ri.StoreOpen > 0) != c.owned {
				t.Fatalf("StoreOpen %s with owned=%v", ri.StoreOpen, c.owned)
			}
			if hasCkpt := ri.CheckpointHeight > 0; hasCkpt != (len(c.extra) > 0) {
				t.Fatalf("checkpoint height %d", ri.CheckpointHeight)
			}
			st, ok, err := svc2.StoreStatus(context.Background())
			if err != nil || !ok || st.Recovery != ri {
				t.Fatalf("StoreStatus reports %+v, RecoveryInfo %+v (%v)", st.Recovery, ri, err)
			}
		})
	}
}

// TestServiceRecoveryRejectsForeignStore pins the meta guard: a store
// journaled under one deployment cannot be replayed under different
// parameters.
func TestServiceRecoveryRejectsForeignStore(t *testing.T) {
	kv := store.NewMem()
	svc, _, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv))...)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	if _, _, err := tinyevm.NewService("other-provider", recoveryOpts(tinyevm.WithStore(kv))...); err == nil {
		t.Fatal("foreign provider accepted")
	}
	if _, _, err := tinyevm.NewService("lot",
		tinyevm.WithChallengePeriod(99), tinyevm.WithStore(kv)); err == nil {
		t.Fatal("different challenge period accepted")
	}
	// The matching deployment still recovers.
	svc2, _, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv))...)
	if err != nil {
		t.Fatal(err)
	}
	svc2.Close()
}

// TestServiceRecoveryKeepsItsFunds: the initial balances are deployment
// parameters like the challenge period. A store reopens with its own
// funds when none are given — zero funds included, which the meta record
// leaves out — and with the same funds spelled out, and refuses
// different ones; a store created under the defaults records them.
func TestServiceRecoveryKeepsItsFunds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		funds uint64
	}{{"zero funds", 0}, {"explicit funds", 100_000_000}} {
		t.Run(tc.name, func(t *testing.T) {
			kv := store.NewMem()
			created := tinyevm.WithFunds(tc.funds, tc.funds)
			svc, lot, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv), created)...)
			if err != nil {
				t.Fatal(err)
			}
			runRecoveryWorkload(t, svc, lot)
			want := captureState(t, svc)
			svc.Close()

			for _, reopen := range [][]tinyevm.Option{{tinyevm.WithStore(kv)}, {tinyevm.WithStore(kv), created}} {
				svc2, _, err := tinyevm.NewService("lot", recoveryOpts(reopen...)...)
				if err != nil {
					t.Fatalf("reopening with %d options: %v", len(reopen), err)
				}
				assertSameDeployment(t, want, captureState(t, svc2))
				svc2.Close()
			}
			if _, _, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv), tinyevm.WithFunds(tc.funds+1, tc.funds))...); err == nil {
				t.Fatal("different funds accepted")
			}
		})
	}

	// A store created under the defaults records them and reopens.
	kv := store.NewMem()
	svc, lot, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv))...)
	if err != nil {
		t.Fatal(err)
	}
	runRecoveryWorkload(t, svc, lot)
	want := captureState(t, svc)
	svc.Close()
	svc2, _, err := tinyevm.NewService("lot", recoveryOpts(tinyevm.WithStore(kv))...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	assertSameDeployment(t, want, captureState(t, svc2))
}

// TestRecoveryReplayBounded pins the checkpoint contract as a count:
// with a checkpoint the replayed tail stays under one interval's worth
// of operations however long the chain is, while full replay grows with
// history. (The cold start's wall time is the benchmark's `recover`
// workload.)
func TestRecoveryReplayBounded(t *testing.T) {
	reopen := func(blocks int, interval uint64) tinyevm.RecoveryInfo {
		kv := store.NewMem()
		opts := []tinyevm.Option{tinyevm.WithChallengePeriod(6), tinyevm.WithStore(kv)}
		if interval > 0 {
			opts = append(opts, tinyevm.WithCheckpointInterval(interval))
		}
		svc, hub, err := tinyevm.NewService("hub", opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := hub.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
			t.Fatal(err)
		}
		car, err := svc.AddNode(ctx, "car")
		if err != nil {
			t.Fatal(err)
		}
		if err := car.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
			t.Fatal(err)
		}
		ch, err := car.OpenChannel(ctx, hub.Address(), 1_000_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < blocks; i++ {
			if _, err := car.Pay(ctx, ch.ID, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := car.Deposit(ctx, 10); err != nil {
				t.Fatal(err)
			}
		}
		svc.Close()
		svc2, _, err := tinyevm.NewService("hub", opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc2.Close()
		return svc2.RecoveryInfo()
	}

	const interval = 8
	shortCkpt := reopen(24, interval)
	longCkpt := reopen(72, interval)
	longFull := reopen(72, 0)

	// Ops per block in this workload: one payment + one deposit, so one
	// interval's tail is at most ~3x the interval in ops (plus setup).
	bound := int(interval)*3 + 8
	for _, ri := range []tinyevm.RecoveryInfo{shortCkpt, longCkpt} {
		if ri.CheckpointHeight == 0 {
			t.Fatalf("no checkpoint used: %+v", ri)
		}
		if ri.ReplayedOps > bound {
			t.Fatalf("checkpointed tail %d exceeds interval bound %d (%+v)", ri.ReplayedOps, bound, ri)
		}
	}
	if longCkpt.ReplayedOps > shortCkpt.ReplayedOps+bound {
		t.Fatalf("checkpointed tail grew with history: %d vs %d", longCkpt.ReplayedOps, shortCkpt.ReplayedOps)
	}
	if longFull.ReplayedOps <= 2*72 {
		t.Fatalf("full replay replayed %d ops for 72 blocks; journal suspiciously short", longFull.ReplayedOps)
	}
	if longFull.CheckpointHeight != 0 {
		t.Fatalf("full replay claims a checkpoint: %+v", longFull)
	}
}
