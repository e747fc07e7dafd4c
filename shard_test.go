package tinyevm_test

// Shard-correctness tests for the lock-striped service hot path:
// disjoint channel pairs must scale without interference, colliding
// pairs must serialize on their shared stripe without losing updates,
// the sharded path must produce byte-identical state to the serial
// (single-stripe) path, and a crash that loses in-flight pipeline
// commits must replay to the same deployment. Run under -race in CI.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tinyevm"
	"tinyevm/internal/store"
)

// TestShardDisjointPairsHammer drives many pairwise-independent
// channels concurrently: vehicle i pays meter i on its own channel.
// No pair shares a node, so under striping the pairs only ever contend
// when their addresses hash to the same stripe — and even then must
// serialize losslessly.
func TestShardDisjointPairsHammer(t *testing.T) {
	svc, _, err := tinyevm.NewService("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	const pairs = 16
	const pays = 25
	const amount = 7

	type pair struct {
		payer *tinyevm.ServiceNode
		ch    uint64
	}
	ps := make([]pair, pairs)
	for i := range ps {
		payer, err := svc.AddNode(ctx, fmt.Sprintf("veh-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		meter, err := svc.AddNode(ctx, fmt.Sprintf("meter-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []*tinyevm.ServiceNode{payer, meter} {
			if err := n.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
				t.Fatal(err)
			}
		}
		cs, err := payer.OpenChannel(ctx, meter.Address(), 100_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = pair{payer: payer, ch: cs.ID}
	}

	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func(p pair) {
			defer wg.Done()
			for j := 0; j < pays; j++ {
				if _, err := p.payer.Pay(ctx, p.ch, amount); err != nil {
					t.Errorf("%s pay %d: %v", p.payer.Name(), j, err)
					return
				}
			}
		}(ps[i])
	}
	wg.Wait()

	for _, p := range ps {
		cs, ok, err := p.payer.Channel(ctx, p.ch)
		if err != nil || !ok {
			t.Fatalf("%s channel: %v %v", p.payer.Name(), ok, err)
		}
		if cs.Cumulative != pays*amount || cs.Seq != pays {
			t.Errorf("%s: cum=%d seq=%d, want %d/%d",
				p.payer.Name(), cs.Cumulative, cs.Seq, pays*amount, pays)
		}
		if err := p.payer.VerifyLog(ctx); err != nil {
			t.Errorf("%s log: %v", p.payer.Name(), err)
		}
	}
}

// TestShardCollidingPairsHammer funnels every vehicle onto one hub
// node — worst-case stripe collision: all channels share the hub, so
// every payment contends on the hub's stripe. Concurrent payers on the
// same receiver must interleave without losing a payment, and
// concurrent payers on the SAME channel must serialize into a gapless
// sequence.
func TestShardCollidingPairsHammer(t *testing.T) {
	svc, hub, err := tinyevm.NewService("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	const vehicles = 12
	const pays = 20
	const amount = 3
	const sharedPayers = 4 // goroutines hammering one shared channel

	if err := hub.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	chIDs := make([]uint64, vehicles)
	payers := make([]*tinyevm.ServiceNode, vehicles)
	for i := 0; i < vehicles; i++ {
		payer, err := svc.AddNode(ctx, fmt.Sprintf("veh-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := payer.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
			t.Fatal(err)
		}
		cs, err := payer.OpenChannel(ctx, hub.Address(), 100_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		payers[i], chIDs[i] = payer, cs.ID
	}
	// One extra channel hammered by several goroutines at once.
	shared, err := svc.AddNode(ctx, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if err := shared.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
		t.Fatal(err)
	}
	sharedCh, err := shared.OpenChannel(ctx, hub.Address(), 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < vehicles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < pays; j++ {
				if _, err := payers[i].Pay(ctx, chIDs[i], amount); err != nil {
					t.Errorf("veh-%d pay %d: %v", i, j, err)
					return
				}
			}
		}(i)
	}
	for g := 0; g < sharedPayers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < pays; j++ {
				if _, err := shared.Pay(ctx, sharedCh.ID, amount); err != nil {
					t.Errorf("shared pay %d: %v", j, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	hubChans, err := hub.Channels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, cs := range hubChans {
		total += cs.Cumulative
	}
	want := uint64((vehicles + sharedPayers) * pays * amount)
	if total != want {
		t.Errorf("hub received %d total, want %d", total, want)
	}
	scs, ok, err := shared.Channel(ctx, sharedCh.ID)
	if err != nil || !ok {
		t.Fatalf("shared channel: %v %v", ok, err)
	}
	if scs.Seq != sharedPayers*pays || scs.Cumulative != sharedPayers*pays*amount {
		t.Errorf("shared channel: seq=%d cum=%d, want %d/%d",
			scs.Seq, scs.Cumulative, sharedPayers*pays, sharedPayers*pays*amount)
	}
	if err := hub.VerifyLog(ctx); err != nil {
		t.Errorf("hub log: %v", err)
	}
}

// shardDifferentialWorkload is a deterministic sequential workload
// spanning every sharded op class plus global ops — device identities
// are name-derived and block timestamps logical, so two services fed
// this workload must end byte-identical.
func shardDifferentialWorkload(t *testing.T, svc *tinyevm.Service, hub *tinyevm.ServiceNode) {
	t.Helper()
	ctx := context.Background()

	if err := hub.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
		t.Fatal(err)
	}
	nodes := make([]*tinyevm.ServiceNode, 6)
	for i := range nodes {
		n, err := svc.AddNode(ctx, fmt.Sprintf("dev-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterSensorValue(ctx, tinyevm.SensorTemperature, uint64(2000+i)); err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}

	// Fan-in channels to the hub with varying payment mixes.
	for i, n := range nodes {
		cs, err := n.OpenChannel(ctx, hub.Address(), 50_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ {
			if _, err := n.Pay(ctx, cs.ID, uint64(100+10*j)); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 1 {
			if _, err := n.Close(ctx, cs.ID); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Conditional payment with a fixed (deterministic) preimage.
	var secret tinyevm.Secret
	copy(secret[:], []byte("shard-differential-fixed-secret!"))
	cs, err := nodes[0].OpenChannel(ctx, nodes[2].Address(), 8_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].PayConditional(ctx, cs.ID, 500, secret.Lock()); err != nil {
		t.Fatal(err)
	}
	recvChans, err := nodes[2].Channels(ctx)
	if err != nil || len(recvChans) == 0 {
		t.Fatalf("receiver channels: %v %v", recvChans, err)
	}
	claimCh := recvChans[len(recvChans)-1].ID
	if _, err := nodes[2].Claim(ctx, claimCh, secret); err != nil {
		t.Fatal(err)
	}

	// Global ops interleaved: on-chain deposits seal blocks.
	if _, err := nodes[0].Deposit(ctx, 12_000); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Deposit(ctx, 4_000); err != nil {
		t.Fatal(err)
	}
	if err := svc.MineBlock(ctx); err != nil {
		t.Fatal(err)
	}
}

// lossyOpts is a radio bad enough (35 % frame loss, 4 retries) that some
// payments of lossyWorkload exhaust their retries and fail.
func lossyOpts(extra ...tinyevm.Option) []tinyevm.Option {
	return append([]tinyevm.Option{tinyevm.WithRadioLossRate(0.35), tinyevm.WithRadioSeed(7)}, extra...)
}

// lossyWorkload drives six vehicles paying the hub over a lossy radio,
// all vehicles at once when concurrent is set, one on-chain deposit
// (a sealed block) between rounds. It returns which payments failed:
// with each sender drawing from its own loss stream that, like every
// balance and channel, is fixed by each vehicle's own op order and not
// by how the vehicles interleave.
func lossyWorkload(t *testing.T, svc *tinyevm.Service, hub *tinyevm.ServiceNode, concurrent bool) []string {
	t.Helper()
	ctx := context.Background()
	const vehicles, rounds, paysPerRound = 6, 12, 4

	if err := hub.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
		t.Fatal(err)
	}
	nodes := make([]*tinyevm.ServiceNode, vehicles)
	chans := make([]uint64, vehicles)
	for i := range nodes {
		n, err := svc.AddNode(ctx, fmt.Sprintf("veh-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterSensorValue(ctx, tinyevm.SensorTemperature, uint64(2000+i)); err != nil {
			t.Fatal(err)
		}
		cs, err := n.OpenChannel(ctx, hub.Address(), 50_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], chans[i] = n, cs.ID
	}

	failed := make([][]string, vehicles)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := range nodes {
			round := func(i int) {
				defer wg.Done()
				for j := 0; j < paysPerRound; j++ {
					if _, err := nodes[i].Pay(ctx, chans[i], uint64(10+i+j)); err != nil {
						failed[i] = append(failed[i], fmt.Sprintf("veh-%d round %d pay %d", i, r, j))
					}
				}
			}
			wg.Add(1)
			if concurrent {
				go round(i)
			} else {
				round(i)
			}
		}
		wg.Wait()
		if _, err := nodes[r%vehicles].Deposit(ctx, 1_000); err != nil {
			t.Fatal(err)
		}
	}
	var all []string
	for _, f := range failed {
		all = append(all, f...)
	}
	if len(all) == 0 {
		t.Fatal("no payment failed: the workload does not exercise the loss process")
	}
	return all
}

// TestShardedVsSerialDifferential feeds the identical deterministic
// workload to a default-sharded service and a WithShards(1) (fully
// serial) service: head hash, state digest, balances and channel
// fingerprints must agree byte for byte — striping is a pure
// concurrency optimisation, never a semantic change. The lossy leg
// runs the vehicles concurrently on the sharded side: the same payments
// must fail and the deployments must still agree.
func TestShardedVsSerialDifferential(t *testing.T) {
	run := func(opts ...tinyevm.Option) deploymentState {
		svc, hub, err := tinyevm.NewService("hub", opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		shardDifferentialWorkload(t, svc, hub)
		return captureState(t, svc)
	}
	sharded := run()
	serial := run(tinyevm.WithShards(1))
	assertSameDeployment(t, serial, sharded)

	t.Run("lossy", func(t *testing.T) {
		run := func(concurrent bool, opts ...tinyevm.Option) (deploymentState, []string) {
			svc, hub, err := tinyevm.NewService("hub", lossyOpts(opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			failed := lossyWorkload(t, svc, hub, concurrent)
			return captureState(t, svc), failed
		}
		sharded, shardedFailed := run(true)
		serial, serialFailed := run(false, tinyevm.WithShards(1))
		if !reflect.DeepEqual(shardedFailed, serialFailed) {
			t.Fatalf("different payments failed:\nsharded %v\nserial  %v", shardedFailed, serialFailed)
		}
		assertSameDeployment(t, serial, sharded)
	})
}

// cloneStore snapshots a Mem store — the moral equivalent of the bytes
// on disk at SIGKILL time: everything committed is present, anything
// still queued in the seal pipeline is not.
func cloneStore(t *testing.T, kv *store.Mem) *store.Mem {
	t.Helper()
	clone := store.NewMem()
	if err := kv.Iterate(nil, func(k, v []byte) error {
		return clone.Put(append([]byte(nil), k...), append([]byte(nil), v...))
	}); err != nil {
		t.Fatal(err)
	}
	return clone
}

// TestShardCrashRecoveryMidPipeline crashes a sharded deployment with
// the seal pipeline hot: concurrent cross-shard payments plus a burst
// of block-sealing deposits, then the store is snapshotted WITHOUT
// closing the service — in-flight pipeline commits may be missing from
// the snapshot, exactly like kill -9. Replay over the snapshot must
// converge on the pre-crash deployment, twice over (determinism), and
// stay live.
func TestShardCrashRecoveryMidPipeline(t *testing.T) {
	kv := store.NewMem()
	svc, hub, err := tinyevm.NewService("hub", recoveryOpts(tinyevm.WithStore(kv))...)
	if err != nil {
		t.Fatal(err)
	}
	// No Close: the crash must land with the pipeline possibly holding
	// uncommitted batches. The abandoned service leaks goroutines for
	// the remainder of the test run, as a killed process would.
	ctx := context.Background()

	const pairs = 8
	const pays = 15

	type pair struct {
		payer *tinyevm.ServiceNode
		ch    uint64
	}
	if err := hub.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
		t.Fatal(err)
	}
	ps := make([]pair, pairs)
	for i := range ps {
		payer, err := svc.AddNode(ctx, fmt.Sprintf("veh-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := payer.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
			t.Fatal(err)
		}
		cs, err := payer.OpenChannel(ctx, hub.Address(), 50_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = pair{payer: payer, ch: cs.ID}
	}

	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func(i int, p pair) {
			defer wg.Done()
			for j := 0; j < pays; j++ {
				if _, err := p.payer.Pay(ctx, p.ch, 5); err != nil {
					t.Errorf("veh-%d pay: %v", i, err)
					return
				}
			}
			// Block-sealing traffic keeps the pipeline busy.
			if i%2 == 0 {
				if _, err := p.payer.Deposit(ctx, 1_000); err != nil {
					t.Errorf("veh-%d deposit: %v", i, err)
				}
			}
		}(i, ps[i])
	}
	wg.Wait()
	// A final seal burst right before the crash maximises the odds the
	// snapshot races an in-flight WAL commit.
	for i := 0; i < 3; i++ {
		if err := svc.MineBlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	want := captureState(t, svc)
	crashed := cloneStore(t, kv)

	svc2, _, err := tinyevm.NewService("hub", recoveryOpts(tinyevm.WithStore(crashed))...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	assertSameDeployment(t, want, captureState(t, svc2))

	// Same snapshot, second replay: recovery must be deterministic.
	svc3, _, err := tinyevm.NewService("hub", recoveryOpts(tinyevm.WithStore(cloneStore(t, crashed)))...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	assertSameDeployment(t, want, captureState(t, svc3))

	// The recovered deployment keeps accepting sharded ops.
	veh, ok := svc2.Node("veh-0")
	if !ok {
		t.Fatal("veh-0 not recovered")
	}
	chans, err := veh.Channels(ctx)
	if err != nil || len(chans) == 0 {
		t.Fatalf("veh-0 channels after recovery: %v %v", chans, err)
	}
	if _, err := veh.Pay(ctx, chans[0].ID, 9); err != nil {
		t.Fatalf("pay after recovery: %v", err)
	}
}
