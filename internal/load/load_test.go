package load

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tinyevm"
	"tinyevm/internal/rpc"
)

// TestFaultPlanDeterministic is the satellite requirement: the fault
// scheduler must be a pure function of the seed. Two plans built from
// the same inputs agree on every daemon kill time and every
// session-abort decision; a different seed diverges.
func TestFaultPlanDeterministic(t *testing.T) {
	cfg := FaultConfig{ClientKillRate: 0.3, DaemonKills: 3}
	a := NewFaultPlan(42, 10*time.Second, 10, cfg)
	b := NewFaultPlan(42, 10*time.Second, 10, cfg)

	ka, kb := a.KillTimes(), b.KillTimes()
	if len(ka) != 3 || len(kb) != 3 {
		t.Fatalf("kill times = %v / %v, want 3 each", ka, kb)
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("kill[%d]: %v != %v", i, ka[i], kb[i])
		}
		if ka[i] <= 0 || ka[i] >= 10*time.Second {
			t.Fatalf("kill[%d] = %v outside the window", i, ka[i])
		}
	}

	diverged := false
	aborts := 0
	for id := uint64(0); id < 10_000; id++ {
		afterA, abortA := a.SessionAbort(id)
		afterB, abortB := b.SessionAbort(id)
		if afterA != afterB || abortA != abortB {
			t.Fatalf("session %d: (%d,%v) != (%d,%v)", id, afterA, abortA, afterB, abortB)
		}
		if abortA {
			aborts++
			if afterA < 0 || afterA >= 10 {
				t.Fatalf("session %d aborts after %d payments, want [0,10)", id, afterA)
			}
		}
		other := NewFaultPlan(43, 10*time.Second, 10, cfg)
		if oAfter, oAbort := other.SessionAbort(id); oAbort != abortA || oAfter != afterA {
			diverged = true
		}
	}
	// ~30% of 10k sessions abort; the hash must land near the rate.
	if aborts < 2600 || aborts > 3400 {
		t.Fatalf("abort count = %d, want ~3000", aborts)
	}
	if !diverged {
		t.Fatal("seed 43 produced the identical abort schedule to seed 42")
	}
}

func TestFaultPlanDisabled(t *testing.T) {
	p := NewFaultPlan(1, time.Minute, 10, FaultConfig{})
	if len(p.KillTimes()) != 0 {
		t.Fatalf("kill times = %v, want none", p.KillTimes())
	}
	if _, abort := p.SessionAbort(7); abort {
		t.Fatal("abort with zero kill rate")
	}
}

// TestChaosTransportDeterministic pins the decision stream: same seed,
// same (drop, delay) sequence.
func TestChaosTransportDeterministic(t *testing.T) {
	cfg := FaultConfig{DropRate: 0.2, DelayRate: 0.3, DelayMax: 10 * time.Millisecond}
	a := NewChaosTransport(nil, 99, cfg)
	b := NewChaosTransport(nil, 99, cfg)
	drops := 0
	for i := 0; i < 5000; i++ {
		dropA, delayA := a.decide()
		dropB, delayB := b.decide()
		if dropA != dropB || delayA != delayB {
			t.Fatalf("decision %d: (%v,%v) != (%v,%v)", i, dropA, delayA, dropB, delayB)
		}
		if delayA < 0 || delayA > 10*time.Millisecond {
			t.Fatalf("decision %d: delay %v outside [0, DelayMax]", i, delayA)
		}
		if dropA {
			drops++
		}
	}
	if drops < 800 || drops > 1200 {
		t.Fatalf("drops = %d over 5000 draws at rate 0.2, want ~1000", drops)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		kind string
	}{
		{nil, ""},
		{ErrInjectedDrop, "injected-drop"},
		{fmt.Errorf("wrapped: %w", ErrInjectedDrop), "injected-drop"},
		{tinyevm.ErrUnknownNode, "unknown-node"},
		{context.DeadlineExceeded, "deadline-exceeded"},
		{errors.New("something new"), "unknown"},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.kind {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.kind)
		}
	}
}

// newInProcessGateway serves a real rpc.Server over httptest — the full
// wire path without a child process.
func newInProcessGateway(t *testing.T) string {
	t.Helper()
	svc, prov, err := tinyevm.NewService("provider")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	ctx := context.Background()
	if err := prov.RegisterSensorValue(ctx, tinyevm.SensorTemperature, rpc.DefaultSensorValue); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rpc.NewServer(svc))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestRunnerSmokeClosedLoop runs the harness against an in-process
// gateway, so the race detector sees the whole client and server path,
// and checks the report: sessions ran, faults fired, every profile
// recorded pays and every error stayed inside the taxonomy. The
// shard-contention case is CI's hotspot smoke: receiver-side
// contention on a few hot meters with batched payments.
func TestRunnerSmokeClosedLoop(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"faults", Config{
			Vehicles:     4,
			Concurrency:  4,
			Duration:     300 * time.Millisecond,
			Payments:     5,
			DepositEvery: 5,
			Seed:         7,
			Retries:      2,
			Faults: FaultConfig{
				ClientKillRate: 0.3,
				DropRate:       0.05,
				DelayRate:      0.2,
				DelayMax:       2 * time.Millisecond,
			},
		}},
		{"shard-contention", Config{
			Profiles:     []Profile{ProfileHotspot},
			Duration:     5 * time.Second,
			Batch:        8,
			Concurrency:  16,
			Vehicles:     24,
			HotMeters:    3,
			Payments:     10,
			DepositEvery: 7,
			Seed:         1,
			Retries:      3,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.URL = newInProcessGateway(t)
			r := New(cfg, nil)
			rep, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Fatalf("gate verdict: %v\nreport:\n%s", err, rep)
			}
			if rep.Sessions.Total == 0 || rep.Sessions.Completed == 0 {
				t.Fatalf("no sessions ran:\n%s", rep)
			}
			if rate := cfg.Faults.ClientKillRate; rate > 0 && rep.Sessions.Aborted == 0 {
				t.Fatalf("client-kill rate %v but no aborted session over %d:\n%s", rate, rep.Sessions.Total, rep)
			}
			for _, profile := range r.cfg.Profiles {
				found := false
				for _, op := range rep.Ops {
					found = found || op.Profile == string(profile) && op.Op == "pay" && op.Count > 0
				}
				if !found {
					t.Fatalf("no pay recorded for profile %s:\n%s", profile, rep)
				}
			}
		})
	}
}

// TestRunnerDaemonKillRecovery is the end-to-end fault: a real
// tinyevm-serve child is SIGKILLed mid-run by the fault timeline and
// must recover from its WAL while the workload hammers on. The gate
// verdict must stay clean — daemon downtime surfaces as taxonomy
// (transport) errors, recovery is timed, and sessions complete after
// the restart. The load-smoke case is CI's load smoke: every profile
// under client kills and wire chaos as well.
func TestRunnerDaemonKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crashes a child process; skipped in -short")
	}
	binPath, err := BuildServeBinary(repoRoot(t), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"disjoint", Config{
			Profiles:     []Profile{ProfileDisjoint},
			Vehicles:     4,
			Concurrency:  4,
			Duration:     4 * time.Second,
			Payments:     5,
			DepositEvery: 3, // seal blocks so the kill lands mid-log
			Seed:         5,
			Retries:      4,
			Backoff:      100 * time.Millisecond,
			Faults:       FaultConfig{DaemonKills: 1},
		}},
		{"load-smoke", Config{
			Profiles:       Profiles(),
			Vehicles:       16,
			Concurrency:    8,
			HotMeters:      4,
			Duration:       3 * time.Second,
			Payments:       10,
			DepositEvery:   7,
			Seed:           1,
			RequestTimeout: 10 * time.Second,
			Retries:        4,
			Faults: FaultConfig{
				ClientKillRate: 0.1,
				DropRate:       0.02,
				DelayRate:      0.1,
				DelayMax:       5 * time.Millisecond,
				DaemonKills:    1,
			},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			addr, err := FreeAddr()
			if err != nil {
				t.Fatal(err)
			}
			daemon := &Daemon{Bin: binPath, Addr: addr, DataDir: t.TempDir(), Provider: "city", Log: os.Stderr}
			if err := daemon.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(daemon.Stop)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := daemon.WaitReady(ctx); err != nil {
				t.Fatal(err)
			}

			r := New(c.cfg, daemon)
			if got := len(r.Plan().KillTimes()); got != 1 {
				t.Fatalf("planned kills = %d, want 1", got)
			}
			rep, err := r.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Fatalf("gate verdict: %v\n%s", err, rep)
			}
			if len(rep.Recoveries) != 1 {
				t.Fatalf("recoveries = %v (failures %v), want exactly 1", rep.Recoveries, rep.RecoveryFailures)
			}
			if rep.Recoveries[0] <= 0 || rep.Recoveries[0] > 30*time.Second {
				t.Fatalf("implausible recovery time %v", rep.Recoveries[0])
			}
			if rep.Sessions.Completed == 0 {
				t.Fatalf("no completed sessions around the crash:\n%s", rep)
			}
			t.Logf("report:\n%s", rep)
		})
	}
}

// repoRoot walks up from the package dir to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above package dir")
		}
		dir = parent
	}
}

// TestRunnerMultiTarget spreads vehicles across two in-process gateways
// and checks the per-node report buckets: both nodes served traffic and
// node op counts sum to the per-op counts.
func TestRunnerMultiTarget(t *testing.T) {
	targets := []string{newInProcessGateway(t), newInProcessGateway(t)}
	r := New(Config{
		Targets:     targets,
		Profiles:    []Profile{ProfileDisjoint},
		Vehicles:    4,
		Concurrency: 4,
		Duration:    300 * time.Millisecond,
		Payments:    3,
		Seed:        11,
	}, nil)
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("gate verdict: %v\nreport:\n%s", err, rep)
	}
	if len(rep.Nodes) != 2 {
		t.Fatalf("want 2 node buckets, got %+v", rep.Nodes)
	}
	var nodeOps, opOps uint64
	for i, ns := range rep.Nodes {
		if ns.Index != i || ns.Target != targets[i] {
			t.Fatalf("node bucket %d = %+v", i, ns)
		}
		if ns.Count == 0 {
			t.Fatalf("node %d served no traffic:\n%s", i, rep)
		}
		nodeOps += ns.Count
	}
	for _, op := range rep.Ops {
		opOps += op.Count
	}
	if nodeOps != opOps {
		t.Fatalf("node op count %d != per-op count %d", nodeOps, opOps)
	}
}
