package tinyevm_test

// Cluster smoke end-to-end test: three real tinyevm-serve processes
// form one sidechain over TCP, payments flow through every daemon while
// the heartbeat leader seals blocks, then one daemon is SIGKILLed
// mid-run and restarted with NO data directory — so everything it knows
// afterwards must have come over the wire via state sync, not local WAL
// replay. The test asserts all three daemons converge on byte-identical
// block hashes.
//
// Run directly with:
//
//	go test -race -run TestClusterSmokeE2E .
//
// (also wired into CI and `make cluster-smoke`).

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"tinyevm/internal/load"
	"tinyevm/internal/rpc"
)

func TestClusterSmokeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crashes child processes; skipped in -short")
	}
	const n = 3

	bin, err := load.BuildServeBinary("", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	httpAddrs := make([]string, n)
	p2pAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		httpAddrs[i] = freeAddr(t)
		p2pAddrs[i] = freeAddr(t)
	}
	seeds := make([]string, n)
	for i := range seeds {
		seeds[i] = fmt.Sprintf("smoke-val-%d", i)
	}

	daemons := make([]*load.Daemon, n)
	clients := make([]*rpc.Client, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		var peers []string
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, p2pAddrs[j])
			}
		}
		daemons[i] = &load.Daemon{
			Bin:      bin,
			Addr:     httpAddrs[i],
			Provider: "city",
			Log:      os.Stderr,
			// No -data-dir: a restarted daemon holds nothing on disk and
			// must rebuild the chain purely through p2p state sync.
			ExtraArgs: []string{
				"-listen", p2pAddrs[i],
				"-peers", strings.Join(peers, ","),
				"-node-key", seeds[i],
				"-validators", strings.Join(seeds, ","),
				"-block-interval", "250ms",
				"-fallback", "2s",
			},
		}
		if err := daemons[i].Start(); err != nil {
			t.Fatal(err)
		}
		d := daemons[i]
		t.Cleanup(d.Stop)
		urls[i] = d.URL()
		clients[i] = rpc.NewClient(urls[i], nil)
	}
	ctx := context.Background()
	for i, d := range daemons {
		readyCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		if err := d.WaitReady(readyCtx); err != nil {
			cancel()
			t.Fatalf("daemon %d: %v", i, err)
		}
		cancel()
	}
	waitCluster := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s", what)
	}
	// Mesh formed and heartbeat mining is replicating on every daemon.
	waitCluster("cluster mesh and first blocks", func() bool {
		for _, c := range clients {
			st, err := gateway[rpc.NodeStatus](ctx, c, "tinyevm_nodeStatus", nil)
			if err != nil || st.Peers < n-1 || st.Height < 2 || st.Role == "syncing" {
				return false
			}
		}
		return true
	})

	// Payments through ALL daemons while blocks seal underneath. The
	// multi-target harness pins vehicles to daemons and reports per-node
	// buckets; transport errors from the upcoming kill stay inside the
	// taxonomy.
	runner := load.New(load.Config{
		Targets:      urls,
		Profiles:     []load.Profile{load.ProfileDisjoint},
		Vehicles:     6,
		Concurrency:  6,
		Duration:     4 * time.Second,
		Payments:     3,
		DepositEvery: 0,
		Seed:         3,
		Retries:      1,
	}, nil)
	runDone := make(chan error, 1)
	var rep *load.Report
	go func() {
		var err error
		rep, err = runner.Run(ctx)
		runDone <- err
	}()

	// SIGKILL one daemon mid-run; no shutdown path runs.
	time.Sleep(1500 * time.Millisecond)
	victimSt, err := gateway[rpc.NodeStatus](ctx, clients[2], "tinyevm_nodeStatus", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := daemons[2].Kill(); err != nil {
		t.Fatal(err)
	}
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	t.Logf("load report:\n%s", rep)
	if rep.Sessions.Completed == 0 {
		t.Fatalf("no session completed:\n%s", rep)
	}

	// Restart the victim with the same (empty) configuration: catch-up
	// must come entirely from its peers.
	if err := daemons[2].Start(); err != nil {
		t.Fatal(err)
	}
	readyCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := daemons[2].WaitReady(readyCtx); err != nil {
		t.Fatal(err)
	}
	waitCluster("victim resynced past its pre-kill height", func() bool {
		st, err := gateway[rpc.NodeStatus](ctx, clients[2], "tinyevm_nodeStatus", nil)
		return err == nil && st.Role != "syncing" && st.Height >= victimSt.Height
	})

	// Convergence: pick a height every daemon has sealed and require
	// byte-identical block hashes — the restarted daemon included.
	var h uint64
	waitCluster("all daemons above a common height", func() bool {
		h = 0
		for _, c := range clients {
			st, err := gateway[rpc.NodeStatus](ctx, c, "tinyevm_nodeStatus", nil)
			if err != nil || st.Height < 2 {
				return false
			}
			if h == 0 || st.Height < h {
				h = st.Height
			}
		}
		return h >= 2
	})
	h--
	ref, err := blockHash(ctx, clients[0], h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		got, err := blockHash(ctx, clients[i], h)
		if err != nil {
			t.Fatalf("daemon %d blockHash(%d): %v", i, h, err)
		}
		if got != ref {
			t.Fatalf("daemon %d block %d hash %s, daemon 0 has %s", i, h, got, ref)
		}
	}
	t.Logf("converged at height %d: %s", h, ref)
}
