package main

// cluster_replicate — ROADMAP stopwatch 2: a sealed block to "applied on
// every follower". Three in-process services joined by WithCluster over
// p2p.NewMemNetwork(): validators v0,v1,v2 round-robin, no heartbeat,
// no fallback, and INSTANT delivery — the injected message delay is 0,
// so the latency is processor time only. A single driver finds the
// leader, deposits from the node local to it (one tx -> one sealed
// block) and polls the other two heads until both reach the height.
// It is the only workload that exercises cluster, p2p, consensus,
// txpool and follower verify-before-apply.

import (
	"context"
	"fmt"
	"time"

	"tinyevm"
	"tinyevm/internal/p2p"
)

const (
	clusterNodes = 3
	// pollInterval is how often the driver reads the follower heads.
	pollInterval = 50 * time.Microsecond
	// injectedDelay is the p2p message delay the harness adds: none.
	injectedDelay = 0 * time.Millisecond
	// clusterProviderFunds pays the gas of every deposit of a window: the
	// default 100M lasts about 1,380 of them, twenty seconds' worth.
	clusterProviderFunds = 1 << 40
	clusterNodeFunds     = 100_000_000
)

type clusterWL struct {
	deps   []*deployment
	height uint64

	produce, lag hist // leader's Deposit call; seal -> last follower applied
	blocks       int
}

func (w *clusterWL) clients() int { return 1 }

func (w *clusterWL) setup(cfg *config, tr *tracer) error {
	ctx := context.Background()
	var transport p2p.Transport = p2p.NewMemNetwork()
	if tr != nil {
		transport = &tracedTransport{inner: transport, t: tr}
	}
	validators := make([]string, clusterNodes)
	for i := range validators {
		validators[i] = fmt.Sprintf("bench-val-%d", i)
	}
	for i := 0; i < clusterNodes; i++ {
		var peers []string
		for j := 0; j < clusterNodes; j++ {
			if j != i {
				peers = append(peers, fmt.Sprintf("bench-node-%d", j))
			}
		}
		dep, err := openDeployment("city", "", "", nil, tinyevm.WithFunds(clusterProviderFunds, clusterNodeFunds), tinyevm.WithCluster(tinyevm.ClusterConfig{
			Listen:     fmt.Sprintf("bench-node-%d", i),
			Peers:      peers,
			NodeKey:    validators[i],
			Validators: validators,
			Transport:  transport,
		}))
		if err != nil {
			return err
		}
		w.deps = append(w.deps, dep)
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, dep := range w.deps {
		for {
			st, err := dep.svc.NodeStatus(ctx)
			if err == nil && st.Role != "syncing" && st.Peers >= clusterNodes-1 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster mesh never formed: %+v %v", st, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (w *clusterWL) op(int) (time.Duration, error) {
	ctx := context.Background()
	leader := -1
	for i, dep := range w.deps {
		st, err := dep.svc.NodeStatus(ctx)
		if err != nil {
			return 0, err
		}
		if st.Role == "leader" {
			leader = i
			break
		}
	}
	if leader < 0 {
		return 0, fmt.Errorf("no leader at height %d", w.height)
	}
	t0 := time.Now()
	r, err := w.deps[leader].provider.Deposit(ctx, 1)
	sealed := time.Now()
	if err != nil {
		return sealed.Sub(t0), fmt.Errorf("leader deposit: %w", err)
	}
	if !r.Status {
		return sealed.Sub(t0), fmt.Errorf("deposit receipt failed: %v", r.Err)
	}
	w.height++
	for i, dep := range w.deps {
		if i == leader {
			continue
		}
		for {
			h, err := dep.svc.HeadBlock(ctx)
			if err != nil {
				return time.Since(t0), err
			}
			if h >= w.height {
				break
			}
			if time.Since(sealed) > 10*time.Second {
				return time.Since(t0), fmt.Errorf("follower %d stuck at %d, want %d", i, h, w.height)
			}
			time.Sleep(pollInterval)
		}
	}
	applied := time.Now()
	w.produce.add(sealed.Sub(t0).Nanoseconds())
	w.lag.add(applied.Sub(sealed).Nanoseconds())
	w.blocks++
	return applied.Sub(t0), nil
}

// hashMismatches counts (height, follower) pairs whose block hash
// differs from service 0's.
func (w *clusterWL) hashMismatches() (int, error) {
	ctx := context.Background()
	n := 0
	for h := uint64(1); h <= w.height; h++ {
		ref, err := w.deps[0].svc.BlockHash(ctx, h)
		if err != nil {
			return n, err
		}
		for _, dep := range w.deps[1:] {
			got, err := dep.svc.BlockHash(ctx, h)
			if err != nil {
				return n, err
			}
			if got != ref {
				n++
			}
		}
	}
	return n, nil
}

// check: identical block hash at every height on all three services.
func (w *clusterWL) check() []string {
	n, err := w.hashMismatches()
	if err != nil {
		return []string{fmt.Sprintf("reading block hashes: %v", err)}
	}
	if n > 0 {
		return []string{fmt.Sprintf("%d block hashes differ between replicas", n)}
	}
	return nil
}

func (w *clusterWL) layers(tr *tracer) map[string]Metric {
	m := map[string]Metric{}
	m["cluster.produce_us"] = Metric{Value: w.produce.p50() / 1e3, Unit: "us", Samples: w.produce.n}
	m["cluster.apply_lag_p50_us"] = Metric{Value: w.lag.p50() / 1e3, Unit: "us", Samples: w.lag.n}
	if p90, ok := w.lag.quantile(0.9); ok {
		m["cluster.apply_lag_p90_us"] = Metric{Value: p90 / 1e3, Unit: "us", Samples: w.lag.n}
	}
	if n, err := w.hashMismatches(); err == nil {
		m["cluster.hash_mismatches"] = Metric{Value: float64(n), Unit: "count"}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if w.blocks > 0 {
		m["p2p.frames_per_block"] = Metric{Value: float64(tr.frames) / float64(w.blocks), Unit: "count", Samples: w.blocks}
		m["p2p.bytes_per_block"] = Metric{Value: float64(tr.frameBytes) / float64(w.blocks), Unit: "B", Samples: w.blocks}
	}
	return m
}

func (w *clusterWL) pending() int { return pendingOps(w.deps[0]) }

func (w *clusterWL) close() {
	for _, dep := range w.deps {
		dep.close()
	}
}
