package main

// recover — ROADMAP stopwatch 3: kill -> first served RPC. Set-up builds
// a FIXED history on the disk backend (a fixed count of session_onchain
// sessions from one client, so the last checkpoint lands at a fixed
// height with a fixed-length journal tail) and snapshots the data
// directory by file copy at a quiescent point WITHOUT calling Close —
// the bytes a SIGKILL would leave, since every ack was fsynced. One op
// copies the snapshot to a fresh directory (untimed), then times
// NewService + rpc.NewServer + the first tinyevm_head reply, then closes
// (untimed). It is the store's read side (manifest, segment open, WAL
// replay, Iterate) plus checkpoint restore and tail replay, which
// re-signs and re-verifies — so the crypto rewrite should move it too.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tinyevm"
)

// recoverHistory is the snapshot and the live values it must recover to.
type recoverHistory struct {
	snapshot string
	head     uint64
	headHash tinyevm.Hash
	digest   tinyevm.Hash
	channels []string // one line per (node, channel), sorted
	// wantReplayed is journal length minus the ops folded into the last
	// checkpoint; wantCkpt is that checkpoint's height.
	wantReplayed int
	wantCkpt     uint64
}

type recoverWL struct {
	cfg  *config
	tr   *tracer
	hist *recoverHistory
	// shared is set on the traced instance so both halves of the traced
	// pass cold-start from the one history.
	shared *recoverWL

	// last observed recovery facts (traced instance reports them)
	openMs, serviceMs, firstRPCMs []float64
	replayed                      int
	ckptHeight                    uint64
}

func (w *recoverWL) clients() int { return 1 }

// quickCheckpointInterval keeps the self-test's 10-session history (20
// blocks) in the full history's shape — a checkpoint and a short tail —
// so a quick cold start restores and replays two sessions, as a full one
// replays four, instead of replaying all ten without ever restoring.
const quickCheckpointInterval = 8

// historyOptions are the service options of the history and of every
// cold start from it.
func historyOptions(cfg *config) []tinyevm.Option {
	if cfg.Quick {
		return []tinyevm.Option{tinyevm.WithCheckpointInterval(quickCheckpointInterval)}
	}
	return nil
}

func (w *recoverWL) shareSetup(from workload) { w.shared, _ = from.(*recoverWL) }

// channelLines renders every channel of every node, for equality checks.
func channelLines(ctx context.Context, svc *tinyevm.Service) ([]string, error) {
	var out []string
	for _, n := range svc.Nodes() {
		chans, err := n.Channels(ctx)
		if err != nil {
			return nil, err
		}
		for _, cs := range chans {
			out = append(out, fmt.Sprintf("%s/%d wire=%d seq=%d cum=%d dep=%d closed=%v",
				n.Name(), cs.ID, cs.WireID, cs.Seq, cs.Cumulative, cs.Deposit, cs.Closed()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// stateOf reads the values a recovered service must reproduce. The
// service must be quiescent.
func stateOf(ctx context.Context, svc *tinyevm.Service) (head uint64, hash, digest tinyevm.Hash, chans []string, err error) {
	if head, err = svc.HeadBlock(ctx); err != nil {
		return
	}
	if hash, err = svc.BlockHash(ctx, head); err != nil {
		return
	}
	digest = svc.System().Chain.State().Digest()
	chans, err = channelLines(ctx, svc)
	return
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func buildHistory(cfg *config) (*recoverHistory, error) {
	ctx := context.Background()
	live, err := os.MkdirTemp(cfg.Scratch, "history-")
	if err != nil {
		return nil, err
	}
	dep, gw, err := openSessionService(ctx, live, nil, historyOptions(cfg)...)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	defer gw.close()
	cl, err := newSessionClient(ctx, gw.url, nil, "veh-0", clientRNG(cfg.Seed, 0), 1)
	if err != nil {
		return nil, err
	}
	defer cl.ht.CloseIdleConnections()
	for i := 0; i < cfg.Sessions; i++ {
		if err := cl.session(ctx); err != nil {
			return nil, fmt.Errorf("history session %d: %w", i, err)
		}
	}
	// Quiescent point: no sealed block still queued behind the
	// persistence pipeline, and no compaction in flight (one starts only
	// when a flush leaves >= 4 segments and ends by merging them).
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := dep.svc.ServiceStats(ctx)
		if err != nil {
			return nil, err
		}
		ss, _ := dep.storeStats()
		if st.PipelineDepth == 0 && ss.Segments < 4 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("history never quiesced (pipeline %d, segments %d)", st.PipelineDepth, ss.Segments)
		}
		time.Sleep(time.Millisecond)
	}
	h := &recoverHistory{}
	if h.head, h.headHash, h.digest, h.channels, err = stateOf(ctx, dep.svc); err != nil {
		return nil, err
	}
	stats, err := dep.svc.ServiceStats(ctx)
	if err != nil {
		return nil, err
	}
	status, _, err := dep.svc.StoreStatus(ctx)
	if err != nil {
		return nil, err
	}
	h.wantReplayed = int(stats.Ops - status.CheckpointSeq)
	h.wantCkpt = status.CheckpointHeight
	// The snapshot is taken with the service still open: no Close, no
	// final flush — what a SIGKILL here would leave on disk.
	if h.snapshot, err = os.MkdirTemp(cfg.Scratch, "snapshot-"); err != nil {
		return nil, err
	}
	if err := copyDir(live, h.snapshot); err != nil {
		return nil, err
	}
	return h, nil
}

func (w *recoverWL) setup(cfg *config, tr *tracer) error {
	w.cfg, w.tr = cfg, tr
	if w.shared != nil {
		w.hist = w.shared.hist
		return nil
	}
	var err error
	w.hist, err = buildHistory(cfg)
	return err
}

func (w *recoverWL) op(int) (time.Duration, error) {
	ctx := context.Background()
	dir, err := os.MkdirTemp(w.cfg.Scratch, "cold-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(w.hist.snapshot, dir); err != nil {
		return 0, err
	}

	t0 := time.Now()
	dep, err := openDeployment(providerName, dir, "disk", w.tr, historyOptions(w.cfg)...)
	if err != nil {
		return time.Since(t0), fmt.Errorf("cold start: %w", err)
	}
	defer dep.close()
	t1 := time.Now()
	gw, err := startGateway(dep.svc, w.tr)
	if err != nil {
		return time.Since(t0), err
	}
	defer gw.close()
	client, ht := newClient(gw.url, w.tr)
	defer ht.CloseIdleConnections()
	head, err := client.Head(ctx)
	t2 := time.Now()
	lat := t2.Sub(t0)
	if err != nil {
		return lat, fmt.Errorf("first tinyevm_head: %w", err)
	}

	// Untimed: no acknowledged op may be lost.
	ri := dep.svc.RecoveryInfo()
	w.openMs = append(w.openMs, dep.openDur.Seconds()*1e3)
	w.serviceMs = append(w.serviceMs, ri.Duration.Seconds()*1e3)
	w.firstRPCMs = append(w.firstRPCMs, t2.Sub(t1).Seconds()*1e3)
	w.replayed, w.ckptHeight = ri.ReplayedOps, ri.CheckpointHeight
	h := w.hist
	gotHead, hash, digest, chans, err := stateOf(ctx, dep.svc)
	if err != nil {
		return lat, err
	}
	switch {
	case head != h.head || gotHead != h.head || hash != h.headHash:
		return lat, fmt.Errorf("recovered head %d %s, snapshot had %d %s", gotHead, hash.Hex(), h.head, h.headHash.Hex())
	case digest != h.digest:
		return lat, fmt.Errorf("recovered state digest %s, snapshot had %s", digest.Hex(), h.digest.Hex())
	case fmt.Sprint(chans) != fmt.Sprint(h.channels):
		return lat, fmt.Errorf("recovered channel states differ from the snapshot's")
	case ri.ReplayedOps != h.wantReplayed || ri.CheckpointHeight != h.wantCkpt:
		return lat, fmt.Errorf("replayed %d ops from checkpoint %d, want %d from %d",
			ri.ReplayedOps, ri.CheckpointHeight, h.wantReplayed, h.wantCkpt)
	}
	return lat, nil
}

func (w *recoverWL) check() []string { return nil } // every op checks itself

func (w *recoverWL) layers(tr *tracer) map[string]Metric {
	m := storeLayers(tr)
	m["recover.store_open_ms"] = Metric{Value: median(w.openMs), Unit: "ms", Samples: len(w.openMs)}
	m["recover.service_ms"] = Metric{Value: median(w.serviceMs), Unit: "ms", Samples: len(w.serviceMs)}
	m["recover.first_rpc_ms"] = Metric{Value: median(w.firstRPCMs), Unit: "ms", Samples: len(w.firstRPCMs)}
	m["recover.replayed_ops"] = Metric{Value: float64(w.replayed), Unit: "count"}
	m["recover.ckpt_height"] = Metric{Value: float64(w.ckptHeight), Unit: "count"}
	return m
}

func (w *recoverWL) close() {}
