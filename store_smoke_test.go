package tinyevm_test

// Store-smoke end-to-end: a real tinyevm-serve process on the disk
// backend (-backend disk) with a tight checkpoint cadence and the MST
// state commitment, its memtable flush threshold shrunk so the
// workload churns segment flushes and background compactions. The
// daemon is SIGKILLed mid-churn — with compactions plausibly in
// flight — restarted, and must come back with a byte-identical head
// hash and MST state root, having replayed only the journal tail
// behind the last checkpoint.
//
// Run directly with:
//
//	go test -race -run TestStoreSmokeE2E .
//
// (also wired into CI and `make store-smoke`).

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"tinyevm/internal/rpc"
)

func TestStoreSmokeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crashes a child process; skipped in -short")
	}

	bin := filepath.Join(t.TempDir(), "tinyevm-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/tinyevm-serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building tinyevm-serve: %v\n%s", err, out)
	}

	dataDir := t.TempDir()
	addr := freeAddr(t)
	client := rpc.NewClient("http://"+addr, nil)
	ctx := context.Background()

	const checkpointInterval = 4
	var proc *exec.Cmd
	start := func() {
		t.Helper()
		proc = exec.Command(bin,
			"-addr", addr, "-provider", "lot", "-data-dir", dataDir,
			"-backend", "disk",
			"-checkpoint-interval", fmt.Sprint(checkpointInterval),
			"-state-commitment", "mst")
		// A tiny memtable keeps the disk backend flushing and compacting
		// throughout the workload, so the SIGKILL lands with segment
		// rewrites plausibly in flight.
		proc.Env = append(os.Environ(), "TINYEVM_DISK_FLUSH_BYTES=16384")
		proc.Stderr = os.Stderr
		if err := proc.Start(); err != nil {
			t.Fatal(err)
		}
		waitReady(t, client)
	}
	kill := func() {
		t.Helper()
		if err := proc.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
			t.Fatal(err)
		}
		proc.Wait()
	}
	t.Cleanup(func() {
		if proc != nil && proc.ProcessState == nil {
			proc.Process.Kill()
			proc.Wait()
		}
	})

	// --- phase 1: churn the store until compactions have run ----------
	start()
	if _, err := client.AddNode(ctx, "car"); err != nil {
		t.Fatal(err)
	}
	ch, err := client.OpenChannel(ctx, "car", "lot", 500_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	churn := func(rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			for j := 0; j < 8; j++ {
				if _, err := client.Pay(ctx, "car", ch.ID, 3); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := client.Deposit(ctx, "car", 25); err != nil { // seals a block
				t.Fatal(err)
			}
		}
	}
	churn(24)
	st, err := gateway[rpc.StoreStatus](ctx, client, "tinyevm_storeStatus", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != "disk" {
		t.Fatalf("backend is %q, want disk", st.Kind)
	}
	if st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("workload did not churn the store (flushes=%d compactions=%d); shrink the flush threshold", st.Flushes, st.Compactions)
	}
	if st.CheckpointHeight == 0 {
		t.Fatal("no checkpoint written during churn")
	}

	// --- phase 2: SIGKILL with compaction churn still hot -------------
	// More writes right up to the kill keep flush/compaction goroutines
	// busy when it lands.
	churn(6)
	preKill := nodeStatusSnapshot(t, client)
	kill()

	// --- phase 3: restart, verify byte-identical head + state root ----
	start()
	post := nodeStatusSnapshot(t, client)
	if post.headHash != preKill.headHash || post.stateRoot != preKill.stateRoot {
		t.Fatalf("restart diverged:\n before %+v\n after  %+v", preKill, post)
	}
	st2, err := gateway[rpc.StoreStatus](ctx, client, "tinyevm_storeStatus", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CheckpointHeight == 0 {
		t.Fatal("restart did not recover a checkpoint")
	}
	if post.head > st2.CheckpointHeight+2*checkpointInterval {
		t.Fatalf("restart not bounded by checkpoint tail: head %d vs checkpoint %d (interval %d)",
			post.head, st2.CheckpointHeight, checkpointInterval)
	}

	// A state proof verifies client-side against the recovered root.
	p, err := gateway[rpc.StateProof](ctx, client, "tinyevm_stateProof", map[string]string{"address": "car"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rpc.VerifyStateProof(&p); err != nil {
		t.Fatalf("recovered state proof does not verify: %v", err)
	}

	// --- phase 4: kill again; recovery must be deterministic ----------
	kill()
	start()
	again := nodeStatusSnapshot(t, client)
	if again != post {
		t.Fatalf("recovery is not deterministic:\n first  %+v\n second %+v", post, again)
	}

	// The recovered daemon stays live on the compacted store.
	churn(2)
	final := nodeStatusSnapshot(t, client)
	if final.head <= again.head {
		t.Fatalf("no progress after recovery: head %d -> %d", again.head, final.head)
	}
	kill()
}

// smokeSnapshot is the externally observable durable identity of the
// deployment: chain head (number + hash) and the MST state root.
type smokeSnapshot struct {
	head      uint64
	headHash  string
	stateRoot string
	cum       uint64
}

func nodeStatusSnapshot(t *testing.T, client *rpc.Client) smokeSnapshot {
	t.Helper()
	ctx := context.Background()
	ns, err := gateway[rpc.NodeStatus](ctx, client, "tinyevm_nodeStatus", nil)
	if err != nil {
		t.Fatal(err)
	}
	head, err := client.Head(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := blockHash(ctx, client, head)
	if err != nil {
		t.Fatal(err)
	}
	chans, err := gateway[[]rpc.Channel](ctx, client, "tinyevm_channels", map[string]string{"node": "car"})
	if err != nil || len(chans) != 1 {
		t.Fatalf("car channels: %v %v", chans, err)
	}
	return smokeSnapshot{head: head, headHash: hash, stateRoot: ns.StateRoot, cum: chans[0].Cumulative}
}
