package tinyevm_test

// MST state-commitment tests: under WithMSTCommitment the chain seals
// blocks with an incrementally maintained Merkle-sum-tree root instead
// of the O(n) full-state digest. The differential test pins that the
// knob changes ONLY the persisted commitment — block hashes, state
// digests, balances and channel fingerprints are identical over an
// identical workload, on the serial and the parallel engine alike —
// and the proof tests pin the light-client verification path end to
// end, including tamper rejection.

import (
	"context"
	"testing"

	"tinyevm"
	"tinyevm/internal/chain"
	"tinyevm/internal/store"
)

// TestMSTCommitmentDifferential feeds the identical deterministic
// workload to a legacy-digest service and an MST-committed one: every
// externally observable byte must agree.
// The commitment mode must never change what the chain computes.
func TestMSTCommitmentDifferential(t *testing.T) {
	run := func(opts ...tinyevm.Option) deploymentState {
		svc, hub, err := tinyevm.NewService("hub", opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		shardDifferentialWorkload(t, svc, hub)
		return captureState(t, svc)
	}
	digest := run()
	mst := run(tinyevm.WithMSTCommitment(true))
	assertSameDeployment(t, digest, mst)
}

// TestMSTCommitmentIncrementalMatchesRebuilt pins the incremental
// maintenance path (per-seal dirty-account deltas) against the
// from-scratch rebuild path (recovery restores the checkpoint and
// reconstructs the map from the full state): both must land on the
// same root, sum and commitment.
func TestMSTCommitmentIncrementalMatchesRebuilt(t *testing.T) {
	kv := store.NewMem()
	opts := recoveryOpts(
		tinyevm.WithStore(kv),
		tinyevm.WithMSTCommitment(true),
		tinyevm.WithCheckpointInterval(2),
	)
	svc, hub, err := tinyevm.NewService("hub", opts...)
	if err != nil {
		t.Fatal(err)
	}
	shardDifferentialWorkload(t, svc, hub)
	ctx := context.Background()
	live, err := svc.StateCommitment(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if live.Root == (tinyevm.Hash{}) || live.Sum == 0 {
		t.Fatalf("degenerate live root: %+v", live)
	}
	svc.Close()

	svc2, _, err := tinyevm.NewService("hub", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	rebuilt, err := svc2.StateCommitment(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != live {
		t.Fatalf("rebuilt root diverged from incremental:\n live    %+v\n rebuilt %+v", live, rebuilt)
	}
}

// TestMSTCommitmentModePinned pins the store meta guard: a journal
// created under one commitment mode refuses to replay under the other
// (the persisted per-block commitments would not verify).
func TestMSTCommitmentModePinned(t *testing.T) {
	kv := store.NewMem()
	svc, _, err := tinyevm.NewService("hub",
		recoveryOpts(tinyevm.WithStore(kv), tinyevm.WithMSTCommitment(true))...)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, _, err := tinyevm.NewService("hub", recoveryOpts(tinyevm.WithStore(kv))...); err == nil {
		t.Fatal("MST-mode store accepted under digest mode")
	}

	kv2 := store.NewMem()
	svc2, _, err := tinyevm.NewService("hub", recoveryOpts(tinyevm.WithStore(kv2))...)
	if err != nil {
		t.Fatal(err)
	}
	svc2.Close()
	if _, _, err := tinyevm.NewService("hub",
		recoveryOpts(tinyevm.WithStore(kv2), tinyevm.WithMSTCommitment(true))...); err == nil {
		t.Fatal("digest-mode store accepted under MST mode")
	}
}

// TestStateProofVerifies walks the light-client path: request a proof,
// verify the Merkle side (chain.VerifyAccountProof) and the preimage
// side (chain.VerifyAccountRecord), and reject tampered variants of
// each component.
func TestStateProofVerifies(t *testing.T) {
	svc, hub, err := tinyevm.NewService("hub", tinyevm.WithMSTCommitment(true))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	shardDifferentialWorkload(t, svc, hub)
	ctx := context.Background()

	for _, sn := range svc.Nodes() {
		p, err := svc.StateProof(ctx, sn.Address())
		if err != nil {
			t.Fatalf("proof for %s: %v", sn.Name(), err)
		}
		if err := chain.VerifyAccountProof(p.Commitment, p); err != nil {
			t.Fatalf("proof for %s does not verify: %v", sn.Name(), err)
		}
		if err := chain.VerifyAccountRecord(p.Address, p.Account, p.AccountDigest); err != nil {
			t.Fatalf("account record for %s does not re-digest: %v", sn.Name(), err)
		}
	}

	p, err := svc.StateProof(ctx, hub.Address())
	if err != nil {
		t.Fatal(err)
	}
	// Tampered commitment: the root no longer folds into it.
	badCommit := p.Commitment
	badCommit[0] ^= 0xff
	if err := chain.VerifyAccountProof(badCommit, p); err == nil {
		t.Fatal("proof verified against a foreign commitment")
	}
	// Tampered leaf: a different balance claim must break the path.
	tampered := *p
	tampered.Sum++
	if err := chain.VerifyAccountProof(tampered.Commitment, &tampered); err == nil {
		t.Fatal("proof verified with a tampered sum")
	}
	// Tampered preimage: the record no longer digests to the leaf.
	record := append([]byte(nil), p.Account...)
	record[len(record)/2] ^= 0x01
	if err := chain.VerifyAccountRecord(p.Address, record, p.AccountDigest); err == nil {
		t.Fatal("tampered account record re-digested cleanly")
	}

	// Proofs for absent accounts fail loudly.
	if _, err := svc.StateProof(ctx, tinyevm.Address{0xde, 0xad}); err == nil {
		t.Fatal("proof produced for a nonexistent account")
	}
	// And the whole surface is a clean error under the legacy digest.
	legacy, _, err := tinyevm.NewService("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if _, err := legacy.StateProof(ctx, hub.Address()); err == nil {
		t.Fatal("digest-mode service produced a state proof")
	}
	if _, err := legacy.StateCommitment(ctx); err == nil {
		t.Fatal("digest-mode service produced a state root")
	}
}
