package rpc

import (
	"context"
	"testing"

	"tinyevm"
	"tinyevm/internal/store"
)

// TestStoreStatusRPC round-trips tinyevm_storeStatus: backend kind and
// checkpoint position over the wire, and a clean server error when the
// service runs without a store.
func TestStoreStatusRPC(t *testing.T) {
	kv := store.NewMem()
	svc, client := newTestGateway(t,
		tinyevm.WithStore(kv), tinyevm.WithCheckpointInterval(1))
	ctx := context.Background()

	if _, err := client.AddNode(ctx, "car"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Deposit(ctx, "car", 5_000); err != nil { // seals a block
		t.Fatal(err)
	}
	st, err := call[StoreStatus](ctx, client, "tinyevm_storeStatus", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != "mem" || st.CheckpointInterval != 1 {
		t.Fatalf("store status over RPC: %+v", st)
	}
	if st.CheckpointHeight == 0 || st.CheckpointSeq == 0 {
		t.Fatalf("no checkpoint visible over RPC: %+v", st)
	}
	local, ok, err := svc.StoreStatus(ctx)
	if err != nil || !ok {
		t.Fatalf("local store status: %v %v", ok, err)
	}
	if st.CheckpointHeight != local.CheckpointHeight || st.CheckpointSeq != local.CheckpointSeq {
		t.Fatalf("RPC/local checkpoint position diverged: %+v vs %+v", st, local)
	}

	// The cold-start stage timers cross the wire (this service started
	// on an empty store: nothing replayed, stages inside the whole).
	if st.ReplayedOps != 0 || st.StoreOpenMs != 0 || st.RecoveryMs < st.CheckpointLoadMs+st.ReplayMs {
		t.Fatalf("recovery stages over RPC: %+v", st)
	}

	// Storeless service: the method must fail loudly, not fabricate.
	_, storeless := newTestGateway(t)
	if _, err := call[StoreStatus](ctx, storeless, "tinyevm_storeStatus", nil); err == nil {
		t.Fatal("storeStatus succeeded without a store")
	}
}

// TestStateProofRPC is the light-client end-to-end: request a proof
// over the wire by node name and by hex address, verify it entirely
// client-side (Merkle path, commitment fold, account re-digest), and
// reject a tampered wire proof.
func TestStateProofRPC(t *testing.T) {
	_, client := newTestGateway(t, tinyevm.WithMSTCommitment(true))
	ctx := context.Background()

	car, err := client.AddNode(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := client.OpenChannel(ctx, "car", "provider", 20_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Pay(ctx, "car", ch.ID, 300); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Deposit(ctx, "car", 7_500); err != nil {
		t.Fatal(err)
	}

	for _, target := range []string{"car", car.Address} {
		p, err := call[StateProof](ctx, client, "tinyevm_stateProof", map[string]string{"address": target})
		if err != nil {
			t.Fatalf("stateProof(%s): %v", target, err)
		}
		if err := VerifyStateProof(&p); err != nil {
			t.Fatalf("proof for %s does not verify client-side: %v", target, err)
		}
		if p.Head == 0 {
			t.Fatalf("proof carries no head height: %+v", p)
		}
		// Tamper with the claimed account contents: the preimage check
		// must catch a server lying about balances.
		bad := p
		bad.Account = "00" + bad.Account[2:]
		if VerifyStateProof(&bad) == nil {
			t.Fatal("tampered account record verified")
		}
		bad = p
		bad.Sum++
		if VerifyStateProof(&bad) == nil {
			t.Fatal("tampered sum verified")
		}
	}

	// Digest-mode gateway: the method fails with a server error.
	_, legacy := newTestGateway(t)
	if _, err := call[StateProof](ctx, legacy, "tinyevm_stateProof", map[string]string{"address": "provider"}); err == nil {
		t.Fatal("stateProof succeeded under the legacy digest commitment")
	}
}
