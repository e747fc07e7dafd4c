package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tinyevm/internal/chain"
	"tinyevm/internal/consensus"
	"tinyevm/internal/p2p"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
)

// testCluster wires N strict-digest validators over an in-process
// network with identical genesis funding, so execution must be
// byte-identical everywhere.
type testCluster struct {
	net     *p2p.MemNetwork
	keys    []*secp256k1.PrivateKey
	vals    []types.Address
	nodes   []*Node
	chains  []*chain.Chain
	senders []*secp256k1.PrivateKey
}

// fundedChain builds a chain with the deterministic genesis allocation
// every node in the test cluster shares.
func (tc *testCluster) fundedChain() *chain.Chain {
	c := chain.New()
	for _, s := range tc.senders {
		c.Fund(s.Address(), 1_000_000_000)
	}
	return c
}

func (tc *testCluster) addrOf(i int) string { return fmt.Sprintf("node-%d", i) }

// peersFor lists every validator address except i's own.
func (tc *testCluster) peersFor(i, n int) []string {
	var out []string
	for j := 0; j < n; j++ {
		if j != i {
			out = append(out, tc.addrOf(j))
		}
	}
	return out
}

func (tc *testCluster) newNode(t *testing.T, i int, key *secp256k1.PrivateKey, kv store.KVStore, peers []string) *Node {
	t.Helper()
	eng, err := consensus.NewRoundRobin(tc.vals, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := tc.fundedChain()
	n, err := New(Config{
		Chain:         c,
		Engine:        eng,
		Key:           key,
		Transport:     tc.net,
		Listen:        tc.addrOf(i),
		Peers:         peers,
		Store:         kv,
		StrictDigests: true,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	tc.chains = append(tc.chains, c)
	tc.nodes = append(tc.nodes, n)
	return n
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{net: p2p.NewMemNetwork()}
	for i := 0; i < n; i++ {
		key := secp256k1.DeterministicKey(fmt.Sprintf("cluster-test-val-%d", i))
		tc.keys = append(tc.keys, key)
		tc.vals = append(tc.vals, key.Address())
	}
	for i := 0; i < 4; i++ {
		tc.senders = append(tc.senders, secp256k1.DeterministicKey(fmt.Sprintf("cluster-test-sender-%d", i)))
	}
	for i := 0; i < n; i++ {
		tc.newNode(t, i, tc.keys[i], nil, tc.peersFor(i, n))
	}
	for i, node := range tc.nodes {
		// Every pair dials each other, so a node sees up to 2(n-1)
		// connections; n-1 guarantees it can reach everyone.
		waitFor(t, fmt.Sprintf("node %d mesh", i), func() bool { return node.PeerCountForTest() >= n-1 })
		waitFor(t, fmt.Sprintf("node %d synced", i), func() bool { return !node.Syncing() })
	}
	return tc
}

// leaderFor returns the node whose validator is scheduled at height h.
func (tc *testCluster) leaderFor(h uint64) (*Node, int) {
	lead := tc.nodes[0].cfg.Engine.LeaderAt(h)
	for i, n := range tc.nodes {
		if n.Self() == lead {
			return n, i
		}
	}
	return nil, -1
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// assertConverged requires every node to sit at exactly height h with
// byte-identical head hashes and state digests.
func (tc *testCluster) assertConverged(t *testing.T, h uint64) {
	t.Helper()
	for i, node := range tc.nodes {
		node := node
		waitFor(t, fmt.Sprintf("node %d at height %d", i, h), func() bool {
			return node.Status().Height == h
		})
	}
	ref := tc.nodes[0].Status()
	refDigest := tc.digest(0)
	for i := 1; i < len(tc.nodes); i++ {
		st := tc.nodes[i].Status()
		if st.Head != ref.Head {
			t.Fatalf("node %d head %s != node 0 head %s at height %d", i, st.Head, ref.Head, h)
		}
		if d := tc.digest(i); d != refDigest {
			t.Fatalf("node %d state digest %s != node 0 digest %s", i, d, refDigest)
		}
	}
}

func (tc *testCluster) digest(i int) types.Hash {
	n := tc.nodes[i]
	n.lock.Lock()
	defer n.lock.Unlock()
	return tc.chains[i].State().Digest()
}

// transferTx builds a signed transfer from sender s with nonce nonce.
func (tc *testCluster) transferTx(t *testing.T, s, nonce uint64) *chain.Transaction {
	t.Helper()
	to := types.Address{0xde, 0xad}
	tx := chain.NewTx(nonce, &to, 100+nonce, nil)
	if err := tx.Sign(tc.senders[s]); err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestClusterConvergesUnderLeaderRotation is the core acceptance test:
// three validators, strict digests, leadership rotating every height,
// transactions submitted at whichever node is leader — every node ends
// at the same head hash and state digest, byte for byte.
func TestClusterConvergesUnderLeaderRotation(t *testing.T) {
	tc := newTestCluster(t, 3)
	const rounds = 9
	for h := uint64(1); h <= rounds; h++ {
		leader, li := tc.leaderFor(h)
		if leader == nil {
			t.Fatalf("no local node for leader at height %d", h)
		}
		// A follower attempting to seal gets the typed consensus error.
		follower := tc.nodes[(li+1)%3]
		if _, err := follower.ProduceBlock(); !errors.Is(err, consensus.ErrNotLeader) {
			t.Fatalf("follower sealed height %d: %v", h, err)
		}
		if err := leader.SubmitTx(tc.transferTx(t, uint64(li), h-1)); err != nil {
			t.Fatal(err)
		}
		if _, err := leader.ProduceBlock(); err != nil {
			t.Fatalf("leader at height %d: %v", h, err)
		}
		tc.assertConverged(t, h)
	}
	// Rotation actually happened: coinbases cycle through the set.
	c := tc.chains[0]
	for h := uint64(1); h <= rounds; h++ {
		b, err := c.BlockByNumber(h)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.vals[h%3]; b.Coinbase != want {
			t.Fatalf("block %d coinbase %s, want %s", h, b.Coinbase, want)
		}
	}
}

// TestGossipedTxReachesLeader hands the leader a transaction the way its
// p2p layer does when a peer gossips one, and checks the leader pools
// it and includes it in its next block on every replica.
func TestGossipedTxReachesLeader(t *testing.T) {
	tc := newTestCluster(t, 3)
	leader, li := tc.leaderFor(1)
	tx := tc.transferTx(t, 0, 0)
	if !(*handler)(leader).HandleTx(tx, "follower") {
		t.Fatal("gossiped tx not pooled")
	}
	if _, err := leader.ProduceBlock(); err != nil {
		t.Fatal(err)
	}
	tc.assertConverged(t, 1)
	b, err := tc.chains[li].BlockByNumber(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.TxHashes) != 1 || b.TxHashes[0] != tx.Hash() {
		t.Fatalf("gossiped tx not included: %v", b.TxHashes)
	}
}

// TestFreshNodeCatchesUpViaStateSync starts a brand-new replica with an
// empty store after the cluster has advanced, and requires it to reach
// the same head and digest purely through headers-then-blocks sync.
func TestFreshNodeCatchesUpViaStateSync(t *testing.T) {
	tc := newTestCluster(t, 3)
	for h := uint64(1); h <= 5; h++ {
		leader, li := tc.leaderFor(h)
		// The scheduled leader must have applied the gossiped parent
		// before its proposer check can pass.
		waitFor(t, fmt.Sprintf("leader for height %d caught up", h), func() bool {
			return leader.Status().Height == h-1
		})
		leader.SubmitTx(tc.transferTx(t, uint64(li), h-1)) //nolint:errcheck
		if _, err := leader.ProduceBlock(); err != nil {
			t.Fatal(err)
		}
	}
	tc.assertConverged(t, 5)

	// The late joiner is a follower (not in the validator set); its
	// store is empty, so everything must come over the wire.
	lateKey := secp256k1.DeterministicKey("cluster-test-late")
	late := tc.newNode(t, 3, lateKey, store.NewMem(), []string{tc.addrOf(0), tc.addrOf(1), tc.addrOf(2)})
	waitFor(t, "late node synced", func() bool { return !late.Syncing() })
	tc.assertConverged(t, 5)

	// And it keeps following gossip afterwards.
	leader, li := tc.leaderFor(6)
	leader.SubmitTx(tc.transferTx(t, uint64(li), 5)) //nolint:errcheck
	if _, err := leader.ProduceBlock(); err != nil {
		t.Fatal(err)
	}
	tc.assertConverged(t, 6)
}

// TestRestartFromArchiveStore seals blocks with a persistent archive,
// tears the node down, and rebuilds it offline from the same store.
func TestRestartFromArchiveStore(t *testing.T) {
	tc := &testCluster{net: p2p.NewMemNetwork()}
	key := secp256k1.DeterministicKey("cluster-test-solo")
	tc.keys = []*secp256k1.PrivateKey{key}
	tc.vals = []types.Address{key.Address()}
	tc.senders = append(tc.senders, secp256k1.DeterministicKey("cluster-test-sender-0"))
	kv := store.NewMem()
	n := tc.newNode(t, 0, key, kv, nil)
	for h := uint64(1); h <= 4; h++ {
		n.SubmitTx(tc.transferTx(t, 0, h-1)) //nolint:errcheck
		if _, err := n.ProduceBlock(); err != nil {
			t.Fatal(err)
		}
	}
	wantHead := n.Status().Head
	wantDigest := tc.digest(0)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// Rebuild on the same archive, no peers: restore must replay
	// through verify-and-apply to the identical head.
	tc2 := &testCluster{net: p2p.NewMemNetwork(), keys: tc.keys, vals: tc.vals, senders: tc.senders}
	n2 := tc2.newNode(t, 1, key, kv, nil)
	st := n2.Status()
	if st.Height != 4 || st.Head != wantHead {
		t.Fatalf("restored head %d/%s, want 4/%s", st.Height, st.Head, wantHead)
	}
	if d := tc2.digest(0); d != wantDigest {
		t.Fatalf("restored digest %s, want %s", d, wantDigest)
	}
}

// TestBadBlocksRejected feeds the verify path corrupted variants of a
// valid block and requires typed rejections without state changes.
func TestBadBlocksRejected(t *testing.T) {
	tc := newTestCluster(t, 3)
	leader, li := tc.leaderFor(1)
	leader.SubmitTx(tc.transferTx(t, uint64(li), 0)) //nolint:errcheck
	if _, err := leader.ProduceBlock(); err != nil {
		t.Fatal(err)
	}
	tc.assertConverged(t, 1)

	// Grab the archived block 1 from the leader and mutate it.
	leader.mu.Lock()
	good := leader.entries[1]
	leader.mu.Unlock()
	victim := tc.nodes[(li+1)%3]

	reapply := *good
	if err := applyOn(victim, &reapply); !errors.Is(err, ErrStaleBlock) {
		t.Fatalf("replayed block: %v", err)
	}

	future := *good
	future.Header.Number = 5
	if err := applyOn(victim, &future); !errors.Is(err, ErrFutureBlock) {
		t.Fatalf("future block: %v", err)
	}

	// A block signed by a non-validator impersonating the schedule slot.
	mallory := secp256k1.DeterministicKey("cluster-test-mallory")
	forged := *good
	forged.Header.Number = 2
	forged.Header.ParentHash = good.Header.Hash
	forged.Header.Timestamp = good.Header.Timestamp + chain.BlockInterval
	forged.Header.Coinbase = mallory.Address()
	forged.Header.TxHashes = nil
	forged.Txs = nil
	forged.Header.Hash = chain.ComputeBlockHash(&chain.Block{
		Number:     forged.Header.Number,
		ParentHash: forged.Header.ParentHash,
		Timestamp:  forged.Header.Timestamp,
		Coinbase:   forged.Header.Coinbase,
	})
	sig, err := mallory.Sign(forged.Header.Hash)
	if err != nil {
		t.Fatal(err)
	}
	forged.Sig = sig.Serialize()
	if err := applyOn(victim, &forged); !errors.Is(err, consensus.ErrBadProposer) {
		t.Fatalf("forged proposer: %v", err)
	}

	// A validator's block whose signature does not match the coinbase.
	tampered := *good
	tampered.Header.Number = 2
	tampered.Header.ParentHash = good.Header.Hash
	tampered.Header.Timestamp = good.Header.Timestamp + chain.BlockInterval
	tampered.Header.Coinbase = tc.vals[2%3]
	tampered.Header.TxHashes = nil
	tampered.Txs = nil
	tampered.Header.Hash = chain.ComputeBlockHash(&chain.Block{
		Number:     tampered.Header.Number,
		ParentHash: tampered.Header.ParentHash,
		Timestamp:  tampered.Header.Timestamp,
		Coinbase:   tampered.Header.Coinbase,
	})
	sig, err = mallory.Sign(tampered.Header.Hash)
	if err != nil {
		t.Fatal(err)
	}
	tampered.Sig = sig.Serialize()
	if err := applyOn(victim, &tampered); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("wrong signer: %v", err)
	}

	// Nothing above may have advanced the victim.
	if st := victim.Status(); st.Height != 1 {
		t.Fatalf("victim advanced to %d on bad blocks", st.Height)
	}
}

func applyOn(n *Node, b *p2p.BlockMsg) error {
	n.lock.Lock()
	defer n.lock.Unlock()
	return n.verifyAndApplyLocked(b)
}

// PeerCountForTest exposes the live peer count.
func (n *Node) PeerCountForTest() int { return n.p2p.PeerCount() }
