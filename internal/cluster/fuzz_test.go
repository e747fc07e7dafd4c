package cluster

import (
	"bytes"
	"testing"

	"tinyevm/internal/chain"
	"tinyevm/internal/consensus"
	"tinyevm/internal/p2p"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
)

// FuzzClusterApply feeds the follower path arbitrary peer bytes: each
// input is decoded as the wire decodes it and, when it is a block,
// verified and applied on a fresh replica with strict digests off. No
// input may panic, and a block the replica refuses must leave its head
// number, head hash and state digest as they were — the package's
// "rejected without rollback".
func FuzzClusterApply(f *testing.F) {
	key := secp256k1.DeterministicKey("cluster-fuzz-validator")
	sender := secp256k1.DeterministicKey("cluster-fuzz-sender")
	replica := func(t testing.TB) *Node {
		eng, err := consensus.NewRoundRobin([]types.Address{key.Address()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := chain.New()
		c.Fund(sender.Address(), 1_000_000_000)
		n, err := New(Config{Chain: c, Engine: eng, Key: key, Transport: p2p.NewMemNetwork()})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Seeds: block 1 as the one validator sealed it, carrying a
	// transfer, and mutations of its bytes.
	leader := replica(f)
	to := types.Address{0xde, 0xad}
	tx := chain.NewTx(0, &to, 100, nil)
	if err := tx.Sign(sender); err != nil {
		f.Fatal(err)
	}
	if err := leader.SubmitTx(tx); err != nil {
		f.Fatal(err)
	}
	if _, err := leader.ProduceBlock(); err != nil {
		f.Fatal(err)
	}
	leader.mu.Lock()
	good := p2p.Encode(leader.entries[1])
	leader.mu.Unlock()
	if err := applyOn(replica(f), mustBlock(f, good)); err != nil {
		f.Fatalf("the sealed block does not apply on a fresh replica: %v", err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	for at := 1; at < len(good); at += len(good) / 16 {
		bad := bytes.Clone(good)
		bad[at] ^= 0x01
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := p2p.Decode(data)
		if err != nil {
			return
		}
		msg, ok := m.(*p2p.BlockMsg)
		if !ok {
			return
		}
		n := replica(t)
		head, digest := n.cfg.Chain.Head(), n.cfg.Chain.State().Digest()
		if err := applyOn(n, msg); err == nil {
			return
		}
		now := n.cfg.Chain.Head()
		if now.Number != head.Number || now.Hash != head.Hash {
			t.Fatalf("a refused block moved the head from %d %s to %d %s", head.Number, head.Hash, now.Number, now.Hash)
		}
		if after := n.cfg.Chain.State().Digest(); after != digest {
			t.Fatalf("a refused block changed the state digest from %s to %s", digest, after)
		}
	})
}

func mustBlock(t testing.TB, data []byte) *p2p.BlockMsg {
	t.Helper()
	m, err := p2p.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*p2p.BlockMsg)
}
