package txpool

import (
	"sync"
	"testing"

	"tinyevm/internal/chain"
	"tinyevm/internal/p2p"
	"tinyevm/internal/types"
)

func tx(nonce uint64) *chain.Transaction {
	to := types.Address{0x01}
	return chain.NewTx(nonce, &to, 1, nil)
}

func TestPoolDedupAndOrder(t *testing.T) {
	p := NewPool(8)
	a, b := tx(1), tx(2)
	if !p.Add(a) || !p.Add(b) {
		t.Fatal("fresh adds rejected")
	}
	if p.Add(a) {
		t.Fatal("duplicate accepted")
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	got := p.TakeAll()
	if len(got) != 2 || got[0].Hash() != a.Hash() || got[1].Hash() != b.Hash() {
		t.Fatalf("TakeAll out of order: %v", got)
	}
	if p.Len() != 0 {
		t.Fatal("pool not drained")
	}
	// A drained hash may be re-added (retry after a dropped block).
	if !p.Add(a) {
		t.Fatal("re-add after drain rejected")
	}
}

func TestPoolCapacity(t *testing.T) {
	p := NewPool(2)
	if !p.Add(tx(1)) || !p.Add(tx(2)) {
		t.Fatal("adds under cap rejected")
	}
	if p.Add(tx(3)) {
		t.Fatal("add over cap accepted")
	}
}

func TestPoolRemove(t *testing.T) {
	p := NewPool(8)
	a, b, c := tx(1), tx(2), tx(3)
	p.Add(a)
	p.Add(b)
	p.Add(c)
	p.Remove([]*chain.Transaction{a, c})
	got := p.TakeAll()
	if len(got) != 1 || got[0].Hash() != b.Hash() {
		t.Fatalf("Remove kept wrong txs: %v", got)
	}
}

func TestPoolConcurrentAdd(t *testing.T) {
	p := NewPool(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p.Add(tx(uint64(g*1000 + i)))
			}
		}(g)
	}
	wg.Wait()
	if p.Len() != 800 {
		t.Fatalf("Len = %d, want 800", p.Len())
	}
}

func blk(n uint64) *p2p.BlockMsg {
	return &p2p.BlockMsg{Header: p2p.Header{Number: n, Hash: types.Hash{byte(n)}}}
}

func TestBlockPool(t *testing.T) {
	bp := NewBlockPool(4)
	if !bp.Add(blk(5)) || !bp.Add(blk(7)) {
		t.Fatal("fresh adds rejected")
	}
	if bp.Add(blk(5)) {
		t.Fatal("duplicate height accepted")
	}
	if b := bp.Pop(5); b == nil || b.Header.Number != 5 {
		t.Fatalf("Pop(5) = %v", b)
	}
	if b := bp.Pop(5); b != nil {
		t.Fatal("Pop not consuming")
	}
	bp.Add(blk(3))
	bp.PruneBelow(6)
	if len(bp.byNo) != 1 {
		t.Fatalf("PruneBelow left %d blocks, want 1 (height 7)", len(bp.byNo))
	}
	if b := bp.Pop(7); b == nil {
		t.Fatal("height 7 pruned by mistake")
	}
}

func TestBlockPoolCapacity(t *testing.T) {
	bp := NewBlockPool(2)
	bp.Add(blk(1))
	bp.Add(blk(2))
	if bp.Add(blk(3)) {
		t.Fatal("add over cap accepted")
	}
}
