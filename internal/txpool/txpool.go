// Package txpool holds gossip-received transactions and out-of-order
// blocks until the cluster layer can feed them into the chain's
// NextBlockTemplate/SealBlock seams. Both pools are bounded, dedup by
// hash, and preserve arrival order so every node drains work
// deterministically.
package txpool

import (
	"sync"

	"tinyevm/internal/chain"
	"tinyevm/internal/p2p"
	"tinyevm/internal/types"
)

// DefaultCap bounds a pool when the caller passes cap <= 0.
const DefaultCap = 4096

// Pool is a bounded FIFO transaction pool with hash dedup. The leader
// drains it into block templates; followers use it to pre-validate
// gossip and to survive leader churn without losing submissions.
type Pool struct {
	mu    sync.Mutex
	cap   int
	order []types.Hash
	byID  map[types.Hash]*chain.Transaction
}

// NewPool builds a pool holding at most capacity transactions.
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Pool{cap: capacity, byID: make(map[types.Hash]*chain.Transaction)}
}

// Add inserts a transaction; it reports false for duplicates and when
// the pool is full (the tx is dropped — gossip will re-deliver or the
// submitter retries).
func (p *Pool) Add(tx *chain.Transaction) bool {
	h := tx.Hash()
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.byID[h]; dup {
		return false
	}
	if len(p.order) >= p.cap {
		return false
	}
	p.byID[h] = tx
	p.order = append(p.order, h)
	return true
}

// TakeAll drains the pool in arrival order.
func (p *Pool) TakeAll() []*chain.Transaction {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*chain.Transaction, 0, len(p.order))
	for _, h := range p.order {
		out = append(out, p.byID[h])
	}
	p.order = p.order[:0]
	p.byID = make(map[types.Hash]*chain.Transaction)
	return out
}

// Remove drops the given transactions (typically: ones just applied
// from a sealed block) without disturbing the rest.
func (p *Pool) Remove(txs []*chain.Transaction) {
	if len(txs) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, tx := range txs {
		delete(p.byID, tx.Hash())
	}
	kept := p.order[:0]
	for _, h := range p.order {
		if _, ok := p.byID[h]; ok {
			kept = append(kept, h)
		}
	}
	p.order = kept
}

// Len reports the number of pooled transactions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.order)
}

// BlockPool parks gossiped blocks that arrived ahead of the local chain
// head (e.g. block N+2 while N+1 is still in flight) keyed by height,
// so the apply loop can pop them in order once their parent lands.
type BlockPool struct {
	mu   sync.Mutex
	cap  int
	byNo map[uint64]*p2p.BlockMsg
}

// NewBlockPool builds a block pool holding at most capacity blocks.
func NewBlockPool(capacity int) *BlockPool {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &BlockPool{cap: capacity, byNo: make(map[uint64]*p2p.BlockMsg)}
}

// Add parks a block; the first block seen for a height wins. It reports
// whether the block was kept.
func (bp *BlockPool) Add(b *p2p.BlockMsg) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if _, dup := bp.byNo[b.Header.Number]; dup {
		return false
	}
	if len(bp.byNo) >= bp.cap {
		return false
	}
	bp.byNo[b.Header.Number] = b
	return true
}

// Pop removes and returns the block parked at the given height, or nil.
func (bp *BlockPool) Pop(number uint64) *p2p.BlockMsg {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	b := bp.byNo[number]
	delete(bp.byNo, number)
	return b
}

// PruneBelow discards every block at a height below floor (already
// applied through sync or gossip).
func (bp *BlockPool) PruneBelow(floor uint64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for n := range bp.byNo {
		if n < floor {
			delete(bp.byNo, n)
		}
	}
}
