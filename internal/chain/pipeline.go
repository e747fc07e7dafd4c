// The seal pipeline: asynchronous, in-order WAL commits.
//
// Without it, SealBlock blocks on batch.Commit — fsync-shaped latency
// sits squarely on the block-production path. With it, persistSeal
// still builds the durable batch synchronously (the block record must
// capture the state commitment the seal produced), but hands the built
// batch to a single committer goroutine and returns. Block N+1's
// transactions — and the engine's conflict groups — execute while
// block N's batch is in flight.
//
// Ordering and safety:
//
//   - One committer goroutine drains a FIFO channel, so batches reach
//     the store in seal order; the persisted blocks stay a prefix.
//   - store.KVStore implementations are safe for concurrent use, so
//     in-flight commits coexist with the service's intent-log appends.
//   - Commit failures are latched into StoreErr exactly as on the
//     synchronous path; once latched, queued batches are dropped.
//
// Crash window: a SIGKILL can lose up to `depth` queued batches that
// were sealed but not yet committed. That is recoverable by design —
// the service's intent log was appended BEFORE each operation, so
// replay re-executes those seals, finds their block records absent,
// and re-persists them synchronously. EnablePipeline must therefore
// only be called after any replay has completed (replay needs the
// synchronous verify path: a Get must observe every prior commit).

package chain

import (
	"sync/atomic"

	"tinyevm/internal/store"
)

// DefaultPipelineDepth is the default number of sealed-but-uncommitted
// blocks the pipeline may hold before sealing backpressures.
const DefaultPipelineDepth = 4

// sealPipeline is the committer goroutine's handle.
type sealPipeline struct {
	ch    chan store.Batch
	done  chan struct{}
	depth atomic.Int64
}

// EnablePipeline switches persistence to asynchronous in-order commits
// with the given queue depth (minimum 1). It is a no-op without an
// attached store or when already enabled. Not safe to call concurrently
// with block production; enable at setup time, after replay.
func (c *Chain) EnablePipeline(depth int) {
	if c.kv == nil || c.pipe != nil {
		return
	}
	if depth < 1 {
		depth = 1
	}
	p := &sealPipeline{
		ch:   make(chan store.Batch, depth),
		done: make(chan struct{}),
	}
	c.pipe = p
	go func() {
		defer close(p.done)
		for b := range p.ch {
			if c.StoreErr() == nil {
				if err := b.Commit(); err != nil {
					c.setStoreErr(err)
				}
			}
			p.depth.Add(-1)
		}
	}()
}

// ClosePipeline drains queued commits and stops the committer. After it
// returns, every acknowledged seal is durable and persistence is
// synchronous again. Safe to call when no pipeline is enabled.
func (c *Chain) ClosePipeline() {
	if c.pipe == nil {
		return
	}
	close(c.pipe.ch)
	<-c.pipe.done
	c.pipe = nil
}

// PipelineDepth returns the number of sealed blocks whose commit is
// still queued or in flight (0 when the pipeline is disabled).
func (c *Chain) PipelineDepth() int {
	if c.pipe == nil {
		return 0
	}
	return int(c.pipe.depth.Load())
}

// enqueue hands one built batch to the committer, blocking only when
// the queue is full (backpressure bounds the crash window).
func (p *sealPipeline) enqueue(b store.Batch) {
	p.depth.Add(1)
	p.ch <- b
}
