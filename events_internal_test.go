package tinyevm

import (
	"context"
	"testing"
	"time"
)

// TestSubscriptionQueueBounded: a subscriber that never reads holds at
// most maxSubQueue events. Past that its stream ends, its queue is
// freed and the service forgets it.
func TestSubscriptionQueueBounded(t *testing.T) {
	svc, lot, err := NewService("lot")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	events := lot.Subscribe(ctx)
	svc.subMu.Lock()
	var sub *subscription
	for s := range svc.subs {
		sub = s
	}
	svc.subMu.Unlock()

	// Every sealed block broadcasts block-sealed; the stream's channel
	// buffer and the event in the pump's hand come on top of the queue.
	for i := 0; i < maxSubQueue+64; i++ {
		if err := svc.MineBlock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	delivered := 0
	deadline := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-events:
			if open {
				delivered++
			}
		case <-deadline:
			t.Fatalf("the stream is still open after %d events", delivered)
		}
	}
	if delivered > maxSubQueue {
		t.Fatalf("the stream delivered %d events, past its cap of %d", delivered, maxSubQueue)
	}
	sub.mu.Lock()
	queued := sub.queue
	sub.mu.Unlock()
	if queued != nil {
		t.Fatalf("the closed stream still holds %d events", len(queued))
	}
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		svc.subMu.Lock()
		n := len(svc.subs)
		svc.subMu.Unlock()
		if n == 0 {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("the service still tracks %d subscriptions", n)
		}
	}
}
