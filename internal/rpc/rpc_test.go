package rpc

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tinyevm"
	"tinyevm/internal/protocol"
)

func newTestGateway(t *testing.T, opts ...tinyevm.Option) (*tinyevm.Service, *Client) {
	t.Helper()
	svc, provider, err := tinyevm.NewService("provider", opts...)
	if err != nil {
		t.Fatal(err)
	}
	provider.RegisterSensor(tinyevm.SensorTemperature, func(uint64) (uint64, error) { return 2150, nil })
	srv := NewServer(svc)
	hts := httptest.NewServer(srv)
	t.Cleanup(func() {
		svc.Close()
		hts.Close()
	})
	return svc, NewClient(hts.URL, hts.Client())
}

// TestRPCEndToEndConcurrentClients is the gateway acceptance test: at
// least 100 concurrent HTTP clients each drive a full channel
// lifecycle — open, pay xN, close, query — against one tinyevm-serve
// style gateway, with zero lockstep calls, while a subscriber long-polls
// the provider's event stream. Run under -race in CI.
func TestRPCEndToEndConcurrentClients(t *testing.T) {
	_, client := newTestGateway(t)
	ctx := context.Background()

	const clients = 100
	const pays = 3
	const amount = 125

	provider, err := call[NodeInfo](ctx, client, "tinyevm_provider", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Subscriber: long-poll the provider's stream, counting payments.
	sub, err := call[subscription](ctx, client, "tinyevm_subscribe", map[string]string{"node": provider.Name})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(chan map[string]int, 1)
	subCtx, stopSub := context.WithTimeout(ctx, 60*time.Second)
	defer stopSub()
	go func() {
		seen := make(map[string]int)
		defer func() { counts <- seen }()
		for {
			p, err := call[poll](subCtx, client, "tinyevm_poll",
				map[string]any{"subscription": sub.Subscription, "max": 500, "timeoutMs": 1000})
			if err != nil || p.Closed {
				return
			}
			for _, e := range p.Events {
				seen[e.Type]++
				if e.Type == "payment-received" && e.Amount != amount {
					t.Errorf("payment event amount %d, want %d", e.Amount, amount)
				}
			}
			if seen["payment-received"] >= clients*pays && seen["channel-closed"] >= clients {
				return
			}
			if subCtx.Err() != nil {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("device-%03d", i)
			if _, err := client.AddNode(ctx, name); err != nil {
				errCh <- fmt.Errorf("%s add: %w", name, err)
				return
			}
			ch, err := client.OpenChannel(ctx, name, provider.Name, 10_000, 0)
			if err != nil {
				errCh <- fmt.Errorf("%s open: %w", name, err)
				return
			}
			for p := 0; p < pays; p++ {
				if _, err := client.Pay(ctx, name, ch.ID, amount); err != nil {
					errCh <- fmt.Errorf("%s pay %d: %w", name, p, err)
					return
				}
			}
			fs, err := client.CloseChannel(ctx, name, ch.ID)
			if err != nil {
				errCh <- fmt.Errorf("%s close: %w", name, err)
				return
			}
			if fs.Cumulative != pays*amount || !fs.Signed {
				errCh <- fmt.Errorf("%s final state: %+v", name, fs)
				return
			}
			// Query back the closed channel.
			got, err := client.Channel(ctx, name, ch.ID)
			if err != nil {
				errCh <- fmt.Errorf("%s query: %w", name, err)
				return
			}
			if !got.Closed || got.Cumulative != pays*amount {
				errCh <- fmt.Errorf("%s channel state: %+v", name, got)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	seen := <-counts
	if seen["payment-received"] != clients*pays {
		t.Errorf("subscriber saw %d payment events, want %d", seen["payment-received"], clients*pays)
	}
	if seen["channel-opened"] != clients {
		t.Errorf("subscriber saw %d channel-opened events, want %d", seen["channel-opened"], clients)
	}
	if seen["channel-closed"] != clients {
		t.Errorf("subscriber saw %d channel-closed events, want %d", seen["channel-closed"], clients)
	}

	// The provider's table holds one closed channel per client.
	chans, err := call[[]Channel](ctx, client, "tinyevm_channels", map[string]string{"node": provider.Name})
	if err != nil {
		t.Fatal(err)
	}
	closed := 0
	for _, cs := range chans {
		if cs.Closed {
			closed++
		}
	}
	if closed != clients {
		t.Fatalf("provider sees %d closed channels, want %d", closed, clients)
	}
}

// TestRPCTypedErrorsCrossTheWire asserts the error taxonomy survives
// JSON encoding: client-side errors.Is matches the protocol sentinels.
func TestRPCTypedErrorsCrossTheWire(t *testing.T) {
	_, client := newTestGateway(t)
	ctx := context.Background()

	if _, err := client.AddNode(ctx, "dev"); err != nil {
		t.Fatal(err)
	}
	ch, err := client.OpenChannel(ctx, "dev", "provider", 1_000, 0)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := client.Pay(ctx, "dev", ch.ID, 5_000); !errors.Is(err, protocol.ErrInsufficientChannelBalance) {
		t.Fatalf("overspend over the wire: got %v", err)
	}
	if _, err := client.Pay(ctx, "dev", 424242, 1); !errors.Is(err, protocol.ErrUnknownChannel) {
		t.Fatalf("unknown channel over the wire: got %v", err)
	}
	if _, err := client.CloseChannel(ctx, "dev", ch.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Pay(ctx, "dev", ch.ID, 1); !errors.Is(err, protocol.ErrChannelClosed) {
		t.Fatalf("closed channel over the wire: got %v", err)
	}
	if _, err := client.Pay(ctx, "nobody", 1, 1); !errors.Is(err, tinyevm.ErrUnknownNode) {
		t.Fatalf("unknown node over the wire: got %v", err)
	}
}

// TestRPCOnChainLifecycle drives phase 1 and phase 3 over the gateway:
// deposit, commit, exit, challenge period, settle.
func TestRPCOnChainLifecycle(t *testing.T) {
	_, client := newTestGateway(t, tinyevm.WithChallengePeriod(3))
	ctx := context.Background()

	if _, err := client.AddNode(ctx, "car"); err != nil {
		t.Fatal(err)
	}
	if r, err := client.Deposit(ctx, "car", 10_000); err != nil || !r.Status {
		t.Fatalf("deposit: %v %+v", err, r)
	}
	ch, err := client.OpenChannel(ctx, "car", "provider", 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Pay(ctx, "car", ch.ID, 2_500); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CloseChannel(ctx, "car", ch.ID); err != nil {
		t.Fatal(err)
	}

	// The provider commits its own view of the channel: find its local
	// handle for the car's channel.
	chans, err := call[[]Channel](ctx, client, "tinyevm_channels", map[string]string{"node": "provider"})
	if err != nil {
		t.Fatal(err)
	}
	var provHandle uint64
	for _, cs := range chans {
		if cs.Closed {
			provHandle = cs.ID
		}
	}
	if r, err := client.Commit(ctx, "provider", provHandle); err != nil || !r.Status {
		t.Fatalf("commit: %v %+v", err, r)
	}
	if r, err := client.Exit(ctx, "car"); err != nil || !r.Status {
		t.Fatalf("exit: %v %+v", err, r)
	}
	if err := client.RunChallengePeriod(ctx); err != nil {
		t.Fatal(err)
	}
	before, err := call[balance](ctx, client, "tinyevm_balance", map[string]string{"address": "car"})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := client.Settle(ctx, "provider"); err != nil || !r.Status {
		t.Fatalf("settle: %v %+v", err, r)
	}
	after, err := call[balance](ctx, client, "tinyevm_balance", map[string]string{"address": "car"})
	if err != nil {
		t.Fatal(err)
	}
	// Settlement refunds the car's unspent deposit (10_000 - 2_500); the
	// car pays no gas in this window.
	if after.Balance-before.Balance != 7_500 {
		t.Fatalf("car refund = %d, want 7500", after.Balance-before.Balance)
	}
}

// TestRPCBadRequests exercises the JSON-RPC error codes.
func TestRPCBadRequests(t *testing.T) {
	_, client := newTestGateway(t)
	ctx := context.Background()

	var rpcErr *Error
	err := client.Call(ctx, "tinyevm_noSuchMethod", nil, nil)
	if !errors.As(err, &rpcErr) || rpcErr.Code != codeMethodNotFound {
		t.Fatalf("unknown method: got %v", err)
	}
	err = client.Call(ctx, "tinyevm_pay", map[string]any{"bogus": true}, nil)
	if !errors.As(err, &rpcErr) || rpcErr.Code != codeInvalidParams {
		t.Fatalf("bad params: got %v", err)
	}
	err = client.Call(ctx, "tinyevm_poll", map[string]any{"subscription": "sub-999"}, nil)
	if !errors.As(err, &rpcErr) || rpcErr.Code != codeInvalidParams {
		t.Fatalf("unknown subscription: got %v", err)
	}
}

// TestRPCUnsubscribe closes the stream and reports closed on the next
// poll.
func TestRPCUnsubscribe(t *testing.T) {
	_, client := newTestGateway(t)
	ctx := context.Background()

	sub, err := call[subscription](ctx, client, "tinyevm_subscribe", map[string]string{"node": "provider"})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Call(ctx, "tinyevm_unsubscribe", sub, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call[poll](ctx, client, "tinyevm_poll",
		map[string]any{"subscription": sub.Subscription, "max": 10, "timeoutMs": 100}); err == nil {
		t.Fatal("poll after unsubscribe should fail")
	}
}

// TestRPCSubscriptionBound fills the server's subscription bound in one
// batch, sees the next subscribe refused, and gets a slot back by
// unsubscribing one.
func TestRPCSubscriptionBound(t *testing.T) {
	_, client := newTestGateway(t)
	ctx := context.Background()

	ids := make([]subscription, maxSubscriptions)
	b := client.NewBatch()
	for i := range ids {
		b.Add("tinyevm_subscribe", map[string]string{"node": "provider"}, &ids[i])
	}
	errs, err := b.Call(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("subscribe %d of %d: %v", i+1, maxSubscriptions, e)
		}
	}

	var rpcErr *Error
	provider := map[string]string{"node": "provider"}
	if _, err := call[subscription](ctx, client, "tinyevm_subscribe", provider); !errors.As(err, &rpcErr) || rpcErr.Code != codeServer {
		t.Fatalf("subscribe past the bound: got %v, want a server error", err)
	}
	if err := client.Call(ctx, "tinyevm_unsubscribe", ids[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call[subscription](ctx, client, "tinyevm_subscribe", provider); err != nil {
		t.Fatalf("subscribe after freeing a slot: %v", err)
	}
}

// TestRPCNodeStatusAndBlockHash covers the cluster introspection
// endpoints on a standalone gateway: role "standalone", zero peers,
// and a stable block hash once a block is sealed.
func TestRPCNodeStatusAndBlockHash(t *testing.T) {
	_, client := newTestGateway(t)
	ctx := context.Background()

	st, err := call[NodeStatus](ctx, client, "tinyevm_nodeStatus", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "standalone" || st.Peers != 0 {
		t.Fatalf("standalone status = %+v", st)
	}
	if _, err := client.Deposit(ctx, "provider", 1); err != nil { // seals a block
		t.Fatal(err)
	}
	st, err = call[NodeStatus](ctx, client, "tinyevm_nodeStatus", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Height != 1 || st.Head == "" {
		t.Fatalf("post-mine status = %+v", st)
	}
	h, err := call[blockHash](ctx, client, "tinyevm_blockHash", map[string]uint64{"number": 1})
	if err != nil {
		t.Fatal(err)
	}
	if h.Hash != st.Head {
		t.Fatalf("blockHash(1) = %s, head = %s", h.Hash, st.Head)
	}
	if _, err := call[blockHash](ctx, client, "tinyevm_blockHash", map[string]uint64{"number": 99}); err == nil {
		t.Fatal("blockHash(99) succeeded for unsealed height")
	}
}
