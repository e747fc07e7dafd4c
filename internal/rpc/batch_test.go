package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"tinyevm/internal/protocol"
)

// postRaw sends a raw JSON-RPC payload to the gateway under test and
// returns the HTTP status and body.
func postRaw(t *testing.T, c *Client, payload string) (int, []byte) {
	t.Helper()
	resp, err := c.hc.Post(c.url, "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestBatchEndToEnd drives a mixed batch through the live gateway: two
// good payments, a typed protocol failure, and an unknown method, all
// in one HTTP request. Per-entry results land in Add order, and the
// failing entries carry their rebuilt typed errors without disturbing
// their neighbours.
func TestBatchEndToEnd(t *testing.T) {
	_, client := newTestGateway(t)
	ctx := context.Background()

	provider, err := call[NodeInfo](ctx, client, "tinyevm_provider", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.AddNode(ctx, "vehicle"); err != nil {
		t.Fatal(err)
	}
	ch, err := client.OpenChannel(ctx, "vehicle", provider.Name, 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}

	var p1, p2 Payment
	var head struct {
		Head uint64 `json:"head"`
	}
	b := client.NewBatch().
		Pay("vehicle", ch.ID, 100, &p1).
		Pay("vehicle", 9999, 1, nil). // unknown channel: typed failure
		Pay("vehicle", ch.ID, 50, &p2).
		Add("tinyevm_noSuchMethod", nil, nil).
		Add("tinyevm_head", nil, &head)
	if len(b.entries) != 5 {
		t.Fatalf("batch length = %d, want 5", len(b.entries))
	}

	errs, err := b.Call(ctx)
	if err != nil {
		t.Fatalf("batch call: %v", err)
	}
	if len(errs) != 5 {
		t.Fatalf("per-entry errors = %d, want 5", len(errs))
	}
	if errs[0] != nil || errs[2] != nil || errs[4] != nil {
		t.Fatalf("good entries failed: %v / %v / %v", errs[0], errs[2], errs[4])
	}
	if !errors.Is(errs[1], protocol.ErrUnknownChannel) {
		t.Errorf("entry 1 error = %v, want ErrUnknownChannel", errs[1])
	}
	var rpcErr *Error
	if !errors.As(errs[3], &rpcErr) || rpcErr.Code != codeMethodNotFound {
		t.Errorf("entry 3 error = %v, want method-not-found", errs[3])
	}
	// Entries of one batch execute concurrently, so the two same-channel
	// pays land in either order: they must occupy seqs 1 and 2, and
	// whichever ran second carries the full cumulative.
	if !(p1.Seq == 1 && p2.Seq == 2 || p1.Seq == 2 && p2.Seq == 1) {
		t.Errorf("payment seqs = %d/%d, want {1,2}", p1.Seq, p2.Seq)
	}
	last := p1
	if p2.Seq > p1.Seq {
		last = p2
	}
	if last.Cumulative != 150 {
		t.Errorf("final payment cumulative = %d, want 150", last.Cumulative)
	}
	got, err := client.Channel(ctx, "vehicle", ch.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cumulative != 150 || got.Seq != 2 {
		t.Errorf("channel after batch: cum=%d seq=%d, want 150/2", got.Cumulative, got.Seq)
	}
}

// TestBatchWireShape pins the JSON-RPC 2.0 batch semantics on the raw
// wire: response order mirrors request order, notifications execute
// but are omitted, an all-notification batch answers 204, and an empty
// batch is a single invalid-request error object.
func TestBatchWireShape(t *testing.T) {
	_, client := newTestGateway(t)

	t.Run("order-preserved", func(t *testing.T) {
		// Distinctive out-of-order ids: the reply array must follow the
		// request array, not id order.
		status, body := postRaw(t, client, `[
			{"jsonrpc":"2.0","id":30,"method":"tinyevm_head"},
			{"jsonrpc":"2.0","id":10,"method":"tinyevm_head"},
			{"jsonrpc":"2.0","id":20,"method":"tinyevm_head"}]`)
		if status != http.StatusOK {
			t.Fatalf("status %d, body %s", status, body)
		}
		var resps []response
		if err := json.Unmarshal(body, &resps); err != nil {
			t.Fatalf("bad body %s: %v", body, err)
		}
		if len(resps) != 3 {
			t.Fatalf("responses = %d, want 3", len(resps))
		}
		for i, want := range []string{"30", "10", "20"} {
			if string(resps[i].ID) != want {
				t.Errorf("response %d id = %s, want %s", i, resps[i].ID, want)
			}
		}
	})

	t.Run("notifications-omitted", func(t *testing.T) {
		status, body := postRaw(t, client, `[
			{"jsonrpc":"2.0","method":"tinyevm_head"},
			{"jsonrpc":"2.0","id":1,"method":"tinyevm_head"}]`)
		if status != http.StatusOK {
			t.Fatalf("status %d, body %s", status, body)
		}
		var resps []response
		if err := json.Unmarshal(body, &resps); err != nil {
			t.Fatalf("bad body %s: %v", body, err)
		}
		if len(resps) != 1 || string(resps[0].ID) != "1" {
			t.Errorf("responses = %s, want only id 1", body)
		}
	})

	t.Run("all-notifications-204", func(t *testing.T) {
		status, body := postRaw(t, client, `[
			{"jsonrpc":"2.0","method":"tinyevm_head"},
			{"jsonrpc":"2.0","method":"tinyevm_head"}]`)
		if status != http.StatusNoContent {
			t.Fatalf("status %d, want 204 (body %s)", status, body)
		}
	})

	t.Run("empty-batch", func(t *testing.T) {
		status, body := postRaw(t, client, `[]`)
		if status != http.StatusOK {
			t.Fatalf("status %d, body %s", status, body)
		}
		var resp response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("bad body %s: %v", body, err)
		}
		if resp.Error == nil || resp.Error.Code != codeInvalidRequest {
			t.Errorf("error = %+v, want invalid-request", resp.Error)
		}
	})

	t.Run("malformed-batch", func(t *testing.T) {
		status, body := postRaw(t, client, `[{"jsonrpc":`)
		if status != http.StatusOK {
			t.Fatalf("status %d, body %s", status, body)
		}
		var resp response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("bad body %s: %v", body, err)
		}
		if resp.Error == nil || resp.Error.Code != codeParse {
			t.Errorf("error = %+v, want parse error", resp.Error)
		}
	})

	t.Run("bad-entry-among-good", func(t *testing.T) {
		// One entry is not a valid request object; the others still run.
		status, body := postRaw(t, client, `[
			{"jsonrpc":"2.0","id":1,"method":"tinyevm_head"},
			42,
			{"jsonrpc":"2.0","id":2,"method":"tinyevm_head"}]`)
		if status != http.StatusOK {
			t.Fatalf("status %d, body %s", status, body)
		}
		var resps []response
		if err := json.Unmarshal(body, &resps); err != nil {
			t.Fatalf("bad body %s: %v", body, err)
		}
		if len(resps) != 3 {
			t.Fatalf("responses = %d, want 3 (body %s)", len(resps), body)
		}
		if resps[0].Error != nil || resps[2].Error != nil {
			t.Errorf("good entries errored: %s", body)
		}
		if resps[1].Error == nil || resps[1].Error.Code != codeInvalidRequest {
			t.Errorf("bad entry = %+v, want invalid-request", resps[1])
		}
	})
}

// TestBatchConcurrentClients hammers the gateway with concurrent batch
// requests from many vehicles, each batching payments on its own
// channel — the sharded hot path executes entries of distinct batches
// (and within a batch) in parallel. Run under -race in CI.
func TestBatchConcurrentClients(t *testing.T) {
	_, client := newTestGateway(t)
	ctx := context.Background()

	provider, err := call[NodeInfo](ctx, client, "tinyevm_provider", nil)
	if err != nil {
		t.Fatal(err)
	}

	const vehicles = 24
	const pays = 8
	const amount = 3

	var wg sync.WaitGroup
	errCh := make(chan error, vehicles)
	for v := 0; v < vehicles; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			name := fmt.Sprintf("veh-%d", v)
			if _, err := client.AddNode(ctx, name); err != nil {
				errCh <- fmt.Errorf("%s add: %w", name, err)
				return
			}
			ch, err := client.OpenChannel(ctx, name, provider.Name, 10_000, 0)
			if err != nil {
				errCh <- fmt.Errorf("%s open: %w", name, err)
				return
			}
			b := client.NewBatch()
			for i := 0; i < pays; i++ {
				b.Pay(name, ch.ID, amount, nil)
			}
			errs, err := b.Call(ctx)
			if err != nil {
				errCh <- fmt.Errorf("%s batch: %w", name, err)
				return
			}
			for i, e := range errs {
				if e != nil {
					errCh <- fmt.Errorf("%s pay %d: %w", name, i, e)
					return
				}
			}
			got, err := client.Channel(ctx, name, ch.ID)
			if err != nil {
				errCh <- fmt.Errorf("%s channel: %w", name, err)
				return
			}
			if got.Cumulative != pays*amount {
				errCh <- fmt.Errorf("%s cumulative = %d, want %d", name, got.Cumulative, pays*amount)
			}
		}(v)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
