package rpc

// Batch client: many JSON-RPC calls in one HTTP round trip. The load
// harness uses it to amortize connection and HTTP overhead across
// payments — with the sharded service the gateway executes the batched
// entries concurrently, so one wire round trip carries the parallelism
// the server can extract from it.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
)

// Batch accumulates JSON-RPC calls and sends them as one JSON-RPC 2.0
// batch request. Build with Client.NewBatch, append with Add (or the
// typed helpers), send with Call. A Batch is single-use and not safe
// for concurrent mutation; the underlying Client is.
type Batch struct {
	c       *Client
	entries []batchEntry
	encErr  error
}

type batchEntry struct {
	id     uint64
	method string
	params json.RawMessage
	out    any
}

// NewBatch starts an empty batch on this client.
func (c *Client) NewBatch() *Batch { return &Batch{c: c} }

// Add appends one call; the response's result is decoded into out (nil
// discards it). Returns b for chaining. A params encoding failure is
// latched and surfaced by Call.
func (b *Batch) Add(method string, params, out any) *Batch {
	raw, err := json.Marshal(params)
	if err != nil && b.encErr == nil {
		b.encErr = fmt.Errorf("rpc: encoding params for %s (batch entry %d): %w", method, len(b.entries), err)
	}
	b.entries = append(b.entries, batchEntry{
		id:     b.c.nextID.Add(1),
		method: method,
		params: raw,
		out:    out,
	})
	return b
}

// Pay appends a tinyevm_pay call decoding into out (nil discards it).
func (b *Batch) Pay(node string, channel, amount uint64, out *Payment) *Batch {
	var dst any
	if out != nil {
		dst = out
	}
	return b.Add("tinyevm_pay",
		map[string]any{"node": node, "channel": channel, "amount": amount}, dst)
}

// Call sends the batch in one HTTP request and returns one error slot
// per added call, aligned with Add order (nil on success, a rebuilt
// typed sentinel or *Error otherwise). The second return value is a
// whole-batch failure — encoding, transport, or an unparseable reply —
// in which case no per-entry slice is returned. Transport failures
// retry per WithRetry with the same re-execution caveat as Call.
func (b *Batch) Call(ctx context.Context) ([]error, error) {
	if b.encErr != nil {
		return nil, b.encErr
	}
	if len(b.entries) == 0 {
		return nil, nil
	}
	reqs := make([]request, len(b.entries))
	for i, e := range b.entries {
		reqs[i] = request{
			Version: "2.0",
			ID:      json.RawMessage(fmt.Sprintf("%d", e.id)),
			Method:  e.method,
			Params:  e.params,
		}
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		return nil, fmt.Errorf("rpc: encoding batch: %w", err)
	}
	var perEntry []error // set by the attempt that succeeds, nil by one that fails
	err = b.c.send(ctx, body, func(status int, respBody []byte) (err error) {
		perEntry, err = b.read(status, respBody)
		return err
	})
	return perEntry, err
}

// read matches one attempt's reply to the batch's entries.
func (b *Batch) read(status int, respBody []byte) ([]error, error) {
	// A single error object (e.g. oversized batch) answers the whole
	// request; a JSON array answers entry by entry.
	if !isBatch(respBody) {
		var resp response
		if err := json.Unmarshal(respBody, &resp); err != nil {
			return nil, fmt.Errorf("rpc: bad batch response (HTTP %d): %w", status, err)
		}
		if resp.Error != nil {
			return nil, remoteError(resp.Error)
		}
		return nil, errors.New("rpc: gateway answered a batch with a single non-error response")
	}
	var resps []response
	if err := json.Unmarshal(respBody, &resps); err != nil {
		return nil, fmt.Errorf("rpc: bad batch response (HTTP %d): %w", status, err)
	}

	// The gateway preserves request order, but match by id anyway —
	// the spec only guarantees ids, and it costs one map.
	byID := make(map[string]*response, len(resps))
	for i := range resps {
		byID[string(resps[i].ID)] = &resps[i]
	}
	out := make([]error, len(b.entries))
	for i, e := range b.entries {
		resp, ok := byID[fmt.Sprintf("%d", e.id)]
		if !ok {
			out[i] = fmt.Errorf("rpc: no response for batch entry %d (%s)", i, e.method)
			continue
		}
		if resp.Error != nil {
			out[i] = remoteError(resp.Error)
			continue
		}
		if e.out != nil {
			out[i] = json.Unmarshal(resp.Result, e.out)
		}
	}
	return out, nil
}
