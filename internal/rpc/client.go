package rpc

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"tinyevm/internal/chain"
	"tinyevm/internal/mst"
	"tinyevm/internal/types"
)

// Client is a Go client for the TinyEVM JSON-RPC gateway. It is safe
// for concurrent use. Errors returned by the gateway are rebuilt onto
// the protocol sentinels, so errors.Is(err, protocol.ErrStaleSequence)
// works on the client side of the wire.
type Client struct {
	url     string
	hc      *http.Client
	nextID  atomic.Uint64
	timeout time.Duration
	retries int
	backoff time.Duration
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRequestTimeout bounds every individual RPC attempt: each HTTP
// round trip runs under a context deadline of d (0 disables, the
// default). Long-poll methods (tinyevm_poll) should use a timeout
// comfortably above their server-side timeoutMs.
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithRetry makes Call retry transport-level failures (connection
// refused/reset, per-attempt timeout) up to max extra attempts, backing
// off linearly from backoff (attempt n sleeps n*backoff). Typed gateway
// errors — a *Error reply, including protocol-sentinel kinds — are
// never retried: the request reached the service and was answered.
//
// Note that retried requests are re-executed, not replayed: a payment
// whose response was lost in transit may be applied twice. Load
// generators accept that; accounting clients should retry at a higher
// level where the channel state can be inspected first.
func WithRetry(max int, backoff time.Duration) ClientOption {
	return func(c *Client) { c.retries, c.backoff = max, backoff }
}

// NewClient creates a client for the gateway at url (e.g.
// "http://127.0.0.1:8545"). httpClient nil uses http.DefaultClient.
func NewClient(url string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{url: url, hc: httpClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Call performs one JSON-RPC call, decoding the result into out (out
// nil discards it). Transport failures are retried per WithRetry;
// gateway-level errors are returned immediately.
func (c *Client) Call(ctx context.Context, method string, params, out any) error {
	rawParams, err := json.Marshal(params)
	if err != nil {
		return fmt.Errorf("rpc: encoding params: %w", err)
	}
	body, err := json.Marshal(request{
		Version: "2.0",
		ID:      json.RawMessage(fmt.Sprintf("%d", c.nextID.Add(1))),
		Method:  method,
		Params:  rawParams,
	})
	if err != nil {
		return fmt.Errorf("rpc: encoding request: %w", err)
	}
	return c.send(ctx, body, func(status int, respBody []byte) error {
		var resp response
		if err := json.Unmarshal(respBody, &resp); err != nil {
			return fmt.Errorf("rpc: bad response (HTTP %d): %w", status, err)
		}
		if resp.Error != nil {
			return remoteError(resp.Error)
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(resp.Result, out)
	})
}

// send POSTs body and hands the reply to read, retrying per WithRetry
// while the attempt's error is retryable.
func (c *Client) send(ctx context.Context, body []byte, read func(status int, respBody []byte) error) error {
	for attempt := 0; ; attempt++ {
		err := c.post(ctx, body, read)
		if err == nil || !retryable(err) || attempt >= c.retries {
			return err
		}
		if c.backoff > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(attempt+1) * c.backoff):
			}
		} else if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// retryable reports whether err is a transport-level failure. Gateway
// replies (*Error, typed or not) and caller-context cancellation are
// final.
func retryable(err error) bool {
	var rpcErr *Error
	if errors.As(err, &rpcErr) {
		return false
	}
	// Typed kinds rebuilt onto sentinels are gateway replies too.
	if kind := KindOf(err); kind != "" && kind != "canceled" && kind != "deadline-exceeded" {
		return false
	}
	return !errors.Is(err, context.Canceled)
}

// post is one attempt: the POST under the per-attempt timeout, the
// reply body read up to maxBody and handed to read.
func (c *Client) post(ctx context.Context, body []byte, read func(status int, respBody []byte) error) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(httpResp.Body, maxBody))
	if err != nil {
		return err
	}
	return read(httpResp.StatusCode, respBody)
}

// remoteError rebuilds a wire error. When the error data carries a
// typed kind, the returned error wraps the matching sentinel.
func remoteError(e *Error) error {
	if e.Data != nil && e.Data.Kind != "" {
		if sentinel := sentinelOf(e.Data.Kind); sentinel != nil {
			return fmt.Errorf("rpc: %w: %s", sentinel, e.Message)
		}
	}
	return e
}

// NodeInfo identifies a node on the gateway.
type NodeInfo struct {
	Name    string `json:"name"`
	Address string `json:"address"`
}

// AddNode creates a node (with the gateway's default temperature
// sensor installed).
func (c *Client) AddNode(ctx context.Context, name string) (NodeInfo, error) {
	var out NodeInfo
	err := c.Call(ctx, "tinyevm_addNode", map[string]string{"name": name}, &out)
	return out, err
}

// OpenChannel opens an off-chain channel from node toward peer (hex
// address or node name).
func (c *Client) OpenChannel(ctx context.Context, node, peer string, deposit, sensorParam uint64) (Channel, error) {
	var out Channel
	err := c.Call(ctx, "tinyevm_openChannel",
		map[string]any{"node": node, "peer": peer, "deposit": deposit, "sensorParam": sensorParam}, &out)
	return out, err
}

// Pay sends an off-chain payment.
func (c *Client) Pay(ctx context.Context, node string, channel, amount uint64) (Payment, error) {
	var out Payment
	err := c.Call(ctx, "tinyevm_pay",
		map[string]any{"node": node, "channel": channel, "amount": amount}, &out)
	return out, err
}

// CloseChannel runs the cooperative close handshake.
func (c *Client) CloseChannel(ctx context.Context, node string, channel uint64) (FinalState, error) {
	var out FinalState
	err := c.Call(ctx, "tinyevm_closeChannel",
		map[string]any{"node": node, "channel": channel}, &out)
	return out, err
}

// Channel fetches a channel snapshot.
func (c *Client) Channel(ctx context.Context, node string, channel uint64) (Channel, error) {
	var out Channel
	err := c.Call(ctx, "tinyevm_channel",
		map[string]any{"node": node, "channel": channel}, &out)
	return out, err
}

// Deposit locks funds into the on-chain template.
func (c *Client) Deposit(ctx context.Context, node string, amount uint64) (Receipt, error) {
	var out Receipt
	err := c.Call(ctx, "tinyevm_deposit",
		map[string]any{"node": node, "amount": amount}, &out)
	return out, err
}

// Commit submits a closed channel's final state on-chain.
func (c *Client) Commit(ctx context.Context, node string, channel uint64) (Receipt, error) {
	var out Receipt
	err := c.Call(ctx, "tinyevm_commit",
		map[string]any{"node": node, "channel": channel}, &out)
	return out, err
}

// Exit starts the on-chain challenge period.
func (c *Client) Exit(ctx context.Context, node string) (Receipt, error) {
	var out Receipt
	err := c.Call(ctx, "tinyevm_exit", map[string]any{"node": node}, &out)
	return out, err
}

// Settle dissolves the template after the challenge period.
func (c *Client) Settle(ctx context.Context, node string) (Receipt, error) {
	var out Receipt
	err := c.Call(ctx, "tinyevm_settle", map[string]any{"node": node}, &out)
	return out, err
}

// RunChallengePeriod advances the chain past the active exit deadline.
func (c *Client) RunChallengePeriod(ctx context.Context) error {
	return c.Call(ctx, "tinyevm_runChallengePeriod", nil, nil)
}

// Head returns the main-chain head block number.
func (c *Client) Head(ctx context.Context) (uint64, error) {
	var out struct {
		Head uint64 `json:"head"`
	}
	err := c.Call(ctx, "tinyevm_head", nil, &out)
	return out.Head, err
}

// VerifyStateProof verifies a StateProof end to end on the client
// side: the account record must re-digest to the proven leaf value,
// the Merkle path must verify against the root, and the root must fold
// into exactly p.Commitment. A nil error means the proof is internally
// sound; the caller completes light-client verification by comparing
// p.Commitment against a block state commitment obtained from a source
// it trusts (it is NOT taken from the proving daemon's word).
func VerifyStateProof(p *StateProof) error {
	addr, err := types.HexToAddress(p.Address)
	if err != nil {
		return fmt.Errorf("rpc: state proof address: %w", err)
	}
	digest, err := types.HexToHash(p.AccountDigest)
	if err != nil {
		return fmt.Errorf("rpc: state proof digest: %w", err)
	}
	account, err := hex.DecodeString(p.Account)
	if err != nil {
		return fmt.Errorf("rpc: state proof account record: %w", err)
	}
	commitment, err := types.HexToHash(p.Commitment)
	if err != nil {
		return fmt.Errorf("rpc: state proof commitment: %w", err)
	}
	proof, root, err := decodeMapProof(p)
	if err != nil {
		return err
	}
	if err := chain.VerifyAccountRecord(addr, account, digest); err != nil {
		return err
	}
	return chain.VerifyAccountProof(commitment, &chain.AccountProof{
		Address:       addr,
		AccountDigest: digest,
		Sum:           p.Sum,
		Account:       account,
		Proof:         proof,
		Root:          root,
		Commitment:    commitment,
		Head:          p.Head,
	})
}

// decodeMapProof rebuilds the wire proof's Merkle path and root.
func decodeMapProof(p *StateProof) (mst.MapProof, mst.Root, error) {
	var (
		proof mst.MapProof
		root  mst.Root
		err   error
	)
	if proof.LeftHash, err = types.HexToHash(p.LeftHash); err != nil {
		return proof, root, fmt.Errorf("rpc: state proof path: %w", err)
	}
	if proof.RightHash, err = types.HexToHash(p.RightHash); err != nil {
		return proof, root, fmt.Errorf("rpc: state proof path: %w", err)
	}
	proof.LeftSum, proof.RightSum = p.LeftSum, p.RightSum
	for _, st := range p.Steps {
		step := mst.MapProofStep{Sum: st.Sum, SiblingSum: st.SiblingSum, Right: st.Right}
		if step.Key, err = hex.DecodeString(st.Key); err != nil {
			return proof, root, fmt.Errorf("rpc: state proof step key: %w", err)
		}
		if step.ValueHash, err = types.HexToHash(st.ValueHash); err != nil {
			return proof, root, fmt.Errorf("rpc: state proof step: %w", err)
		}
		if step.SiblingHash, err = types.HexToHash(st.SiblingHash); err != nil {
			return proof, root, fmt.Errorf("rpc: state proof step: %w", err)
		}
		proof.Steps = append(proof.Steps, step)
	}
	if root.Hash, err = types.HexToHash(p.RootHash); err != nil {
		return proof, root, fmt.Errorf("rpc: state proof root: %w", err)
	}
	root.Sum = p.RootSum
	return proof, root, nil
}
