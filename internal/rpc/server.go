package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"tinyevm"
	"tinyevm/internal/device"
	"tinyevm/internal/protocol"
	"tinyevm/internal/types"
)

// maxBody bounds a request body (1 MiB).
const maxBody = 1 << 20

// maxBatch bounds the number of calls in one JSON-RPC batch request.
const maxBatch = 4096

// maxSubscriptions bounds the live subscriptions per server. Each one
// holds two goroutines and an event queue until it is unsubscribed or
// reaped idle, so without a bound one batch could pin maxBatch of them.
const maxSubscriptions = 256

// maxPollTimeout caps a long-poll wait.
const maxPollTimeout = 30 * time.Second

// DefaultSensorValue is the fixed temperature reading (centi-degrees C)
// registered on nodes created over RPC, so channel-contract
// constructors — which read the temperature sensor through the IoT
// opcode — work for remote clients that cannot install Go sensor
// handlers. Override per node with tinyevm_registerSensor.
const DefaultSensorValue = 2150

// Server serves the TinyEVM service over JSON-RPC 2.0. It implements
// http.Handler; every request is a POST carrying either a single
// JSON-RPC call or a batch (a JSON array of calls, per the spec).
type Server struct {
	svc *tinyevm.Service

	mu      sync.Mutex
	subs    map[string]*serverSub
	nextSub uint64
}

// subIdleTTL is how long a subscription may go unpolled before the
// server reaps it — abandoned clients (crashed, disconnected without
// tinyevm_unsubscribe) must not leak goroutines and event queues.
// The sweep runs on every request; a fully idle daemon also generates
// no events, so queues cannot grow while no sweep runs.
const subIdleTTL = 5 * time.Minute

// serverSub is one live subscription with its long-poll state.
type serverSub struct {
	events <-chan tinyevm.Event
	cancel context.CancelFunc

	// lastPoll (guarded by the server mutex) drives idle reaping.
	lastPoll time.Time

	// pollMu serializes concurrent polls on the same subscription.
	pollMu sync.Mutex
}

// sweepLocked reaps subscriptions idle past the TTL. Callers hold s.mu.
func (s *Server) sweepLocked(now time.Time) {
	for id, sub := range s.subs {
		if now.Sub(sub.lastPoll) > subIdleTTL {
			sub.cancel()
			delete(s.subs, id)
		}
	}
}

// NewServer wraps a service.
func NewServer(svc *tinyevm.Service) *Server {
	return &Server{svc: svc, subs: make(map[string]*serverSub)}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.reply(w, nil, nil, &Error{Code: codeInvalidRequest,
				Message: fmt.Sprintf("invalid request: body exceeds %d bytes", tooBig.Limit)})
			return
		}
		s.reply(w, nil, nil, &Error{Code: codeParse, Message: err.Error()})
		return
	}
	s.mu.Lock()
	s.sweepLocked(time.Now())
	s.mu.Unlock()
	if isBatch(body) {
		s.serveBatch(w, r, body)
		return
	}
	var req request
	if err := json.Unmarshal(body, &req); err != nil {
		s.reply(w, nil, nil, &Error{Code: codeParse, Message: "parse error: " + err.Error()})
		return
	}
	if req.Version != "2.0" || req.Method == "" {
		s.reply(w, req.ID, nil, &Error{Code: codeInvalidRequest, Message: "invalid request"})
		return
	}
	result, rpcErr := s.dispatch(r.Context(), req.Method, req.Params)
	s.reply(w, req.ID, result, rpcErr)
}

// isBatch reports whether the body's first non-whitespace byte opens a
// JSON array (a JSON-RPC 2.0 batch call).
func isBatch(body []byte) bool {
	for _, b := range body {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		default:
			return b == '['
		}
	}
	return false
}

// serveBatch handles a JSON-RPC 2.0 batch: the entries execute as
// concurrent tasks (the spec explicitly allows any processing order,
// and the sharded service turns that freedom into real parallelism —
// payments on disjoint channel pairs in one batch proceed under
// different shard locks), while the response array preserves the
// request order entry-for-entry. Notifications (entries without an id)
// are executed but produce no response entry; a batch of only
// notifications yields 204 No Content, per spec.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, body []byte) {
	var raws []json.RawMessage
	if err := json.Unmarshal(body, &raws); err != nil {
		s.reply(w, nil, nil, &Error{Code: codeParse, Message: "parse error: " + err.Error()})
		return
	}
	if len(raws) == 0 {
		s.reply(w, nil, nil, &Error{Code: codeInvalidRequest, Message: "empty batch"})
		return
	}
	if len(raws) > maxBatch {
		s.reply(w, nil, nil, &Error{Code: codeInvalidRequest, Message: fmt.Sprintf("batch exceeds %d calls", maxBatch)})
		return
	}

	responses := make([]*response, len(raws))
	var wg sync.WaitGroup
	for i, raw := range raws {
		wg.Add(1)
		go func(i int, raw json.RawMessage) {
			defer wg.Done()
			responses[i] = s.handleOne(r.Context(), raw)
		}(i, raw)
	}
	wg.Wait()

	out := make([]response, 0, len(responses))
	for _, resp := range responses {
		if resp != nil {
			out = append(out, *resp)
		}
	}
	if len(out) == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out) //nolint:errcheck // client gone
}

// handleOne executes one batch entry and builds its response; nil for
// notifications (no id) and malformed non-object entries get the
// per-entry error object the spec prescribes.
func (s *Server) handleOne(ctx context.Context, raw json.RawMessage) *response {
	var req request
	if err := json.Unmarshal(raw, &req); err != nil {
		return buildResponse(nil, nil, &Error{Code: codeInvalidRequest, Message: "invalid request: " + err.Error()})
	}
	if req.Version != "2.0" || req.Method == "" {
		return buildResponse(req.ID, nil, &Error{Code: codeInvalidRequest, Message: "invalid request"})
	}
	result, rpcErr := s.dispatch(ctx, req.Method, req.Params)
	if len(req.ID) == 0 {
		return nil // notification: executed, never answered
	}
	return buildResponse(req.ID, result, rpcErr)
}

// buildResponse assembles one wire response object.
func buildResponse(id json.RawMessage, result any, rpcErr *Error) *response {
	resp := &response{Version: "2.0", ID: id}
	if rpcErr != nil {
		resp.Error = rpcErr
		return resp
	}
	raw, err := json.Marshal(result)
	if err != nil {
		resp.Error = &Error{Code: codeServer, Message: err.Error()}
		return resp
	}
	resp.Result = raw
	return resp
}

func (s *Server) reply(w http.ResponseWriter, id json.RawMessage, result any, rpcErr *Error) {
	resp := buildResponse(id, result, rpcErr)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // client gone
}

// decode unmarshals params strictly into dst.
func decode(params json.RawMessage, dst any) error {
	if len(params) == 0 {
		params = []byte("{}")
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return &Error{Code: codeInvalidParams, Message: "invalid params: " + err.Error()}
	}
	return nil
}

// node resolves a node name.
func (s *Server) node(name string) (*tinyevm.ServiceNode, error) {
	sn, ok := s.svc.Node(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", tinyevm.ErrUnknownNode, name)
	}
	return sn, nil
}

// addr parses a peer field holding either a hex address or a node name.
func (s *Server) addr(v string) (types.Address, error) {
	if strings.HasPrefix(v, "0x") {
		a, err := types.HexToAddress(v)
		if err != nil {
			return a, &Error{Code: codeInvalidParams, Message: err.Error()}
		}
		return a, nil
	}
	sn, err := s.node(v)
	if err != nil {
		return types.Address{}, err
	}
	return sn.Address(), nil
}

// A method is one row of the gateway's method table. Handlers return
// plain errors; dispatch turns them into wire errors in one place.
type method func(s *Server, ctx context.Context, params json.RawMessage) (any, error)

// bare adapts a method that takes no params (and, as it always has,
// ignores any it is sent).
func bare(fn func(s *Server, ctx context.Context) (any, error)) method {
	return func(s *Server, ctx context.Context, _ json.RawMessage) (any, error) { return fn(s, ctx) }
}

// onService adapts a method whose params decode strictly into In.
func onService[In any](fn func(s *Server, ctx context.Context, in In) (any, error)) method {
	return func(s *Server, ctx context.Context, params json.RawMessage) (any, error) {
		var in In
		if err := decode(params, &in); err != nil {
			return nil, err
		}
		return fn(s, ctx, in)
	}
}

// onNode adapts a method acting on the node its params name: In is or
// embeds nodeParam, and the handler gets the resolved node.
func onNode[In interface{ nodeName() string }](fn func(ctx context.Context, sn *tinyevm.ServiceNode, in In) (any, error)) method {
	return onService(func(s *Server, ctx context.Context, in In) (any, error) {
		sn, err := s.node(in.nodeName())
		if err != nil {
			return nil, err
		}
		return fn(ctx, sn, in)
	})
}

type nodeParam struct {
	Node string `json:"node"`
}

func (p nodeParam) nodeName() string { return p.Node }

type nodeChannel struct {
	nodeParam
	Channel uint64 `json:"channel"`
}

type addressOnly struct {
	Address string `json:"address"`
}

type subscriptionOnly struct {
	Subscription string `json:"subscription"`
}

// Wire conversions of (result, error) pairs, so a row can return the
// service call directly.
func receipt(r *tinyevm.Receipt, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	out := Receipt{Status: r.Status, GasUsed: r.GasUsed, Block: r.BlockNumber}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	return out, nil
}

func head(n uint64, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return map[string]uint64{"head": n}, nil
}

func identity(sn *tinyevm.ServiceNode) map[string]string {
	return map[string]string{"name": sn.Name(), "address": sn.Address().Hex()}
}

// channelOf looks a channel up, failing with the protocol's sentinel
// when the node has no such channel.
func channelOf(ctx context.Context, sn *tinyevm.ServiceNode, id uint64) (tinyevm.ChannelState, error) {
	cs, ok, err := sn.Channel(ctx, id)
	if err == nil && !ok {
		err = fmt.Errorf("%w: %d", protocol.ErrUnknownChannel, id)
	}
	return cs, err
}

// methods is the gateway's method table: one row per JSON-RPC method,
// holding its params struct, the service call and the wire conversion.
var methods = map[string]method{
	"tinyevm_provider": bare(func(s *Server, _ context.Context) (any, error) {
		return identity(s.svc.Provider()), nil
	}),

	"tinyevm_addNode": onService(func(s *Server, ctx context.Context, in struct {
		Name string `json:"name"`
	}) (any, error) {
		sn, err := s.svc.AddNode(ctx, in.Name)
		if err != nil {
			return nil, err
		}
		// Journaled registration: on a durable deployment the default
		// sensor is replayed before the channel ops that read it.
		if err := sn.RegisterSensorValue(ctx, device.SensorTemperature, DefaultSensorValue); err != nil {
			return nil, err
		}
		return identity(sn), nil
	}),

	"tinyevm_registerSensor": onNode(func(ctx context.Context, sn *tinyevm.ServiceNode, in struct {
		nodeParam
		ID    uint64 `json:"id"`
		Value uint64 `json:"value"`
	}) (any, error) {
		return map[string]bool{"ok": true}, sn.RegisterSensorValue(ctx, in.ID, in.Value)
	}),

	"tinyevm_openChannel": onService(func(s *Server, ctx context.Context, in struct {
		nodeParam
		Peer        string `json:"peer"`
		Deposit     uint64 `json:"deposit"`
		SensorParam uint64 `json:"sensorParam"`
	}) (any, error) {
		sn, err := s.node(in.Node)
		if err != nil {
			return nil, err
		}
		peer, err := s.addr(in.Peer)
		if err != nil {
			return nil, err
		}
		cs, err := sn.OpenChannel(ctx, peer, in.Deposit, in.SensorParam)
		return toChannel(cs), err
	}),

	"tinyevm_pay": onNode(func(ctx context.Context, sn *tinyevm.ServiceNode, in struct {
		nodeChannel
		Amount uint64 `json:"amount"`
	}) (any, error) {
		pay, err := sn.Pay(ctx, in.Channel, in.Amount)
		if err != nil {
			return nil, err
		}
		return Payment{Channel: in.Channel, Seq: pay.Seq, Cumulative: pay.Cumulative}, nil
	}),

	"tinyevm_closeChannel": onNode(func(ctx context.Context, sn *tinyevm.ServiceNode, in nodeChannel) (any, error) {
		fs, err := sn.Close(ctx, in.Channel)
		if err != nil {
			return nil, err
		}
		return FinalState{
			Channel:    in.Channel,
			Sender:     fs.Sender.Hex(),
			Receiver:   fs.Receiver.Hex(),
			Seq:        fs.Seq,
			Cumulative: fs.Cumulative,
			Signed:     fs.VerifySignatures() == nil,
		}, nil
	}),

	"tinyevm_channel": onNode(func(ctx context.Context, sn *tinyevm.ServiceNode, in nodeChannel) (any, error) {
		cs, err := channelOf(ctx, sn, in.Channel)
		return toChannel(cs), err
	}),

	"tinyevm_channels": onNode(func(ctx context.Context, sn *tinyevm.ServiceNode, _ nodeParam) (any, error) {
		list, err := sn.Channels(ctx)
		out := make([]Channel, 0, len(list))
		for _, cs := range list {
			out = append(out, toChannel(cs))
		}
		return out, err
	}),

	"tinyevm_deposit": onNode(func(ctx context.Context, sn *tinyevm.ServiceNode, in struct {
		nodeParam
		Amount uint64 `json:"amount"`
	}) (any, error) {
		return receipt(sn.Deposit(ctx, in.Amount))
	}),

	"tinyevm_commit": onNode(func(ctx context.Context, sn *tinyevm.ServiceNode, in nodeChannel) (any, error) {
		cs, err := channelOf(ctx, sn, in.Channel)
		if err != nil {
			return nil, err
		}
		if cs.Final == nil {
			return nil, fmt.Errorf("%w: channel %d has no final state", tinyevm.ErrIncompleteClose, in.Channel)
		}
		return receipt(sn.Commit(ctx, cs.Final))
	}),

	"tinyevm_exit": onNode(func(ctx context.Context, sn *tinyevm.ServiceNode, _ nodeParam) (any, error) {
		return receipt(sn.Exit(ctx))
	}),

	"tinyevm_settle": onNode(func(ctx context.Context, sn *tinyevm.ServiceNode, _ nodeParam) (any, error) {
		return receipt(sn.Settle(ctx))
	}),

	"tinyevm_runChallengePeriod": bare(func(s *Server, ctx context.Context) (any, error) {
		if err := s.svc.RunChallengePeriod(ctx); err != nil {
			return nil, err
		}
		return head(s.svc.HeadBlock(ctx))
	}),

	"tinyevm_balance": onService(func(s *Server, ctx context.Context, in addressOnly) (any, error) {
		a, err := s.addr(in.Address)
		if err != nil {
			return nil, err
		}
		bal, err := s.svc.BalanceOf(ctx, a)
		return map[string]uint64{"balance": bal}, err
	}),

	"tinyevm_head": bare(func(s *Server, ctx context.Context) (any, error) {
		return head(s.svc.HeadBlock(ctx))
	}),

	"tinyevm_nodeStatus":  bare((*Server).nodeStatus),
	"tinyevm_node_status": bare((*Server).nodeStatus),

	"tinyevm_serviceStats": bare(func(s *Server, ctx context.Context) (any, error) {
		st, err := s.svc.ServiceStats(ctx)
		return toServiceStats(st), err
	}),

	"tinyevm_storeStatus": bare(func(s *Server, ctx context.Context) (any, error) {
		st, ok, err := s.svc.StoreStatus(ctx)
		if err == nil && !ok {
			err = &Error{Code: codeServer, Message: "no durable store configured"}
		}
		return toStoreStatus(st), err
	}),

	"tinyevm_stateProof": onService(func(s *Server, ctx context.Context, in addressOnly) (any, error) {
		a, err := s.addr(in.Address)
		if err != nil {
			return nil, err
		}
		p, err := s.svc.StateProof(ctx, a)
		if err != nil {
			return nil, err
		}
		return toStateProof(p), nil
	}),

	"tinyevm_blockHash": onService(func(s *Server, ctx context.Context, in struct {
		Number uint64 `json:"number"`
	}) (any, error) {
		h, err := s.svc.BlockHash(ctx, in.Number)
		return map[string]string{"hash": h.Hex()}, err
	}),

	"tinyevm_subscribe": onService((*Server).subscribe),

	"tinyevm_poll": onService((*Server).poll),

	"tinyevm_unsubscribe": onService(func(s *Server, _ context.Context, in subscriptionOnly) (any, error) {
		s.mu.Lock()
		sub, ok := s.subs[in.Subscription]
		delete(s.subs, in.Subscription)
		s.mu.Unlock()
		if ok {
			sub.cancel()
		}
		return map[string]bool{"ok": ok}, nil
	}),
}

// dispatch routes one method call through the table and converts the
// handler's error to its wire form: an *Error passes through, anything
// else gets its kind from the taxonomy in rpc.go.
func (s *Server) dispatch(ctx context.Context, name string, params json.RawMessage) (any, *Error) {
	m, ok := methods[name]
	if !ok {
		return nil, &Error{Code: codeMethodNotFound, Message: "method not found: " + name}
	}
	result, err := m(s, ctx, params)
	if err == nil {
		return result, nil
	}
	var rpcErr *Error
	if !errors.As(err, &rpcErr) {
		rpcErr = toError(err)
	}
	return nil, rpcErr
}

func (s *Server) nodeStatus(ctx context.Context) (any, error) {
	st, err := s.svc.NodeStatus(ctx)
	return toNodeStatus(st), err
}

func (s *Server) subscribe(_ context.Context, in nodeParam) (any, error) {
	sn, err := s.node(in.Node)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.subs) >= maxSubscriptions {
		return nil, &Error{Code: codeServer, Message: fmt.Sprintf("subscription limit reached (%d live)", maxSubscriptions)}
	}
	// The subscription outlives this HTTP request; it is bounded by
	// the service lifetime and explicit unsubscribe.
	subCtx, cancel := context.WithCancel(context.Background())
	events := sn.Subscribe(subCtx)
	s.nextSub++
	id := fmt.Sprintf("sub-%d", s.nextSub)
	s.subs[id] = &serverSub{events: events, cancel: cancel, lastPoll: time.Now()}
	return map[string]string{"subscription": id}, nil
}

func (s *Server) poll(ctx context.Context, in struct {
	Subscription string `json:"subscription"`
	Max          int    `json:"max"`
	TimeoutMs    int    `json:"timeoutMs"`
}) (any, error) {
	s.mu.Lock()
	sub, ok := s.subs[in.Subscription]
	if ok {
		sub.lastPoll = time.Now()
	}
	s.mu.Unlock()
	if !ok {
		return nil, &Error{Code: codeInvalidParams, Message: "unknown subscription " + in.Subscription}
	}
	events, closed := sub.poll(ctx, in.Max, in.TimeoutMs)
	s.mu.Lock()
	if cur, ok := s.subs[in.Subscription]; ok && cur == sub {
		if closed {
			// The stream ended (service closed or ctx cancelled): reap.
			cur.cancel()
			delete(s.subs, in.Subscription)
		} else {
			cur.lastPoll = time.Now()
		}
	}
	s.mu.Unlock()
	return map[string]any{"events": events, "closed": closed}, nil
}

// poll long-polls the subscription: it blocks until at least one event
// is available (or the timeout / request context expires), then drains
// up to max buffered events. closed reports that the stream ended.
func (sub *serverSub) poll(ctx context.Context, max, timeoutMs int) ([]Event, bool) {
	sub.pollMu.Lock()
	defer sub.pollMu.Unlock()

	if max <= 0 {
		max = 100
	}
	timeout := time.Duration(timeoutMs) * time.Millisecond
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	if timeout > maxPollTimeout {
		timeout = maxPollTimeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()

	events := make([]Event, 0, 4)
	select {
	case e, ok := <-sub.events:
		if !ok {
			return events, true
		}
		events = append(events, toEvent(e))
	case <-timer.C:
		return events, false
	case <-ctx.Done():
		return events, false
	}
	for len(events) < max {
		select {
		case e, ok := <-sub.events:
			if !ok {
				return events, true
			}
			events = append(events, toEvent(e))
		default:
			return events, false
		}
	}
	return events, false
}
