package main

// Bench-owned tracing: spans are recorded around the calls INTO each
// layer, from wrappers handed to the public seams that accept a
// caller-supplied implementation (tinyevm.WithStore,
// ClusterConfig.Transport, http.RoundTripper, http.Handler). Nothing in
// the program under test is instrumented. Spans stay in memory and are
// written out when the run ends.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tinyevm/internal/p2p"
	"tinyevm/internal/store"
)

// maxSpans caps the in-memory trace per process; call_mem alone
// completes hundreds of thousands of ops per second, and a trace nobody can open helps nobody. Spans
// past the cap are counted, not kept — the counters that feed the
// per-layer metrics are unaffected.
const maxSpans = 50_000

// Span is one timed call into a layer. Every span of one operation
// shares its Op id; Parent is the op span that contains it (0 for the
// op span itself). The traced pass runs one client, so a span's parent
// is the op whose interval contains it.
type Span struct {
	ID       uint64 `json:"id"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Op       uint64 `json:"op"`
	Parent   uint64 `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Bytes    int    `json:"bytes,omitempty"`
}

// tracer collects spans and the counters behind the in-path metrics.
// Wrappers record only while on is set, so fleet set-up and the
// wrappers-absent segments leave no spans.
type tracer struct {
	workload string
	epoch    time.Time
	on       atomic.Bool
	curOp    atomic.Uint64
	nextID   atomic.Uint64

	mu    sync.Mutex
	spans []Span
	// full is set once maxSpans are held; from then on spans are counted
	// in dropped, not kept. The wrappers go on timing every call: the
	// latency histograms and byte counters below cover the whole pass.
	full    atomic.Bool
	dropped atomic.Int64

	// store counters
	putLat     hist // Put / Batch.Commit latencies
	batchMaxNs int64
	// value bytes of the first recordProbe writes (Put or Batch.Commit)
	// after tracing starts: a fixed, repeatable set
	recB, recN int

	// rpc counters (tinyevm_pay requests only for the byte counts)
	serveLat, requestLat       hist
	payReqB, payRespB, payReqN int

	// p2p counters
	frames, frameBytes int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// beginOp opens the op span for the single traced client.
func (t *tracer) beginOp() (id uint64, start time.Time) {
	if t.full.Load() {
		return 0, time.Time{}
	}
	id = t.nextID.Add(1)
	t.curOp.Store(id)
	return id, time.Now()
}

// endOp closes the op span.
func (t *tracer) endOp(id uint64, start time.Time, name string) {
	if id == 0 {
		t.dropped.Add(1)
		return
	}
	t.curOp.Store(0)
	t.add(Span{ID: id, Name: name, Layer: "workload", Op: id}, start, time.Now())
}

// child records a span under the op in flight.
func (t *tracer) child(layer, name string, start, end time.Time, nbytes int) {
	op := t.curOp.Load()
	t.add(Span{ID: t.nextID.Add(1), Name: name, Layer: layer, Op: op, Parent: op, Bytes: nbytes}, start, end)
}

func (t *tracer) add(s Span, start, end time.Time) {
	if t.full.Load() {
		t.dropped.Add(1)
		return
	}
	s.Workload = t.workload
	s.StartNs = start.Sub(t.epoch).Nanoseconds()
	s.EndNs = end.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	if len(t.spans) >= maxSpans {
		t.full.Store(true)
	}
	t.mu.Unlock()
}

// traceFile is what -trace-out holds.
type traceFile struct {
	Note    string `json:"note"`
	Dropped int    `json:"dropped"`
	Spans   []Span `json:"spans"`
}

func writeTrace(path string, spans []Span, dropped int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{
		Note:    "start_ns/end_ns are relative to each workload's own epoch; spans with equal op belong to one operation",
		Dropped: dropped,
		Spans:   spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- store wrapper -----------------------------------------------------

// tracedKV wraps the store handed to tinyevm.WithStore.
type tracedKV struct {
	inner store.KVStore
	t     *tracer
}

func (k *tracedKV) Get(key []byte) ([]byte, bool, error) {
	if !k.t.on.Load() {
		return k.inner.Get(key)
	}
	start := time.Now()
	v, ok, err := k.inner.Get(key)
	k.t.child("store", "get", start, time.Now(), len(v))
	return v, ok, err
}

func (k *tracedKV) Put(key, value []byte) error {
	if !k.t.on.Load() {
		return k.inner.Put(key, value)
	}
	start := time.Now()
	err := k.inner.Put(key, value)
	end := time.Now()
	k.t.child("store", "put", start, end, len(key)+len(value))
	k.t.notePut(end.Sub(start), len(value), false)
	return err
}

func (k *tracedKV) Delete(key []byte) error { return k.inner.Delete(key) }

func (k *tracedKV) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	if !k.t.on.Load() {
		return k.inner.Iterate(prefix, fn)
	}
	start := time.Now()
	n := 0
	err := k.inner.Iterate(prefix, func(key, value []byte) error {
		n += len(key) + len(value)
		return fn(key, value)
	})
	k.t.child("store", "iterate", start, time.Now(), n)
	return err
}

func (k *tracedKV) Batch() store.Batch { return &tracedBatch{inner: k.inner.Batch(), t: k.t} }

func (k *tracedKV) Close() error { return k.inner.Close() }

// Stats keeps tinyevm_storeStatus reporting the real backend.
func (k *tracedKV) Stats() store.Stats {
	if sp, ok := k.inner.(store.StatsProvider); ok {
		return sp.Stats()
	}
	return store.Stats{Kind: "custom"}
}

type tracedBatch struct {
	inner             store.Batch
	t                 *tracer
	bytes, valueBytes int
}

func (b *tracedBatch) Put(key, value []byte) {
	b.bytes += len(key) + len(value)
	b.valueBytes += len(value)
	b.inner.Put(key, value)
}
func (b *tracedBatch) Delete(key []byte) { b.bytes += len(key); b.inner.Delete(key) }
func (b *tracedBatch) Len() int          { return b.inner.Len() }

func (b *tracedBatch) Commit() error {
	if !b.t.on.Load() {
		return b.inner.Commit()
	}
	start := time.Now()
	err := b.inner.Commit()
	end := time.Now()
	b.t.child("store", "commit", start, end, b.bytes)
	b.t.notePut(end.Sub(start), b.valueBytes, true)
	return err
}

// recordProbe is how many store writes the journal's record size is
// taken over: the first recordProbe after tracing starts, so the figure
// repeats exactly however long the pass runs (a record grows by a byte
// whenever its sequence number gains a digit).
const recordProbe = 18

func (t *tracer) notePut(d time.Duration, valueBytes int, batch bool) {
	t.mu.Lock()
	t.putLat.add(d.Nanoseconds())
	if batch && d.Nanoseconds() > t.batchMaxNs {
		t.batchMaxNs = d.Nanoseconds()
	}
	if t.recN < recordProbe {
		t.recN++
		t.recB += valueBytes
	}
	t.mu.Unlock()
}

// --- rpc wrappers ------------------------------------------------------

var payMethod = []byte(`"tinyevm_pay"`)

// tracedHandler wraps rpc.NewServer: the span covers request decode,
// dispatch and response encode inside the gateway.
type tracedHandler struct {
	inner http.Handler
	t     *tracer
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return w.ResponseWriter.Write(p)
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.t.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.inner.ServeHTTP(cw, r)
	end := time.Now()
	h.t.child("rpc", "serve", start, end, len(body)+cw.n)
	h.t.mu.Lock()
	h.t.serveLat.add(end.Sub(start).Nanoseconds())
	if bytes.Contains(body, payMethod) {
		h.t.payReqB += len(body)
		h.t.payRespB += cw.n
		h.t.payReqN++
	}
	h.t.mu.Unlock()
}

// tracedRoundTripper wraps the client's transport: the span runs from
// the request leaving the client codec to the response body being
// closed, so request_us - serve_us is the wire plus net/http on both
// ends.
type tracedRoundTripper struct {
	inner http.RoundTripper
	t     *tracer
}

type spanBody struct {
	io.ReadCloser
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.done()
	return err
}

func (rt *tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.on.Load() {
		return rt.inner.RoundTrip(req)
	}
	start := time.Now()
	resp, err := rt.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		end := time.Now()
		rt.t.child("rpc", "request", start, end, int(req.ContentLength))
		rt.t.mu.Lock()
		rt.t.requestLat.add(end.Sub(start).Nanoseconds())
		rt.t.mu.Unlock()
	}}
	return resp, nil
}

// --- p2p wrapper -------------------------------------------------------

// tracedTransport counts every frame the cluster sends. Delivery stays
// instant: the wrapper adds no delay.
type tracedTransport struct {
	inner p2p.Transport
	t     *tracer
}

func (tt *tracedTransport) Listen(addr string) (p2p.Listener, error) {
	l, err := tt.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, t: tt.t}, nil
}

func (tt *tracedTransport) Dial(addr string) (p2p.Conn, error) {
	c, err := tt.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: tt.t}, nil
}

type tracedListener struct {
	p2p.Listener
	t *tracer
}

func (l *tracedListener) Accept() (p2p.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t}, nil
}

type tracedConn struct {
	p2p.Conn
	t *tracer
}

func (c *tracedConn) Send(frame []byte) error {
	if !c.t.on.Load() {
		return c.Conn.Send(frame)
	}
	start := time.Now()
	err := c.Conn.Send(frame)
	c.t.child("p2p", "send", start, time.Now(), len(frame))
	c.t.mu.Lock()
	c.t.frames++
	c.t.frameBytes += len(frame)
	c.t.mu.Unlock()
	return err
}
