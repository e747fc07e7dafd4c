package main

// The in-path pass of the traced run: each workload again with ONE
// client, alternating short segments on two instances — one built
// without any wrapper, one built over the bench-owned wrappers — so
// that drift between the halves cancels. The wrapped instance yields
// the spans and the in-path layer metrics; the bare one yields the
// runtime.* metrics and the throughput the wrapped one is compared
// with (trace.overhead_frac).

import (
	"context"
	"sync"
	"time"

	"tinyevm/internal/store"
)

// Segment sizing: fsync cost on a shared disk shifts by tens of percent
// from one second to the next, so the two instances alternate as fast
// as the workload allows — segments of minSegment, or of segmentOps
// operations when the workload is slower than that, and never shorter
// than minSegmentOps operations even if that overruns the requested
// total (a cold start takes a third of a second).
const (
	minSegment    = 250 * time.Millisecond
	segmentOps    = 20
	minSegmentOps = 2.5
)

// segmentPlan splits total into pairs of equal (bare, wrapped) segments
// given the op rate the warm-up saw.
func segmentPlan(total time.Duration, opsPerSec float64) (pairs int, seg time.Duration) {
	seg = minSegment
	if opsPerSec > 0 {
		opTime := float64(time.Second) / opsPerSec
		if d := time.Duration(segmentOps * opTime); d > seg {
			seg = d
		}
		if seg > total/2 {
			seg = total / 2
		}
		if d := time.Duration(minSegmentOps * opTime); d > seg {
			seg = d
		}
	}
	pairs = int(total / (2 * seg))
	if pairs < 1 {
		return 1, seg
	}
	return pairs, total / time.Duration(2*pairs)
}

// pendingSampler is implemented by workloads that run on a service: the
// sum of ServiceStats.ShardPending right now.
type pendingSampler interface{ pending() int }

func pendingOps(d *deployment) int {
	st, err := d.svc.ServiceStats(context.Background())
	if err != nil {
		return 0
	}
	n := 0
	for _, p := range st.ShardPending {
		n += p
	}
	return n
}

// setupSharer is implemented by a workload whose expensive set-up product
// (recover's history snapshot) the wrapped instance can take from the
// bare one instead of building it again.
type setupSharer interface{ shareSetup(from workload) }

// oneClient pins a workload to a single closed-loop client, so that a
// span's parent is unambiguous.
type oneClient struct{ workload }

func (oneClient) clients() int { return 1 }

// inPathResult is what the in-path pass of one workload produced.
type inPathResult struct {
	layers  map[string]Metric
	spans   []Span
	dropped int
	// p50Ms is the bare instance's single-client median latency, the
	// figure the boundary pass's cost stack is compared with.
	p50Ms   float64
	failed  int
	wrong   []string
	attempt int
}

// runInPath runs the in-path pass for cfg.Workload over total time.
// between, when set, runs after every segment pair and is told how many
// pairs there are (the boundary pass interleaves its iterations there).
func runInPath(cfg *config, total time.Duration, between func(pairs int) error) (*inPathResult, error) {
	bare, err := newWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	defer bare.close()
	if err := bare.setup(cfg, nil); err != nil {
		return nil, err
	}
	tr := newTracer(cfg.Workload)
	wrapped, _ := newWorkload(cfg.Workload)
	if sh, ok := wrapped.(setupSharer); ok {
		sh.shareSetup(bare)
	}
	defer wrapped.close()
	if err := wrapped.setup(cfg, tr); err != nil {
		return nil, err
	}

	span := func(op func() (time.Duration, error)) (time.Duration, error) {
		id, start := tr.beginOp()
		lat, err := op()
		tr.endOp(id, start, cfg.Workload)
		return lat, err
	}
	warm := time.Duration(float64(total) / 2 * warmupFrac)
	tr.on.Store(true)
	stopSampler := samplePending(wrapped)

	res := &inPathResult{}
	agg := func(dst *window, w *window) {
		dst.measured += w.measured
		dst.okOps += w.okOps
		// rate stays the time-weighted mean over equal-length segments
		dst.rate = (dst.rate*float64(dst.measured-w.measured) + w.rate*float64(w.measured)) / float64(dst.measured)
		dst.attempted += w.attempted
		dst.errored += w.errored
		dst.cpu += w.cpu
		dst.mallocs += w.mallocs
		dst.allocKB += w.allocKB
		dst.gcCPU += w.gcCPU
		dst.lat.merge(&w.lat)
		if w.gcPauseNs > dst.gcPauseNs {
			dst.gcPauseNs = w.gcPauseNs
		}
		if dst.firstErr == nil {
			dst.firstErr = w.firstErr
		}
	}
	var bareWin, wrapWin window
	var ratios []float64
	warmBare := measure(oneClient{bare}, warm, 0, nil)
	warmWrap := measure(oneClient{wrapped}, warm, 0, span)
	res.attempt = warmBare.attempted + warmWrap.attempted
	res.failed = warmBare.errored + warmWrap.errored
	pairs, seg := segmentPlan(total, float64(warmBare.attempted)/warmBare.elapsed.Seconds())
	for i := 0; i < pairs && res.failed == 0; i++ {
		b := measure(oneClient{bare}, seg, 0, nil)
		w := measure(oneClient{wrapped}, seg, 0, span)
		agg(&bareWin, b)
		agg(&wrapWin, w)
		if b.rate > 0 {
			ratios = append(ratios, w.rate/b.rate)
		}
		res.failed += b.errored + w.errored
		if between != nil {
			if err := between(pairs); err != nil {
				return nil, err
			}
		}
	}
	pendingMean := stopSampler()
	tr.on.Store(false)

	res.attempt += bareWin.attempted + wrapWin.attempted
	res.wrong = append(bare.check(), wrapped.check()...)
	for _, w := range []*window{warmBare, warmWrap, &bareWin, &wrapWin} {
		if w.firstErr != nil {
			res.wrong = append(res.wrong, "first op error: "+w.firstErr.Error())
			break
		}
	}

	res.layers = runtimeMetrics(&bareWin)
	for k, v := range wrapped.layers(tr) {
		res.layers[k] = v
	}
	res.layers["service.pending_mean"] = Metric{Value: pendingMean, Unit: "count"}
	if len(ratios) > 0 {
		// The median over adjacent pairs of wrapped/bare throughput: each
		// pair shares one moment of the machine.
		res.layers["trace.overhead_frac"] = Metric{Value: 1 - median(ratios), Unit: "ratio", Samples: len(ratios)}
	}
	res.p50Ms = bareWin.lat.p50() / 1e6
	tr.mu.Lock()
	res.spans, res.dropped = tr.spans, int(tr.dropped.Load())
	tr.mu.Unlock()
	return res, nil
}

// samplePending samples the wrapped instance's pending-op count at
// 100 Hz until the returned stop function is called; stop returns the
// mean.
func samplePending(w workload) (stop func() float64) {
	ps, ok := w.(pendingSampler)
	if !ok {
		return func() float64 { return 0 }
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var sum, n float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				sum += float64(ps.pending())
				n++
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		if n == 0 {
			return 0
		}
		return sum / n
	}
}

// storeLayers are the in-path store metrics of whatever the wrapped
// store saw.
func storeLayers(tr *tracer) map[string]Metric {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	m := map[string]Metric{}
	if tr.putLat.n == 0 {
		return m
	}
	m["store.put_p50_us"] = Metric{Value: tr.putLat.p50() / 1e3, Unit: "us", Samples: tr.putLat.n}
	m["store.put_max_ms"] = Metric{Value: float64(tr.putLat.max) / 1e6, Unit: "ms", Samples: tr.putLat.n}
	return m
}

// rpcLayers are the in-path gateway metrics.
func rpcLayers(tr *tracer) map[string]Metric {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	m := map[string]Metric{}
	if tr.serveLat.n > 0 {
		m["rpc.serve_us"] = Metric{Value: tr.serveLat.p50() / 1e3, Unit: "us", Samples: tr.serveLat.n}
	}
	if tr.requestLat.n > 0 {
		m["rpc.request_us"] = Metric{Value: tr.requestLat.p50() / 1e3, Unit: "us", Samples: tr.requestLat.n}
	}
	if tr.payReqN > 0 {
		m["rpc.req_bytes_pay"] = Metric{Value: float64(tr.payReqB) / float64(tr.payReqN), Unit: "B", Samples: tr.payReqN}
		m["rpc.resp_bytes_pay"] = Metric{Value: float64(tr.payRespB) / float64(tr.payReqN), Unit: "B", Samples: tr.payReqN}
	}
	return m
}

// diskLayers are the disk backend's in-path vitals at the end of the
// pass: flushes and compactions since open, the worst batch commit (the
// foreground stall a flush causes), and space amplification — directory
// size over live user bytes.
func diskLayers(tr *tracer, d *deployment, dir string) map[string]Metric {
	m := map[string]Metric{}
	if st, ok := d.storeStats(); ok {
		m["store.disk_flushes"] = Metric{Value: float64(st.Flushes), Unit: "count"}
		m["store.disk_compactions"] = Metric{Value: float64(st.Compactions), Unit: "count"}
	}
	tr.mu.Lock()
	m["store.disk_batch_max_ms"] = Metric{Value: float64(tr.batchMaxNs) / 1e6, Unit: "ms"}
	tr.mu.Unlock()
	if d.inner != nil {
		if amp, ok := spaceAmplification(d.inner, dir); ok {
			m["store.disk_bytes_per_user_byte"] = Metric{Value: amp, Unit: "ratio"}
		}
	}
	return m
}

func spaceAmplification(kv store.KVStore, dir string) (float64, bool) {
	var user int64
	err := kv.Iterate(nil, func(k, v []byte) error {
		user += int64(len(k) + len(v))
		return nil
	})
	if err != nil || user == 0 {
		return 0, false
	}
	onDisk := dirSize(dir)
	return float64(onDisk) / float64(user), true
}
