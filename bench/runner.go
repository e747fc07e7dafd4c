package main

// The closed-loop load generator shared by every workload. A device
// cannot send payment n+1 on a channel before it holds the ack for n
// (per-channel logical-clock sequence numbers), so callers that wait
// for a reply are the real traffic: each client goroutine issues its
// next operation only after the previous one returned. Generator and
// system share one process, so generator cost is inside cpu_ms_per_op.

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// procStart approximates process start (package init runs before main);
// setup_s is measured from here.
var procStart = time.Now()

// warmupFrac is the share of every timed window that is discarded.
const warmupFrac = 0.10

const (
	// sliceLen is the shortest slice of the measured part: a client closes
	// its current slice at its first completion at least this long after
	// the slice began, so a slice holds whole ops only (one, when an op
	// takes longer than this).
	sliceLen = 100 * time.Millisecond
	// quietFrac picks the quiet-host figures: the value a twentieth of the
	// way in from the favourable end of the slices, a minimum with the
	// luck taken out. minSlices is the fewest slices that have such a value.
	quietFrac = 0.05
	minSlices = 20
)

// config is one workload run's parameters.
type config struct {
	Workload string
	Seed     int64
	// Window is the whole timed loop, warm-up share included.
	Window time.Duration
	// Sessions is the length of the recover workload's fixed history.
	Sessions int
	// Scratch is the directory data dirs are created under; it sits on
	// the checkout's filesystem so fsync means what it means there.
	Scratch string
	// Quick selects the self-test sizes: a 4-pair payment fleet and one
	// set-up repetition (the passes' own sizes come from layerPassSize).
	Quick bool
}

// workload is one named benchmark workload. A value is single-use:
// setup, any number of measure calls driving op, check, close.
type workload interface {
	// clients is the number of closed-loop client goroutines.
	clients() int
	// setup builds the fleet. With a tracer the instance is built over
	// the bench-owned wrappers; without, in the daemon's default shape.
	setup(cfg *config, tr *tracer) error
	// op runs one operation for client c and returns the latency that
	// client saw (workloads with untimed parts exclude them).
	op(c int) (time.Duration, error)
	// check verifies the outputs after the last window and returns one
	// line per wrong result (nil: all correct).
	check() []string
	// layers reports the in-path metrics this workload exercises, from
	// the tracer's counters and its own (traced instances only).
	layers(tr *tracer) map[string]Metric
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "pay_durable":
		return &payWL{}, nil
	case "call_mem":
		return &callWL{}, nil
	case "call_durable":
		return &callWL{durable: true}, nil
	case "session_onchain":
		return &sessionWL{}, nil
	case "recover":
		return &recoverWL{}, nil
	case "cluster_replicate":
		return &clusterWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// generatorClients is the client-count rule: min(nproc, 4). More would
// measure the scheduler, not the system.
func generatorClients() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// sliceRec is one slice of one client's timeline: at least sliceLen of
// the measured part, from one of the client's completions to a later one.
type sliceRec struct {
	dur time.Duration
	ops int64         // completions of every client over dur
	cpu time.Duration // process CPU over dur
	p50 float64       // median latency of this client's ops in it, ns
}

// clientLog is what one client goroutine recorded.
type clientLog struct {
	// done counts the same ops as lat, for the other clients to read
	// while the window runs.
	done      atomic.Int64
	slices    []sliceRec
	attempted int
	lat       hist // ops acknowledged OK inside the measured part
	// first and last are when the first and the last of them completed.
	first, last time.Duration
	err         error
}

// rate is a client's OK ops per second over the measured part: its
// completions per unit time between the first and the last of them —
// ops / window without the +-1 op edge effect, which would be 4 % of a
// workload doing three ops a second. A client with a single completion
// has no such interval and falls back to ops / window.
func (l *clientLog) rate(measured time.Duration) float64 {
	if l.lat.n >= 2 && l.last > l.first {
		return float64(l.lat.n-1) / (l.last - l.first).Seconds()
	}
	return float64(l.lat.n) / measured.Seconds()
}

// window is what one timed loop observed.
type window struct {
	measured  time.Duration
	elapsed   time.Duration // loop start until the last client returned
	attempted int           // every op issued, warm-up included
	errored   int           // every op that returned an error
	okOps     int           // ops acknowledged OK inside the measured part
	rate      float64       // OK ops per second, summed over clients
	lat       hist          // their latencies
	slices    []sliceRec    // every client's slices
	cpu       time.Duration
	mallocs   uint64
	allocKB   float64
	gcPauseNs uint64
	gcCPU     float64 // GC CPU seconds
	firstErr  error
}

// ops is the number of operations the measured interval's CPU and
// allocations paid for: rate x length, fractional ops included.
func (w *window) ops() float64 { return w.rate * w.measured.Seconds() }

type resourceSnap struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauses  [256]uint64
	gcCPU   float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss (kilobytes on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func snapResources() resourceSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := resourceSnap{cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC, pauses: ms.PauseNs}
	sm := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sm)
	if sm[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = sm[0].Value.Float64()
	}
	return s
}

// measure drives w.op from w.clients() goroutines for total, discards
// the first warm share of it, and reports what the clients saw. wrap,
// when set, brackets every op (the traced pass opens its op span there).
func measure(w workload, total time.Duration, warm float64, wrap func(op func() (time.Duration, error)) (time.Duration, error)) *window {
	n := w.clients()
	warmup := time.Duration(float64(total) * warm)
	logs := make([]clientLog, n)
	start := time.Now()

	// Resource snapshots are taken at the window's own boundaries, not
	// after the stragglers drain, so CPU and allocations cover exactly
	// the measured interval.
	measured := total - warmup
	var before, after resourceSnap
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		time.Sleep(time.Until(start.Add(warmup)))
		before = snapResources()
		time.Sleep(time.Until(start.Add(total)))
		after = snapResources()
	}()

	allDone := func() (sum int64) {
		for i := range logs {
			sum += logs[i].done.Load()
		}
		return sum
	}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := &logs[c]
			op := func() (time.Duration, error) { return w.op(c) }
			// The open slice: where it began, and the completion count and
			// process CPU time read there.
			var (
				cur      = new(hist)
				open     bool
				began    time.Duration
				beganOps int64
				beganCPU time.Duration
			)
			for time.Since(start) < total {
				var lat time.Duration
				var err error
				if wrap != nil {
					lat, err = wrap(op)
				} else {
					lat, err = op()
				}
				log.attempted++
				if err != nil {
					// A failing system is not worth hammering for the
					// whole window: the client stops at its first error.
					log.err = err
					break
				}
				if end := time.Since(start); end >= warmup && end < total {
					if log.lat.n == 0 {
						log.first = end
					}
					log.last = end
					log.lat.add(lat.Nanoseconds())
					log.done.Add(1)
					switch {
					case !open:
						open, began, beganOps, beganCPU = true, end, allDone(), cpuTime()
					default:
						cur.add(lat.Nanoseconds())
						if end-began >= sliceLen {
							ops, cpu := allDone(), cpuTime()
							log.slices = append(log.slices, sliceRec{dur: end - began, ops: ops - beganOps, cpu: cpu - beganCPU, p50: cur.p50()})
							began, beganOps, beganCPU = end, ops, cpu
							*cur = hist{}
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	snapWG.Wait()

	win := &window{measured: measured, elapsed: elapsed}
	for i := range logs {
		log := &logs[i]
		win.attempted += log.attempted
		if log.err != nil {
			win.errored++
			if win.firstErr == nil {
				win.firstErr = log.err
			}
		}
		win.lat.merge(&log.lat)
		win.slices = append(win.slices, log.slices...)
		win.rate += log.rate(measured)
	}
	win.okOps = win.lat.n
	win.cpu = after.cpu - before.cpu
	win.mallocs = after.mallocs - before.mallocs
	win.allocKB = float64(after.bytes-before.bytes) / 1024
	win.gcCPU = after.gcCPU - before.gcCPU
	for gc := before.numGC; gc != after.numGC && gc-before.numGC < 256; gc++ {
		// PauseNs is a ring indexed by (NumGC+255)%256 for the latest.
		if p := after.pauses[gc%256]; p > win.gcPauseNs {
			win.gcPauseNs = p
		}
	}
	return win
}

// result is one workload's report.
type result struct {
	Workload    string            `json:"workload"`
	Clients     int               `json:"clients"`
	WindowS     float64           `json:"window_s"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Correct     bool              `json:"correct"`
	CheckErrors []string          `json:"check_errors,omitempty"`
	Metrics     map[string]Metric `json:"metrics"`
	Layers      map[string]Metric `json:"layers,omitempty"`
}

// endToEndMetrics turns a window into the named end-to-end metrics,
// each over the whole measured part: OK ops per second, the median (and
// higher percentiles, where the sample count supports them) of every
// op's latency, and CPU over ops. Whatever the system does now and then
// inside the window — a memtable flush, a compaction, a checkpoint, a GC
// cycle — is therefore in throughput and CPU per op in proportion to
// what it cost, and in the percentiles above the median.
func endToEndMetrics(win *window, setup time.Duration, wrong int) map[string]Metric {
	m := map[string]Metric{
		"setup_s":     {Value: setup.Seconds(), Unit: "s"},
		"peak_rss_mb": {Value: peakRSSMB(), Unit: "MB"},
	}
	if win.attempted > 0 {
		m["failed_frac"] = Metric{Value: float64(win.errored+wrong) / float64(win.attempted), Unit: "ratio", Samples: win.attempted}
	}
	if win.okOps == 0 {
		return m
	}
	m["throughput_ops_s"] = Metric{Value: win.rate, Unit: "1/s", Samples: win.okOps}
	m["latency_p50_ms"] = Metric{Value: win.lat.p50() / 1e6, Unit: "ms", Samples: win.okOps}
	m["cpu_ms_per_op"] = Metric{Value: win.cpu.Seconds() * 1e3 / win.ops(), Unit: "ms", Samples: win.okOps}
	for _, pc := range []struct {
		name string
		p    float64
	}{{"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}} {
		if v, ok := win.lat.quantile(pc.p); ok {
			m[pc.name] = Metric{Value: v / 1e6, Unit: "ms", Samples: win.okOps}
		}
	}
	if q, ok := quietOf(win.slices); ok {
		m["quiet_ops_s"] = Metric{Value: q.opsS, Unit: "1/s", Samples: len(win.slices)}
		m["quiet_latency_ms"] = Metric{Value: q.latMs, Unit: "ms", Samples: len(win.slices)}
		m["quiet_cpu_ms_per_op"] = Metric{Value: q.cpuMs, Unit: "ms", Samples: len(win.slices)}
	}
	return m
}

// quiet holds the quiet-host figures of a window.
type quiet struct{ opsS, latMs, cpuMs float64 }

// quietOf reads, from the slices of a window, what the system does while
// the host leaves it alone: ops per second, median latency and CPU per
// op, each taken quietFrac of the way in from its favourable end. The
// sandbox's host slows whole runs by 20-35 % for tens of seconds at a
// time (README.md, "Drift"), so the whole-window figures of two runs of
// one binary differ by more than any bound; the best slices of a run
// differ far less, because every run of twenty seconds meets some quiet
// moments. What the system does only now and then — a flush, a
// compaction, a checkpoint — is by the same token NOT in these three;
// it is in the whole-window metrics beside them.
func quietOf(slices []sliceRec) (quiet, bool) {
	if len(slices) < minSlices {
		return quiet{}, false
	}
	rate := make([]float64, len(slices))
	lat := make([]float64, len(slices))
	cpu := make([]float64, len(slices))
	for i, s := range slices {
		rate[i] = float64(s.ops) / s.dur.Seconds()
		lat[i] = s.p50 / 1e6
		cpu[i] = s.cpu.Seconds() * 1e3 / float64(s.ops)
	}
	return quiet{opsS: quietValue(rate, true), latMs: quietValue(lat, false), cpuMs: quietValue(cpu, false)}, true
}

// quietValue sorts values and returns the one quietFrac of the way in
// from the high end or from the low end.
func quietValue(values []float64, high bool) float64 {
	sort.Float64s(values)
	i := int(quietFrac * float64(len(values)))
	if high {
		i = len(values) - 1 - i
	}
	return values[i]
}

// runtimeMetrics are the per-workload runtime.* layer metrics, from the
// MemStats deltas of a window with no wrappers in the path.
func runtimeMetrics(win *window) map[string]Metric {
	m := map[string]Metric{
		"runtime.gc_pause_max_ms": {Value: float64(win.gcPauseNs) / 1e6, Unit: "ms"},
	}
	if win.rate > 0 {
		m["runtime.allocs_per_op"] = Metric{Value: float64(win.mallocs) / win.ops(), Unit: "count", Samples: win.okOps}
		m["runtime.alloc_kb_per_op"] = Metric{Value: win.allocKB / win.ops(), Unit: "kB", Samples: win.okOps}
	}
	if win.cpu > 0 {
		m["runtime.gc_cpu_frac"] = Metric{Value: win.gcCPU / win.cpu.Seconds(), Unit: "ratio"}
	}
	return m
}

// setupMedian builds the workload and reports set-up time as
// process start -> ready. A cheap set-up is repeated (up to setupReps
// times or setupBudget in total) and the median taken, so that a 10 ms
// figure is not one scheduler hiccup or one 100 ms burst of the host; a
// set-up that already takes seconds (recover builds a 100-session
// history) is a long measurement by itself.
func setupMedian(name string, cfg *config) (workload, time.Duration, error) {
	const (
		setupReps   = 51
		setupBudget = 1500 * time.Millisecond
	)
	preamble := time.Since(procStart)
	var times []float64
	var spent time.Duration
	for {
		w, err := newWorkload(name)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		if err := w.setup(cfg, nil); err != nil {
			w.close()
			return nil, 0, fmt.Errorf("%s set-up: %w", name, err)
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		spent += d
		if cfg.Quick || len(times) == setupReps || spent+d > setupBudget {
			return w, preamble + time.Duration(median(times)*float64(time.Second)), nil
		}
		w.close()
	}
}

// runUntraced is the pass that produces the end-to-end numbers: no
// wrapper anywhere in the path.
func runUntraced(cfg *config) (*result, error) {
	w, setup, err := setupMedian(cfg.Workload, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	win := measure(w, cfg.Window, warmupFrac, nil)
	wrong := w.check()
	res := &result{
		Workload:    cfg.Workload,
		Clients:     w.clients(),
		WindowS:     win.measured.Seconds(),
		Attempted:   win.attempted,
		Failed:      win.errored + len(wrong),
		CheckErrors: wrong,
		Metrics:     endToEndMetrics(win, setup, len(wrong)),
		Layers:      runtimeMetrics(win),
	}
	if win.firstErr != nil {
		res.CheckErrors = append(res.CheckErrors, "first op error: "+win.firstErr.Error())
	}
	if win.okOps == 0 && win.firstErr == nil {
		res.CheckErrors = append(res.CheckErrors, fmt.Sprintf(
			"no op completed in the measured %.2f s: the window is too short for this workload on this machine", win.measured.Seconds()))
	}
	res.Correct = res.Failed == 0 && win.okOps > 0
	return res, nil
}
