package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPercentileRefusesThinTail: the harness's one percentile, the
// histogram's, refuses a figure with fewer than ten samples beyond it.
func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},   // exactly ten beyond
		{99, 0.90, 90, false},   // nine beyond
		{1000, 0.99, 990, true}, // exactly ten beyond
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{5, 0.50, 3, false},
		{0, 0.50, 0, false},
	} {
		var h hist
		for i := 1; i <= c.n; i++ {
			h.add(int64(i) * 1000)
		}
		got, ok := h.quantile(c.p)
		if got < c.want*990 || got > c.want*1010 || ok != c.ok {
			t.Errorf("quantile(n=%d, p=%.2f) = %v, %v; want %v within 1 %%, %v", c.n, c.p, got, ok, c.want*1000, c.ok)
		}
	}
}

// TestQuietOf: the quiet-host figures are the values a twentieth of the
// way in from the favourable end of the slices, and fewer than twenty
// slices have no such value.
func TestQuietOf(t *testing.T) {
	if _, ok := quietOf(make([]sliceRec, minSlices-1)); ok {
		t.Errorf("quiet-host figures from %d slices", minSlices-1)
	}
	var slices []sliceRec
	for i := 39; i >= 0; i-- {
		// 100+i ops in one second, median latency i+1 ms, (i+1)/10 ms of CPU per op
		ops := int64(100 + i)
		slices = append(slices, sliceRec{dur: time.Second, ops: ops, p50: float64(i+1) * 1e6,
			cpu: time.Duration(ops) * time.Duration(i+1) * 100 * time.Microsecond})
	}
	q, ok := quietOf(slices)
	if !ok || q.opsS != 137 || q.latMs != 3 || q.cpuMs < 0.2999 || q.cpuMs > 0.3001 {
		t.Errorf("quietOf = %+v, %v; want 137 ops/s, 3 ms, 0.3 ms of CPU per op", q, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v", q1, q3, median(v))
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of three = %v, %v", q1, q3)
	}
	if got := spread(v); got != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestSelfTimeClampsAndFlags(t *testing.T) {
	if v, clamped := selfTime(10, 4); v != 6 || clamped {
		t.Fatalf("selfTime(10, 4) = %v, %v", v, clamped)
	}
	if v, clamped := selfTime(4, 10); v != 0 || !clamped {
		t.Fatalf("a negative self time must clamp to 0 and say so; got %v, %v", v, clamped)
	}
}

func TestVerdicts(t *testing.T) {
	tput, _ := endToEndDef("throughput_ops_s") // higher is better, bound 25 %
	lat, _ := endToEndDef("latency_p50_ms")    // lower is better
	failed, _ := endToEndDef("failed_frac")
	setup, _ := endToEndDef("setup_s")
	tight := func(center float64) side {
		return newSide([]float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005})
	}
	wide := func(center float64) side {
		return newSide([]float64{center * 0.6, center * 0.8, center, center * 1.2, center * 1.4})
	}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b side
		want string
	}{
		{"tput same", tput, tight(100), tight(90), "same"},
		{"tput worse", tput, tight(100), tight(60), "worse"},
		{"tput better", tput, tight(100), tight(140), "better"},
		{"latency worse", lat, tight(10), tight(14), "worse"},
		{"latency better", lat, tight(10), tight(6), "better"},
		{"spread wider than bound, sides overlap", tput, wide(100), wide(90), "unresolved"},
		{"wide but disjoint", tput, wide(100), tight(300), "better"},
		{"failed_frac any increase", failed, newSide([]float64{0, 0, 0}), newSide([]float64{0, 0.001, 0}), "worse"},
		{"failed_frac zero both", failed, newSide([]float64{0, 0}), newSide([]float64{0, 0}), "same"},
		{"setup under the absolute floor", setup, tight(0.05), tight(0.2), "same"},
		{"setup beyond both", setup, tight(8), tight(11.5), "worse"},
	} {
		if got, _ := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestNormalizeTrace(t *testing.T) {
	for _, c := range []struct {
		in   string
		want bool
	}{
		{"--workload call_mem --seed 3 --seconds 2 --trace 0", false},
		{"--workload call_mem --seed 3 --seconds 2 --trace 1", true},
		{"-workload call_mem -trace", true},
		{"-trace -workload call_mem", true},
		{"-workload call_mem", false},
	} {
		o, err := parseFlags(strings.Fields(c.in))
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if o.trace != c.want || o.workload != "call_mem" {
			t.Errorf("%q: trace=%v workload=%q", c.in, o.trace, o.workload)
		}
	}
	if _, err := parseFlags([]string{"-workload", "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// benchmarkJSON mirrors the contract's schema of /BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalogue keeps /BENCHMARK.json and the
// harness's own metric catalogue in step: same workloads, the driver's
// end-to-end metrics with the same unit, direction and bound, and every
// per-layer metric.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var listed []string
	for _, spec := range workloads {
		if spec.driver {
			listed = append(listed, spec.name)
		}
	}
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("workloads %v, the harness marks %v for the driver", names, listed)
	}
	var want []metricDef
	hasSetup := false
	for _, d := range endToEnd {
		if d.Driver {
			want = append(want, d)
		}
	}
	if len(bj.EndToEnd) != len(want) {
		t.Fatalf("end_to_end has %d metrics, the catalogue marks %d for the driver", len(bj.EndToEnd), len(want))
	}
	for i, m := range bj.EndToEnd {
		d := want[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("per_layer has %d metrics, the catalogue %d", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("duplicate metric %s", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestClientRNGSeeded(t *testing.T) {
	draw := func(r *rand.Rand) []int {
		out := make([]int, 16)
		for i := range out {
			out[i] = r.Intn(9)
		}
		return out
	}
	a, b, c := draw(clientRNG(1, 0)), draw(clientRNG(1, 0)), draw(clientRNG(2, 0))
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed must generate the same inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("a different seed must change the generated amounts")
	}
	if reflect.DeepEqual(a, draw(clientRNG(1, 1))) {
		t.Error("clients of one run must not share a stream")
	}
}

func testScratch(t *testing.T) string {
	t.Helper()
	dir, err := scratchRoot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// quickUntraced runs one workload's untraced pass at the -quick sizes
// with a window sized by op count, not by the clock: it starts at 0.25 s
// and doubles until at least one op completes in the measured part, so
// the test passes on a loaded or race-instrumented machine too.
func quickUntraced(t *testing.T, o *options, name, scratch string) *result {
	t.Helper()
	for window := 250 * time.Millisecond; ; window *= 2 {
		cfg := o.config(name, scratch)
		cfg.Window = window
		res, err := runUntraced(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, measured := res.Metrics["throughput_ops_s"]; measured || res.Failed > 0 || window > 30*time.Second {
			return res
		}
	}
}

// TestQuickPass runs the -quick sizes (short windows, 10-session
// history, 4-pair fleet) of all six workloads, untraced and traced, one
// after the other — they are timed, so nothing else may run beside them
// — and requires every named metric to be emitted with its unit.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short")
	}
	o := &options{seed: 1, quick: true, seconds: 0.25, runs: 1}
	scratch := testScratch(t)
	layers := map[string]Metric{}
	for _, spec := range workloads {
		res := quickUntraced(t, o, spec.name, scratch)
		if !res.Correct {
			t.Fatalf("%s untraced: %d failed of %d: %v", spec.name, res.Failed, res.Attempted, res.CheckErrors)
		}
		for _, name := range []string{"setup_s", "throughput_ops_s", "latency_p50_ms", "failed_frac", "cpu_ms_per_op", "peak_rss_mb"} {
			def, _ := endToEndDef(name)
			m, ok := res.Metrics[name]
			if !ok || m.Unit != def.Unit || (m.Value <= 0 && name != "failed_frac") {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", spec.name, name, m, ok, def.Unit)
			}
		}
		if res.Metrics["failed_frac"].Value != 0 {
			t.Errorf("%s: failed_frac %v", spec.name, res.Metrics["failed_frac"].Value)
		}
		if spec.name == "call_mem" {
			for _, name := range []string{"latency_p90_ms", "latency_p99_ms"} {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("call_mem has thousands of samples but no %s", name)
				}
			}
		}
		if n := res.Metrics["latency_p50_ms"].Samples; n < 100 {
			if _, ok := res.Metrics["latency_p90_ms"]; ok {
				t.Errorf("%s printed a p90 from %d samples", spec.name, n)
			}
		}

		tr, err := runTracedWorkload(o, o.config(spec.name, scratch), "", false)
		if err != nil {
			t.Fatalf("%s traced: %v", spec.name, err)
		}
		if !tr.Result.Correct {
			t.Fatalf("%s traced: %v", spec.name, tr.Result.CheckErrors)
		}
		for _, part := range []map[string]Metric{tr.Result.Layers, tr.Boundary} {
			for k, v := range part {
				layers[k] = v
			}
		}
		for _, st := range tr.Stacks {
			var sum float64
			for _, e := range st.Entries {
				if e.Us < 0 {
					t.Errorf("%s stack: negative self time %s = %v", st.Op, e.Name, e.Us)
				}
				sum += e.Us
			}
			if sum != st.SumUs || st.SumUs < st.OuterUs*0.999 {
				t.Errorf("%s stack sums to %v (entries %v), outer boundary %v", st.Op, st.SumUs, sum, st.OuterUs)
			}
		}
	}
	micro, err := runMicro(o.config("micro", scratch), o.layerPass())
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range micro {
		layers[k] = v
	}
	for _, def := range perLayer {
		m, ok := layers[def.Name]
		if !ok {
			// 90th percentile of the apply lag needs 100 blocks; a 0.2 s
			// segment budget replicates a dozen.
			if def.Name == "cluster.apply_lag_p90_us" {
				continue
			}
			t.Errorf("per-layer metric %s was not emitted", def.Name)
			continue
		}
		if m.Unit != def.Unit {
			t.Errorf("%s emitted with unit %q, want %q", def.Name, m.Unit, def.Unit)
		}
	}
	if v := layers["cluster.hash_mismatches"].Value; v != 0 {
		t.Errorf("cluster.hash_mismatches = %v", v)
	}
	if v := layers["journal.puts_per_op"].Value; v != 1 {
		t.Errorf("journal.puts_per_op = %v, want exactly 1", v)
	}
	if v := layers["recover.ckpt_height"].Value; v != 2*quickCheckpointInterval {
		t.Errorf("recover.ckpt_height = %v: the quick history must restore from a checkpoint", v)
	}
}

// countsFor gathers the metrics a count-based claim may rest on: the
// boundary pass's journal figures and one cold start's recovery facts.
func countsFor(seed int64, scratch string) (map[string]float64, error) {
	o := &options{seed: seed, quick: true, runs: 1}
	cfg := o.config("recover", scratch)
	b, err := newBoundary(cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := b.payIters(recordProbe / durablePaysPerIter); err != nil {
		return nil, err
	}
	if err := b.callIters(recordProbe / callBatch); err != nil {
		return nil, err
	}
	layers, _, err := b.finish()
	if err != nil {
		return nil, err
	}
	w := &recoverWL{}
	if err := w.setup(cfg, newTracer("recover")); err != nil {
		return nil, err
	}
	if _, err := w.op(0); err != nil {
		return nil, err
	}
	for k, v := range w.layers(w.tr) {
		layers[k] = v
	}
	out := map[string]float64{}
	for _, name := range []string{"journal.record_bytes_pay", "journal.record_bytes_call", "journal.puts_per_op",
		"recover.replayed_ops", "recover.ckpt_height"} {
		m, ok := layers[name]
		if !ok {
			return nil, fmt.Errorf("seed %d: %s missing", seed, name)
		}
		out[name] = m.Value
	}
	return out, nil
}

// TestCountsRepeatExactly: the same seed twice gives identical counts,
// and a different seed — which changes the generated amounts and order
// — does not change their per-op values. Counts do not depend on how
// fast anything ran, so the three builds run side by side.
func TestCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds recover histories; skipped in -short")
	}
	seeds := []int64{1, 1, 2}
	counts := make([]map[string]float64, len(seeds))
	errs := make([]error, len(seeds))
	scratch := testScratch(t)
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			counts[i], errs[i] = countsFor(seed, scratch)
		}(i, seed)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Errorf("same seed, different counts:\n%v\n%v", counts[0], counts[1])
	}
	if !reflect.DeepEqual(counts[0], counts[2]) {
		t.Errorf("another seed changed per-op counts:\n%v\n%v", counts[0], counts[2])
	}
	if counts[0]["recover.replayed_ops"] == 0 {
		t.Error("recover replayed nothing")
	}
}

func TestResultFileRoundTripAndCompare(t *testing.T) {
	dir := t.TempDir()
	mk := func(scale float64, fs string) string {
		f := &resultFile{Env: environment{Nproc: 2, GOMAXPROCS: 2, GoVersion: "go", Clients: 2, DataDirFS: fs,
			WindowsS: map[string]float64{"call_mem": 10}}}
		for run := 1; run <= 5; run++ {
			jitter := 1 + 0.01*float64(run-3)
			f.Runs = append(f.Runs, &runRecord{Run: run, Workloads: map[string]*result{"call_mem": {
				Workload: "call_mem", Correct: true,
				Metrics: map[string]Metric{
					"throughput_ops_s": {Value: 1000 * scale * jitter, Unit: "1/s"},
					"failed_frac":      {Value: 0, Unit: "ratio"},
				},
				Layers: map[string]Metric{"runtime.allocs_per_op": {Value: 26, Unit: "count"}},
			}}})
		}
		path := filepath.Join(dir, fs+time.Now().Format("150405.000000000")+".json")
		if err := writeResultFile(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := mk(1, "ext4"), mk(0.5, "ext4")
	var out strings.Builder
	if err := compareMain([]string{a, b}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"throughput_ops_s", "worse", "0.500 (A = 1000)", "exact", "1 worse"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
	out.Reset()
	if err := compareMain([]string{a, mk(1, "tmpfs")}, &out); err == nil {
		t.Error("files from different filesystems were compared")
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(int64(i) * 1000) // 1..1000 us
	}
	for _, c := range []struct {
		p    float64
		want float64
		ok   bool
	}{{0.5, 500e3, true}, {0.9, 900e3, true}, {0.99, 990e3, true}, {0.995, 995e3, false}} {
		got, ok := h.quantile(c.p)
		if ok != c.ok || got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("quantile(%v) = %v, %v; want %v within 1 %%, %v", c.p, got, ok, c.want, c.ok)
		}
	}
	// Bucket arithmetic: every value lands in a bucket that contains it,
	// and buckets are contiguous.
	for _, v := range []int64{0, 1, 255, 256, 257, 511, 512, 1 << 20, 1<<20 + 12345, 1 << 40} {
		low, width := histBounds(histIndex(v))
		if float64(v) < low || float64(v) >= low+width || width > float64(v)/100+1 {
			t.Errorf("value %d in bucket [%v, %v)", v, low, low+width)
		}
	}
	var one hist
	one.add(7)
	if v, ok := one.quantile(0.5); ok || v < 7 || v >= 8 {
		t.Errorf("single sample: %v, %v", v, ok)
	}
}
