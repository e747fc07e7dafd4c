// Command bench is the repo's one benchmark: six named workloads, eight
// end-to-end metrics, and an outside-in cost stack per layer. It
// measures every layer from outside — through public functions and the
// public seams that accept a caller-supplied implementation — and
// claims no gain: every later performance claim names one metric and one
// workload from here. See README.md.
//
//	go run -C bench .                      full untraced pass, all workloads
//	go run -C bench . -trace               traced pass: per-layer metrics + trace.json
//	go run -C bench . -workload call_mem   one workload (prints the driver's JSON line)
//	go run -C bench . -runs 5 -out a.json  five passes, alternating order, all stored
//	go run -C bench . compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// workloadSpec fixes a workload's timed window: identical on every
// commit, so numbers from two commits compare. Why each workload exists
// is in README.md and /BENCHMARK.json.
type workloadSpec struct {
	name    string
	windowS int
	// driver marks the workloads /BENCHMARK.json lists for the build
	// driver. call_durable is not one of them: it is fsync-bound, the
	// sandbox's disk latency drifts by a factor of two within minutes, and
	// even its quiet-host figures spread by up to 25 % between identical
	// runs, which is the largest bound the driver's contract allows.
	driver bool
}

var workloads = []workloadSpec{
	{"pay_durable", 20, true},
	{"call_mem", 10, true},
	{"call_durable", 15, false},
	{"session_onchain", 25, true},
	{"recover", 20, true},
	{"cluster_replicate", 20, true},
}

const (
	// tracedWindowS is the in-path pass's total per workload (half on
	// the bare instance, half on the wrapped one).
	tracedWindowS  = 8
	defaultHistory = 100
	quickHistory   = 10
)

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func specOf(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	runs     int
	out      string
	traceOut string
	child    bool
	spanOut  string
}

// normalizeTrace lets -trace be written both as a bare switch and with
// a separate value (`--trace 0`, the build driver's form).
func normalizeTrace(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames(), ", ")+" (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for amounts, channel rotation order and contract mix")
	fs.Float64Var(&o.seconds, "seconds", 0, "override every workload's timed window (default: each workload's own fixed window)")
	fs.BoolVar(&o.trace, "trace", false, "run the traced pass (in-path, boundary and micro) instead of the end-to-end pass")
	fs.BoolVar(&o.quick, "quick", false, "self-test sizes: 1 s windows (recover 3 s), 10-session recover history checkpointed every 8 blocks, short micro pass")
	fs.IntVar(&o.runs, "runs", 1, "repeat the full pass N times, alternating workload order, and store every run")
	fs.StringVar(&o.out, "out", "", "write the result file (environment block + every run) here")
	fs.StringVar(&o.traceOut, "trace-out", "", "where the traced pass writes its spans (default trace.json; off for a single workload)")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload and print its full report as the last line")
	fs.StringVar(&o.spanOut, "span-out", "", "internal: where a child writes its spans")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "" {
		if _, ok := specOf(o.workload); !ok {
			return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
	}
	if o.seconds < 0 || o.runs < 1 {
		return nil, errors.New("-seconds must be >= 0 and -runs >= 1")
	}
	return o, nil
}

// windowFor is the timed window of a workload under these options.
func (o *options) windowFor(name string) time.Duration {
	switch {
	case o.seconds > 0:
		return time.Duration(o.seconds * float64(time.Second))
	case o.quick && name == "recover":
		// A cold start has an untimed copy before it and an untimed close
		// after it; 3 s holds a few dozen of them.
		return 3 * time.Second
	case o.quick:
		return time.Second
	}
	spec, _ := specOf(name)
	return time.Duration(spec.windowS) * time.Second
}

// tracedWindow is the in-path pass's total length for one workload: the
// fixed 8 s, or half the requested window when one is given, so a
// traced single-workload run costs about what an untraced one does.
func (o *options) tracedWindow() time.Duration {
	switch {
	case o.seconds > 0:
		return time.Duration(o.seconds * float64(time.Second) / 2)
	case o.quick:
		return time.Second
	}
	return tracedWindowS * time.Second
}

func (o *options) history() int {
	if o.quick {
		return quickHistory
	}
	return defaultHistory
}

// layerPassSize scales the boundary and micro passes: the full traced
// pass repeats every micro figure three times for >= 0.25 s and >= 100
// iterations; a single-workload run (the build driver's) and the
// self-test shrink that to fit their time box.
type layerPassSize struct {
	boundaryIters int
	repDur        time.Duration
	minIters      int
	reps          int
	heavyReps     int
	smallEngine   bool
}

func (o *options) layerPass() layerPassSize {
	switch {
	case o.quick:
		return layerPassSize{boundaryIters: recordProbe / durablePaysPerIter, repDur: 2 * time.Millisecond, minIters: 3, reps: 1, heavyReps: 1, smallEngine: true}
	case o.workload != "" || o.seconds > 0:
		return layerPassSize{boundaryIters: 30, repDur: 40 * time.Millisecond, minIters: 10, reps: 3, heavyReps: 1}
	}
	return layerPassSize{boundaryIters: 100, repDur: 250 * time.Millisecond, minIters: 100, reps: 3, heavyReps: 3}
}

// scratchRoot is where data directories go: .bench_tmp beside
// BENCHMARK.json (the checkout root, found by walking up from the
// working directory), so that fsync hits the checkout's filesystem and
// nothing is written outside the checkout.
func scratchRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	root := dir
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			root = d
			break
		}
		if filepath.Dir(d) == d {
			break
		}
	}
	tmp := filepath.Join(root, ".bench_tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmp, "run-")
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := compareMain(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
		return 0
	}
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	scratch, err := scratchRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	var ok bool
	switch {
	case o.workload != "":
		ok, err = runSingle(o, scratch, stdout, stderr)
	default:
		ok, err = runAll(o, scratch, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func (o *options) config(name, scratch string) *config {
	return &config{
		Workload: name, Seed: o.seed, Window: o.windowFor(name),
		Sessions: o.history(), Scratch: scratch, Quick: o.quick,
	}
}

// tracedReport is a single workload's traced pass.
type tracedReport struct {
	Result *result `json:"result"`
	// P50Ms is the bare instance's single-client median latency, which
	// the boundary pass's cost stack is compared with.
	P50Ms float64 `json:"single_client_p50_ms"`
	// Boundary holds the boundary-pass metrics and stacks this process
	// measured (see runTracedWorkload for which).
	Boundary map[string]Metric `json:"boundary,omitempty"`
	Stacks   []costStack       `json:"stacks,omitempty"`
}

// runTracedWorkload runs the in-path pass of one workload, and the
// boundary pass around it. The payment stack's iterations run between
// pay_durable's segments and the call stack's between call_durable's,
// because each is compared with that workload's latency and fsync cost
// drifts within seconds. all makes this process measure every boundary
// (a single-workload run); otherwise only the one its workload is
// compared with (the full pass takes each stack from its own child).
func runTracedWorkload(o *options, cfg *config, spanOut string, all bool) (*tracedReport, error) {
	size := o.layerPass()
	per := func(pairs int) int { return (size.boundaryIters + pairs - 1) / pairs }
	isPay, isCall := cfg.Workload == "pay_durable", cfg.Workload == "call_durable"
	var b *boundary
	var between func(pairs int) error
	if all || isPay || isCall {
		var err error
		if b, err = newBoundary(cfg); err != nil {
			return nil, fmt.Errorf("boundary pass: %w", err)
		}
		defer b.close()
		switch {
		case isPay:
			between = func(pairs int) error { return b.payIters(per(pairs)) }
		case isCall:
			between = func(pairs int) error { return b.callIters(per(pairs)) }
		}
	}
	in, err := runInPath(cfg, o.tracedWindow(), between)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: cfg.Workload, Clients: 1, WindowS: o.tracedWindow().Seconds(),
		Attempted: in.attempt, Failed: in.failed + len(in.wrong), CheckErrors: in.wrong,
		Metrics: map[string]Metric{}, Layers: in.layers,
	}
	res.Correct = res.Failed == 0 && in.attempt > 0
	if spanOut != "" {
		if err := writeTrace(spanOut, in.spans, in.dropped); err != nil {
			return nil, err
		}
	}
	rep := &tracedReport{Result: res, P50Ms: in.p50Ms}
	if b == nil {
		return rep, nil
	}
	if all && !isCall {
		err = b.callIters(size.boundaryIters)
	}
	if err == nil && all && !isPay {
		err = b.payIters(size.boundaryIters)
	}
	if err == nil && (all || isPay) {
		err = b.openCloseIters(size.boundaryIters/3 + 1)
	}
	if err != nil {
		return nil, fmt.Errorf("boundary pass: %w", err)
	}
	if rep.Boundary, rep.Stacks, err = b.finish(); err != nil {
		return nil, fmt.Errorf("boundary pass: %w", err)
	}
	return rep, nil
}

// driverLine is the contract's last stdout line.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// runSingle runs one workload in this process. As a child it prints its
// full report; otherwise it prints the build driver's line: with
// -trace=0 every end-to-end metric the driver bounds, with -trace=1
// every per-layer metric (0 with a note where this workload does not
// exercise the layer).
func runSingle(o *options, scratch string, stdout, stderr io.Writer) (bool, error) {
	cfg := o.config(o.workload, scratch)
	if !o.trace {
		res, err := runUntraced(cfg)
		if err != nil {
			return false, err
		}
		if o.child {
			return res.Correct, json.NewEncoder(stdout).Encode(res)
		}
		printWorkloadTable(stderr, []*result{res})
		printCheckErrors(stderr, res)
		line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]Metric{}}
		for _, d := range endToEnd {
			if !d.Driver {
				continue
			}
			m, ok := res.Metrics[d.Name]
			if !ok {
				line.Correct = false
				fmt.Fprintf(stderr, "bench: %s has too few samples for %s\n", o.workload, d.Name)
				continue
			}
			line.Metrics[d.Name] = Metric{Value: m.Value, Unit: m.Unit}
		}
		return line.Correct, json.NewEncoder(stdout).Encode(line)
	}

	spanOut := o.spanOut
	if spanOut == "" {
		spanOut = o.traceOut
	}
	tr, err := runTracedWorkload(o, cfg, spanOut, !o.child)
	if err != nil {
		return false, err
	}
	if o.child {
		return tr.Result.Correct, json.NewEncoder(stdout).Encode(tr)
	}
	layers, err := runMicro(cfg, o.layerPass())
	if err != nil {
		return false, fmt.Errorf("micro pass: %w", err)
	}
	for _, part := range []map[string]Metric{tr.Boundary, tr.Result.Layers} {
		for k, v := range part {
			layers[k] = v
		}
	}
	printLayerTable(stderr, o.workload, layers)
	printStacks(stderr, tr.Stacks, map[string]float64{o.workload: tr.P50Ms})
	printCheckErrors(stderr, tr.Result)
	line := driverLine{Correct: tr.Result.Correct, Attempted: tr.Result.Attempted, Failed: tr.Result.Failed, Metrics: map[string]Metric{}}
	for _, d := range perLayer {
		m, ok := layers[d.Name]
		if !ok {
			m = Metric{Unit: d.Unit}
		}
		line.Metrics[d.Name] = Metric{Value: m.Value, Unit: d.Unit}
	}
	return line.Correct, json.NewEncoder(stdout).Encode(line)
}

// runChild runs one workload in a fresh child process of this binary, so
// peak RSS, GC state and caches do not leak from one workload into the
// next, and decodes the report from the child's last stdout line.
func runChild(o *options, name string, extra []string, into any, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"-child", "-workload", name, "-seed", fmt.Sprint(o.seed)}
	if o.seconds > 0 {
		args = append(args, "-seconds", fmt.Sprint(o.seconds))
	}
	if o.quick {
		args = append(args, "-quick")
	}
	args = append(args, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), into); err != nil {
		if runErr != nil {
			return fmt.Errorf("workload %s: %w", name, runErr)
		}
		return fmt.Errorf("workload %s printed no report: %w", name, err)
	}
	return nil // a failed check is in the report; the caller decides
}

// runAll is the full pass: every workload, each in its own child, -runs
// times with alternating order.
func runAll(o *options, scratch string, stdout, stderr io.Writer) (bool, error) {
	start := time.Now()
	env := captureEnv(o, scratch)
	file := &resultFile{Env: env}
	allOK := true
	var spans []Span
	dropped := 0
	for run := 1; run <= o.runs; run++ {
		runStart := time.Now()
		order := workloadNames()
		if run%2 == 0 {
			// Alternate the order so that whatever drifts over a pass
			// (page cache, thermal state) does not always hit the same
			// workload.
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		rec := &runRecord{Run: run, Order: order, Traced: o.trace, Workloads: map[string]*result{}}
		p50 := map[string]float64{}
		boundaryLayers := map[string]Metric{}
		for _, name := range order {
			fmt.Fprintf(stderr, "run %d/%d: %s ...\n", run, o.runs, name)
			if !o.trace {
				var res result
				if err := runChild(o, name, nil, &res, stderr); err != nil {
					return false, err
				}
				rec.Workloads[name] = &res
				allOK = allOK && res.Correct
				continue
			}
			part := filepath.Join(scratch, fmt.Sprintf("spans-%d-%s.json", run, name))
			var tr tracedReport
			if err := runChild(o, name, []string{"-trace", "-span-out", part}, &tr, stderr); err != nil {
				return false, err
			}
			rec.Workloads[name] = tr.Result
			p50[name] = tr.P50Ms
			rec.Stacks = append(rec.Stacks, tr.Stacks...)
			for k, v := range tr.Boundary {
				boundaryLayers[k] = v
			}
			allOK = allOK && tr.Result.Correct
			if run == o.runs {
				var tf traceFile
				if data, err := os.ReadFile(part); err == nil && json.Unmarshal(data, &tf) == nil {
					spans = append(spans, tf.Spans...)
					dropped += tf.Dropped
				}
			}
		}
		if o.trace {
			fmt.Fprintf(stderr, "run %d/%d: micro pass ...\n", run, o.runs)
			layers, err := runMicro(o.config("micro", scratch), o.layerPass())
			if err != nil {
				return false, fmt.Errorf("micro pass: %w", err)
			}
			for k, v := range boundaryLayers {
				layers[k] = v
			}
			rec.Layers, rec.SingleClientP50Ms = layers, p50
		}
		rec.WallS = time.Since(runStart).Seconds()
		file.Runs = append(file.Runs, rec)
		printRun(stdout, rec)
	}
	file.Env.HarnessWallS = time.Since(start).Seconds()
	fmt.Fprintf(stdout, "\nharness wall time %.1f s (%d run(s)); generator and system share one process, so generator cost is inside cpu_ms_per_op\n",
		file.Env.HarnessWallS, o.runs)
	if o.trace {
		path := o.traceOut
		if path == "" {
			path = "trace.json"
		}
		if err := writeTrace(path, spans, dropped); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "spans of the last run written to %s (%d spans, %d dropped past the cap)\n", path, len(spans), dropped)
	}
	if o.out != "" {
		if err := writeResultFile(o.out, file); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "results written to %s\n", o.out)
	}
	return allOK, nil
}
