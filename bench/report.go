package main

// Result files and the tables the harness prints.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// environment is recorded in every result file, so that two files can
// be refused as incomparable when these differ.
type environment struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	// Clients is min(nproc, 4); recover and cluster_replicate are driven
	// by one client by definition.
	Clients         int                `json:"clients"`
	WindowsS        map[string]float64 `json:"windows_s"`
	TracedWindowS   float64            `json:"traced_window_s"`
	WarmupFrac      float64            `json:"warmup_frac"`
	HistorySessions int                `json:"history_sessions"`
	DataDirFS       string             `json:"data_dir_fs"`
	FsyncUs         float64            `json:"fs_fsync_us"`
	// InjectedP2PDelayMs is the delay the harness adds to every cluster
	// message: none, so cluster latency is processor time only.
	InjectedP2PDelayMs float64 `json:"injected_p2p_delay_ms"`
	HarnessWallS       float64 `json:"harness_wall_s"`
}

// runRecord is one full pass.
type runRecord struct {
	Run    int      `json:"run"`
	Order  []string `json:"order"`
	Traced bool     `json:"traced"`
	// Workloads holds, per workload, the end-to-end metrics and the
	// per-workload layer metrics (runtime.* always; in-path ones when
	// traced).
	Workloads map[string]*result `json:"workloads"`
	// Layers are the workload-independent layer metrics (boundary and
	// micro pass); traced runs only.
	Layers            map[string]Metric  `json:"layers,omitempty"`
	Stacks            []costStack        `json:"stacks,omitempty"`
	SingleClientP50Ms map[string]float64 `json:"single_client_p50_ms,omitempty"`
	WallS             float64            `json:"wall_s"`
}

type resultFile struct {
	Env  environment  `json:"env"`
	Runs []*runRecord `json:"runs"`
}

func writeResultFile(path string, f *resultFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &f, nil
}

// fsName names the filesystem holding dir, from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// fsyncProbe is fs.fsync_us for the environment block: a bare 200-byte
// write + fsync on the data-dir filesystem.
func fsyncProbe(dir string) float64 {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, storeValueBytes)
	var us []float64
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		f.Write(buf)
		f.Sync()
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}

// commitID asks git; a checkout that is not a repository reports
// "unknown".
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	id := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		id += "-dirty"
	}
	return id
}

func captureEnv(o *options, scratch string) environment {
	env := environment{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: commitID(), Seed: o.seed,
		Clients: generatorClients(), WindowsS: map[string]float64{}, TracedWindowS: o.tracedWindow().Seconds(),
		WarmupFrac: warmupFrac, HistorySessions: o.history(), DataDirFS: fsName(scratch),
		FsyncUs: fsyncProbe(scratch), InjectedP2PDelayMs: float64(injectedDelay) / float64(time.Millisecond),
	}
	for _, w := range workloads {
		env.WindowsS[w.name] = o.windowFor(w.name).Seconds()
	}
	return env
}

// incomparable lists the environment fields that differ in a way that
// makes two result files' numbers mean different things. Commit and
// seed are expected to differ; fsync time is reported by compare, not
// refused on.
func incomparable(a, b environment) []string {
	var diffs []string
	add := func(what string, x, y any) {
		if fmt.Sprint(x) != fmt.Sprint(y) {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", what, x, y))
		}
	}
	add("nproc", a.Nproc, b.Nproc)
	add("GOMAXPROCS", a.GOMAXPROCS, b.GOMAXPROCS)
	add("go version", a.GoVersion, b.GoVersion)
	add("os/arch", a.OSArch, b.OSArch)
	add("clients", a.Clients, b.Clients)
	add("windows", a.WindowsS, b.WindowsS)
	add("traced window", a.TracedWindowS, b.TracedWindowS)
	add("history sessions", a.HistorySessions, b.HistorySessions)
	add("data-dir filesystem", a.DataDirFS, b.DataDirFS)
	add("injected p2p delay", a.InjectedP2PDelayMs, b.InjectedP2PDelayMs)
	return diffs
}

func fmtMetric(m Metric, ok bool) string {
	if !ok {
		return "-"
	}
	s := fmt.Sprintf("%.4g", m.Value)
	if m.Samples > 0 {
		s += fmt.Sprintf(" (n=%d)", m.Samples)
	}
	return s
}

// printWorkloadTable prints the end-to-end metrics, one row per
// workload; a percentile the sample count does not support prints "-".
func printWorkloadTable(w io.Writer, results []*result) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	head := []string{"workload", "clients", "window_s"}
	for _, d := range endToEnd {
		head = append(head, d.Name+" ["+d.Unit+"]")
	}
	fmt.Fprintln(tw, strings.Join(head, "\t"))
	for _, r := range results {
		row := []string{r.Workload, fmt.Sprint(r.Clients), fmt.Sprintf("%.1f", r.WindowS)}
		for _, d := range endToEnd {
			m, ok := r.Metrics[d.Name]
			row = append(row, fmtMetric(m, ok))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

func printLayerTable(w io.Writer, title string, layers map[string]Metric) {
	fmt.Fprintf(w, "\nper-layer metrics — %s\n", title)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, d := range perLayer {
		m, ok := layers[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\n", d.Name, fmtMetric(m, true), d.Unit, m.Note)
	}
	tw.Flush()
}

// printStacks prints each cost stack, its sum, and — where the
// workload's own single-client median is known — the unexplained
// remainder.
func printStacks(w io.Writer, stacks []costStack, p50Ms map[string]float64) {
	for _, st := range stacks {
		fmt.Fprintf(w, "\ncost stack — one %s op, outside in (boundary pass, 1 caller)\n", st.Op)
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		for _, e := range st.Entries {
			flag := ""
			if e.Clamped {
				flag = "CLAMPED (inner boundary measured slower than outer)"
			}
			fmt.Fprintf(tw, "  %s\t%10.1f us\t%5.1f %%\t%s\n", e.Name, e.Us, 100*e.Us/st.SumUs, flag)
		}
		fmt.Fprintf(tw, "  sum\t%10.1f us\t\t(outermost boundary timed at %.1f us)\n", st.SumUs, st.OuterUs)
		if p50, ok := p50Ms[st.Op]; ok && p50 > 0 {
			rem := p50*1e3 - st.SumUs
			fmt.Fprintf(tw, "  %s 1-client latency_p50\t%10.1f us\t\tunexplained remainder %.1f us (%.1f %% of it)\n",
				st.Op, p50*1e3, rem, 100*rem/(p50*1e3))
		}
		tw.Flush()
	}
}

func printCheckErrors(w io.Writer, r *result) {
	for _, e := range r.CheckErrors {
		fmt.Fprintf(w, "CHECK FAILED %s: %s\n", r.Workload, e)
	}
}

// printRun prints one pass.
func printRun(w io.Writer, rec *runRecord) {
	fmt.Fprintf(w, "\n== run %d (order %s) — %.1f s ==\n", rec.Run, strings.Join(rec.Order, ", "), rec.WallS)
	var rows []*result
	for _, spec := range workloads {
		if r, ok := rec.Workloads[spec.name]; ok {
			rows = append(rows, r)
		}
	}
	if !rec.Traced {
		printWorkloadTable(w, rows)
	}
	for _, r := range rows {
		if len(r.Layers) > 0 {
			printLayerTable(w, r.Workload, r.Layers)
		}
		printCheckErrors(w, r)
	}
	if rec.Traced {
		printLayerTable(w, "boundary and micro pass (workload-independent)", rec.Layers)
		printStacks(w, rec.Stacks, rec.SingleClientP50Ms)
		var names []string
		for n := range rec.SingleClientP50Ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "\nsingle-client latency_p50 of the in-path pass (wrappers absent):")
		for _, n := range names {
			fmt.Fprintf(w, "  %s\t%.4g ms\n", n, rec.SingleClientP50Ms[n])
		}
		fmt.Fprintln(w, "cluster_replicate runs with instant p2p delivery (injected delay 0): its latency is processor time only")
	}
}
