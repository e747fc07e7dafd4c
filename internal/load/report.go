package load

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"tinyevm/internal/rpc"
	"tinyevm/internal/stats"
)

// maxUnknownSamples bounds how many unknown error messages a report
// keeps verbatim for diagnosis.
const maxUnknownSamples = 8

// Classify maps an error onto the harness taxonomy. Typed gateway
// errors keep their rpc.KindOf kebab-case kind; injected faults and
// transport-level failures get harness kinds. Only errors that fit no
// known category classify as "unknown" — their presence fails the CI
// smoke gate, because an unknown error means a behaviour the system's
// error contract does not cover.
func Classify(err error) string {
	if err == nil {
		return ""
	}
	if errors.Is(err, ErrInjectedDrop) {
		return "injected-drop"
	}
	if kind := rpc.KindOf(err); kind != "" {
		return kind
	}
	var rpcErr *rpc.Error
	if errors.As(err, &rpcErr) {
		return "gateway"
	}
	var urlErr *url.Error
	var netErr net.Error
	if errors.As(err, &urlErr) || errors.As(err, &netErr) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return "transport"
	}
	return "unknown"
}

// Collector aggregates measurements from concurrent workers. Workers
// record into private Shards and merge on exit, so the hot path takes
// no locks; Merge on stats.LatencyHist is exact, so sharding loses
// nothing.
type Collector struct {
	mu         sync.Mutex
	ops        map[string]*stats.LatencyHist // "profile/op" → latencies
	errs       map[string]uint64             // taxonomy kind → count
	nodes      map[int]*nodeBucket           // target index → per-node buckets
	unknown    []string
	sessions   uint64
	completed  uint64
	aborted    uint64
	failed     uint64
	shed       uint64
	recoveries []time.Duration
	recoverErr []string
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		ops:   make(map[string]*stats.LatencyHist),
		errs:  make(map[string]uint64),
		nodes: make(map[int]*nodeBucket),
	}
}

// nodeBucket aggregates one target daemon's view: all-op latency plus
// an error taxonomy, so a multi-target run shows which node is slow or
// rejecting (e.g. a follower returning not-leader).
type nodeBucket struct {
	lat  stats.LatencyHist
	errs map[string]uint64
}

func newNodeBucket() *nodeBucket { return &nodeBucket{errs: make(map[string]uint64)} }

// Shard is a worker-local, lock-free view of the collector. Close
// merges it back; a Shard must not be used after Close.
type Shard struct {
	col       *Collector
	ops       map[string]*stats.LatencyHist
	errs      map[string]uint64
	nodes     map[int]*nodeBucket
	unknown   []string
	sessions  uint64
	completed uint64
	aborted   uint64
	failed    uint64
}

// Shard creates a worker-local shard.
func (c *Collector) Shard() *Shard {
	return &Shard{
		col:   c,
		ops:   make(map[string]*stats.LatencyHist),
		errs:  make(map[string]uint64),
		nodes: make(map[int]*nodeBucket),
	}
}

// Observe records one timed operation against target daemon node and
// classifies its error.
func (s *Shard) Observe(profile Profile, op string, node int, d time.Duration, err error) {
	nb := s.nodes[node]
	if nb == nil {
		nb = newNodeBucket()
		s.nodes[node] = nb
	}
	if err == nil {
		key := string(profile) + "/" + op
		h := s.ops[key]
		if h == nil {
			h = &stats.LatencyHist{}
			s.ops[key] = h
		}
		h.ObserveDuration(d)
		nb.lat.ObserveDuration(d)
		return
	}
	kind := Classify(err)
	s.errs[kind]++
	nb.errs[kind]++
	if kind == "unknown" && len(s.unknown) < maxUnknownSamples {
		s.unknown = append(s.unknown, err.Error())
	}
}

// Session accounts one finished session.
func (s *Shard) Session(completed, aborted bool) {
	s.sessions++
	switch {
	case aborted:
		s.aborted++
	case completed:
		s.completed++
	default:
		s.failed++
	}
}

// Close merges the shard into its collector.
func (s *Shard) Close() {
	c := s.col
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, h := range s.ops {
		dst := c.ops[key]
		if dst == nil {
			dst = &stats.LatencyHist{}
			c.ops[key] = dst
		}
		dst.Merge(h)
	}
	for kind, n := range s.errs {
		c.errs[kind] += n
	}
	for node, nb := range s.nodes {
		dst := c.nodes[node]
		if dst == nil {
			dst = newNodeBucket()
			c.nodes[node] = dst
		}
		dst.lat.Merge(&nb.lat)
		for kind, n := range nb.errs {
			dst.errs[kind] += n
		}
	}
	room := maxUnknownSamples - len(c.unknown)
	if room > len(s.unknown) {
		room = len(s.unknown)
	}
	if room > 0 {
		c.unknown = append(c.unknown, s.unknown[:room]...)
	}
	c.sessions += s.sessions
	c.completed += s.completed
	c.aborted += s.aborted
	c.failed += s.failed
}

// Shed counts a session the open-loop generator had to drop because
// every in-flight slot was taken (overload, not an error).
func (c *Collector) Shed() {
	c.mu.Lock()
	c.shed++
	c.mu.Unlock()
}

// Recovery records one daemon kill/restart outcome.
func (c *Collector) Recovery(d time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.recoverErr = append(c.recoverErr, err.Error())
		return
	}
	c.recoveries = append(c.recoveries, d)
}

// OpStats is the per-operation slice of a report.
type OpStats struct {
	Profile string
	Op      string
	Count   uint64
	MeanMS  float64
	P50MS   float64
	P95MS   float64
	P99MS   float64
	PerSec  float64
}

// NodeStats is one target daemon's slice of a report: all-op latency
// plus that node's error taxonomy.
type NodeStats struct {
	Index  int
	Target string
	Count  uint64
	MeanMS float64
	P50MS  float64
	P95MS  float64
	P99MS  float64
	Errors map[string]uint64
}

// Report is the outcome of one harness run.
type Report struct {
	Config   Config
	Elapsed  time.Duration
	Ops      []OpStats
	Nodes    []NodeStats
	Errors   map[string]uint64
	Unknown  []string
	Sessions struct {
		Total, Completed, Aborted, Failed, Shed uint64
	}
	Recoveries       []time.Duration
	RecoveryFailures []string
}

// report assembles the final Report. windows maps each profile to its
// measured wall-clock window, for per-op throughput.
func (c *Collector) report(cfg Config, elapsed time.Duration, windows map[Profile]time.Duration) *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &Report{
		Config:           cfg,
		Elapsed:          elapsed,
		Errors:           make(map[string]uint64, len(c.errs)),
		Unknown:          append([]string(nil), c.unknown...),
		Recoveries:       append([]time.Duration(nil), c.recoveries...),
		RecoveryFailures: append([]string(nil), c.recoverErr...),
	}
	for kind, n := range c.errs {
		r.Errors[kind] = n
	}
	r.Sessions.Total = c.sessions
	r.Sessions.Completed = c.completed
	r.Sessions.Aborted = c.aborted
	r.Sessions.Failed = c.failed
	r.Sessions.Shed = c.shed

	keys := make([]string, 0, len(c.ops))
	for k := range c.ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		h := c.ops[key]
		profile, op, _ := strings.Cut(key, "/")
		window := windows[Profile(profile)]
		if window <= 0 {
			window = elapsed
		}
		p50, p95, p99 := h.QuantilesMS()
		r.Ops = append(r.Ops, OpStats{
			Profile: profile,
			Op:      op,
			Count:   h.Count(),
			MeanMS:  h.Mean() / 1e6,
			P50MS:   p50,
			P95MS:   p95,
			P99MS:   p99,
			PerSec:  float64(h.Count()) / window.Seconds(),
		})
	}

	nodeIdx := make([]int, 0, len(c.nodes))
	for i := range c.nodes {
		nodeIdx = append(nodeIdx, i)
	}
	sort.Ints(nodeIdx)
	for _, i := range nodeIdx {
		nb := c.nodes[i]
		target := cfg.URL
		if i < len(cfg.Targets) {
			target = cfg.Targets[i]
		}
		p50, p95, p99 := nb.lat.QuantilesMS()
		ns := NodeStats{
			Index:  i,
			Target: target,
			Count:  nb.lat.Count(),
			MeanMS: nb.lat.Mean() / 1e6,
			P50MS:  p50,
			P95MS:  p95,
			P99MS:  p99,
			Errors: make(map[string]uint64, len(nb.errs)),
		}
		for kind, n := range nb.errs {
			ns.Errors[kind] = n
		}
		r.Nodes = append(r.Nodes, ns)
	}
	return r
}

// Err returns the gate verdict: non-nil when the run hit an error
// outside the taxonomy or a daemon recovery failed. CI's load-smoke
// step fails on exactly these two conditions.
func (r *Report) Err() error {
	if n := r.Errors["unknown"]; n > 0 {
		return fmt.Errorf("load: %d errors outside the taxonomy (first: %s)",
			n, strings.Join(r.Unknown, "; "))
	}
	if len(r.RecoveryFailures) > 0 {
		return fmt.Errorf("load: %d daemon recoveries failed (first: %s)",
			len(r.RecoveryFailures), r.RecoveryFailures[0])
	}
	return nil
}

// String renders a human-readable summary table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load run: %v elapsed, %d sessions (%d completed, %d aborted by fault, %d failed, %d shed)\n",
		r.Elapsed.Round(time.Millisecond), r.Sessions.Total,
		r.Sessions.Completed, r.Sessions.Aborted, r.Sessions.Failed, r.Sessions.Shed)
	if len(r.Ops) > 0 {
		fmt.Fprintf(&b, "%-28s %8s %9s %9s %9s %9s %9s\n",
			"profile/op", "count", "mean-ms", "p50-ms", "p95-ms", "p99-ms", "ops/s")
		for _, op := range r.Ops {
			fmt.Fprintf(&b, "%-28s %8d %9.3f %9.3f %9.3f %9.3f %9.1f\n",
				op.Profile+"/"+op.Op, op.Count, op.MeanMS, op.P50MS, op.P95MS, op.P99MS, op.PerSec)
		}
	}
	// Per-node rows only say something when the run spread across
	// multiple daemons.
	if len(r.Nodes) > 1 {
		for _, ns := range r.Nodes {
			fmt.Fprintf(&b, "node %d (%s): %d ops, mean %.3f ms, p99 %.3f ms",
				ns.Index, ns.Target, ns.Count, ns.MeanMS, ns.P99MS)
			kinds := make([]string, 0, len(ns.Errors))
			for k := range ns.Errors {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			for _, k := range kinds {
				fmt.Fprintf(&b, " %s=%d", k, ns.Errors[k])
			}
			b.WriteByte('\n')
		}
	}
	if len(r.Errors) > 0 {
		kinds := make([]string, 0, len(r.Errors))
		for k := range r.Errors {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		b.WriteString("errors:")
		for _, k := range kinds {
			fmt.Fprintf(&b, " %s=%d", k, r.Errors[k])
		}
		b.WriteByte('\n')
	}
	for _, d := range r.Recoveries {
		fmt.Fprintf(&b, "daemon recovery: %v\n", d.Round(time.Millisecond))
	}
	for _, f := range r.RecoveryFailures {
		fmt.Fprintf(&b, "daemon recovery FAILED: %s\n", f)
	}
	return b.String()
}
