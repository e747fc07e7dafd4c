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

// Collector aggregates counters from concurrent workers. Workers count
// into private Shards and merge on exit, so the hot path takes no
// locks.
type Collector struct {
	mu         sync.Mutex
	ops        map[string]uint64   // "profile/op" → successful ops
	errs       map[string]uint64   // taxonomy kind → count
	nodes      map[int]*nodeBucket // target index → per-node counts
	unknown    []string
	sessions   uint64
	completed  uint64
	aborted    uint64
	failed     uint64
	recoveries []time.Duration
	recoverErr []string
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		ops:   make(map[string]uint64),
		errs:  make(map[string]uint64),
		nodes: make(map[int]*nodeBucket),
	}
}

// nodeBucket is one target daemon's view: successful ops plus an error
// taxonomy, so a multi-target run shows which node is rejecting (e.g.
// a follower returning not-leader).
type nodeBucket struct {
	ops  uint64
	errs map[string]uint64
}

func newNodeBucket() *nodeBucket { return &nodeBucket{errs: make(map[string]uint64)} }

// Shard is a worker-local, lock-free view of the collector. Close
// merges it back; a Shard must not be used after Close.
type Shard struct {
	col       *Collector
	ops       map[string]uint64
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
		ops:   make(map[string]uint64),
		errs:  make(map[string]uint64),
		nodes: make(map[int]*nodeBucket),
	}
}

// Observe records one operation against target daemon node and
// classifies its error.
func (s *Shard) Observe(profile Profile, op string, node int, err error) {
	nb := s.nodes[node]
	if nb == nil {
		nb = newNodeBucket()
		s.nodes[node] = nb
	}
	if err == nil {
		s.ops[string(profile)+"/"+op]++
		nb.ops++
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
	for key, n := range s.ops {
		c.ops[key] += n
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
		dst.ops += nb.ops
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

// OpStats counts one profile's successful operations of one kind.
type OpStats struct {
	Profile string
	Op      string
	Count   uint64
}

// NodeStats is one target daemon's slice of a report: its successful
// ops plus its error taxonomy.
type NodeStats struct {
	Index  int
	Target string
	Count  uint64
	Errors map[string]uint64
}

// Report is the outcome of one harness run.
type Report struct {
	Ops      []OpStats
	Nodes    []NodeStats
	Errors   map[string]uint64
	Unknown  []string
	Sessions struct {
		Total, Completed, Aborted, Failed uint64
	}
	Recoveries       []time.Duration
	RecoveryFailures []string
}

// report assembles the final Report.
func (c *Collector) report(cfg Config) *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &Report{
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

	keys := make([]string, 0, len(c.ops))
	for k := range c.ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		profile, op, _ := strings.Cut(key, "/")
		r.Ops = append(r.Ops, OpStats{Profile: profile, Op: op, Count: c.ops[key]})
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
		ns := NodeStats{Index: i, Target: target, Count: nb.ops, Errors: make(map[string]uint64, len(nb.errs))}
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

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load run: %d sessions (%d completed, %d aborted by fault, %d failed)\n",
		r.Sessions.Total, r.Sessions.Completed, r.Sessions.Aborted, r.Sessions.Failed)
	for _, op := range r.Ops {
		fmt.Fprintf(&b, "%-28s %8d\n", op.Profile+"/"+op.Op, op.Count)
	}
	// Per-node rows only say something when the run spread across
	// multiple daemons.
	if len(r.Nodes) > 1 {
		for _, ns := range r.Nodes {
			fmt.Fprintf(&b, "node %d (%s): %d ops", ns.Index, ns.Target, ns.Count)
			writeKinds(&b, ns.Errors)
			b.WriteByte('\n')
		}
	}
	if len(r.Errors) > 0 {
		b.WriteString("errors:")
		writeKinds(&b, r.Errors)
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

// writeKinds appends " kind=n" per error kind, in name order.
func writeKinds(b *strings.Builder, errs map[string]uint64) {
	kinds := make([]string, 0, len(errs))
	for k := range errs {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(b, " %s=%d", k, errs[k])
	}
}
