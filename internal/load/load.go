// Package load is the fault injector: a closed-loop harness that
// drives a TinyEVM gateway the way a smart city would — a fleet of
// vehicles opening payment channels against parking meters and sensor
// oracles, paying in bursts, and settling — while it injects the faults
// such a deployment actually sees (clients dying mid-payment, RPC
// replies lost or delayed on the radio link, the daemon itself crashing
// and recovering from its write-ahead log).
//
// The harness has three contention profiles:
//
//   - disjoint: every vehicle pays its own meter — no shared receiver,
//     the embarrassingly-parallel baseline.
//   - hotspot: all vehicles compete for a handful of downtown meters —
//     receiver-side contention.
//   - fanin: every device reports to a single oracle — worst-case
//     fan-in on one node.
//
// Every fault decision derives deterministically from the seed via
// FaultPlan, so a chaotic run can be replayed exactly. Results come
// back as a Report of counters: successful ops per profile and per
// target daemon, sessions by outcome, a complete error taxonomy, and
// daemon recovery times. Report.Err is the verdict. The harness
// measures nothing; the measuring system is bench/.
package load

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tinyevm/internal/rpc"
)

// Profile names a contention pattern.
type Profile string

const (
	// ProfileDisjoint pairs each vehicle with its own meter.
	ProfileDisjoint Profile = "disjoint"
	// ProfileHotspot funnels all vehicles onto a few hot meters.
	ProfileHotspot Profile = "hotspot"
	// ProfileFanIn sends every session to one oracle node.
	ProfileFanIn Profile = "fanin"
)

// Profiles lists every profile in canonical order.
func Profiles() []Profile { return []Profile{ProfileDisjoint, ProfileHotspot, ProfileFanIn} }

// Config parameterises a harness run.
type Config struct {
	// URL is the gateway; ignored when the Runner manages a Daemon.
	URL string
	// Targets lists multiple gateway URLs (a cluster of daemons).
	// Vehicles stick to one target by index (vehicle v drives target
	// v mod len(Targets)) so each daemon owns a stable device
	// population; the report breaks op counts and errors down per node.
	// Empty: URL (or the managed Daemon) is the single target.
	Targets []string
	// Profiles are run back to back, each for Duration.
	Profiles []Profile
	// Vehicles is the paying-device population.
	Vehicles int
	// HotMeters is the meter count for the hotspot profile.
	HotMeters int
	// Concurrency is the worker count.
	Concurrency int
	// Duration is the run window per profile.
	Duration time.Duration
	// Payments per session.
	Payments int
	// Batch groups a session's payments into JSON-RPC 2.0 batch
	// requests of this size, amortizing HTTP round trips (the gateway
	// executes batched entries concurrently). 0 or 1 sends one request
	// per payment.
	Batch int
	// ChannelDeposit is the off-chain deposit of each channel.
	ChannelDeposit uint64
	// Amount is the per-payment amount.
	Amount uint64
	// DepositEvery makes every k-th session lock funds on-chain, which
	// seals a block — so daemon kills land between seals, like the
	// recovery e2e test. 0 disables.
	DepositEvery int
	// Seed drives every random choice.
	Seed int64
	// RequestTimeout bounds each RPC attempt; Retries/Backoff configure
	// transport-level retry (see rpc.WithRetry).
	RequestTimeout time.Duration
	Retries        int
	Backoff        time.Duration
	// Faults is the injection config.
	Faults FaultConfig
}

// withDefaults fills zero fields with a small-but-busy city.
func (c Config) withDefaults() Config {
	if len(c.Profiles) == 0 {
		c.Profiles = Profiles()
	}
	if c.Vehicles <= 0 {
		c.Vehicles = 16
	}
	if c.HotMeters <= 0 {
		c.HotMeters = 4
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Payments <= 0 {
		c.Payments = 10
	}
	if c.ChannelDeposit == 0 {
		c.ChannelDeposit = 10_000
	}
	if c.Amount == 0 {
		c.Amount = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	return c
}

// Runner drives one harness run.
type Runner struct {
	cfg     Config
	daemon  *Daemon
	plan    *FaultPlan
	col     *Collector
	clients []*rpc.Client // one per target, parallel to cfg.Targets
	nextID  atomic.Uint64
}

// New builds a Runner. daemon is optional: when non-nil the Runner
// targets daemon.URL() and may SIGKILL/restart it per the fault plan;
// when nil, cfg.URL is used and DaemonKills is ignored.
func New(cfg Config, daemon *Daemon) *Runner {
	cfg = cfg.withDefaults()
	total := cfg.Duration * time.Duration(len(cfg.Profiles))
	faults := cfg.Faults
	if daemon == nil {
		faults.DaemonKills = 0
	}
	r := &Runner{
		cfg:    cfg,
		daemon: daemon,
		plan:   NewFaultPlan(cfg.Seed, total, cfg.Payments, faults),
		col:    NewCollector(),
	}
	urls := cfg.Targets
	if daemon != nil {
		urls = []string{daemon.URL()}
	} else if len(urls) == 0 {
		urls = []string{cfg.URL}
	}
	httpClient := newHTTPClient(cfg)
	for _, url := range urls {
		r.clients = append(r.clients, rpc.NewClient(url, httpClient,
			rpc.WithRequestTimeout(cfg.RequestTimeout),
			rpc.WithRetry(cfg.Retries, cfg.Backoff)))
	}
	return r
}

// targetOf maps a vehicle to its sticky target daemon.
func (r *Runner) targetOf(vehicle int) int { return vehicle % len(r.clients) }

// Plan exposes the deterministic fault schedule (for tests and logs).
func (r *Runner) Plan() *FaultPlan { return r.plan }

// Run executes setup, the profile sequence, and the fault timeline,
// and returns the report. Run is single-use.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	if err := r.setup(ctx); err != nil {
		return nil, err
	}
	start := time.Now()

	// Fault timeline: daemon kills fire at plan offsets from now, in
	// parallel with the workload. Each recovery is timed and recorded.
	var faultWG sync.WaitGroup
	if r.daemon != nil {
		for _, at := range r.plan.KillTimes() {
			faultWG.Add(1)
			go func(at time.Duration) {
				defer faultWG.Done()
				select {
				case <-ctx.Done():
					return
				case <-time.After(at - time.Since(start)):
				}
				rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
				defer cancel()
				d, err := r.daemon.KillAndRestart(rctx)
				r.col.Recovery(d, err)
			}(at)
		}
	}

	for _, profile := range r.cfg.Profiles {
		r.runClosedLoop(ctx, profile)
		if ctx.Err() != nil {
			break
		}
	}
	faultWG.Wait()
	return r.col.report(r.cfg), ctx.Err()
}

// setup creates the device population before the run begins:
// vehicles shared by every profile, plus each profile's meters.
// Re-registering an existing node (a rerun against a persistent
// data-dir) is tolerated.
func (r *Runner) setup(ctx context.Context) error {
	add := func(c *rpc.Client, name string) error {
		_, err := c.AddNode(ctx, name)
		if err != nil && strings.Contains(err.Error(), "already exists") {
			return nil
		}
		return err
	}
	// Each vehicle lives only on its sticky target; meters exist on
	// every target, because channels are daemon-local and a vehicle can
	// only open against a meter its own daemon hosts.
	for v := 0; v < r.cfg.Vehicles; v++ {
		if err := add(r.clients[r.targetOf(v)], vehicleName(v)); err != nil {
			return fmt.Errorf("load: setup vehicle %d: %w", v, err)
		}
	}
	for ti, c := range r.clients {
		for _, profile := range r.cfg.Profiles {
			for m := 0; m < r.meterCount(profile); m++ {
				if err := add(c, r.meterName(profile, m)); err != nil {
					return fmt.Errorf("load: setup %s meter %d on target %d: %w", profile, m, ti, err)
				}
			}
		}
	}
	return nil
}

func vehicleName(v int) string { return fmt.Sprintf("veh-%03d", v) }

func (r *Runner) meterCount(p Profile) int {
	switch p {
	case ProfileDisjoint:
		return r.cfg.Vehicles
	case ProfileHotspot:
		return r.cfg.HotMeters
	default: // fanin
		return 1
	}
}

func (r *Runner) meterName(p Profile, m int) string {
	switch p {
	case ProfileDisjoint:
		return fmt.Sprintf("meter-disjoint-%03d", m)
	case ProfileHotspot:
		return fmt.Sprintf("meter-hot-%02d", m)
	default:
		return "oracle-fanin"
	}
}

// meterFor maps a session to its receiver under the profile.
func (r *Runner) meterFor(p Profile, id uint64) string {
	switch p {
	case ProfileDisjoint:
		return r.meterName(p, int(id)%r.cfg.Vehicles)
	case ProfileHotspot:
		return r.meterName(p, int(id)%r.cfg.HotMeters)
	default:
		return "oracle-fanin"
	}
}

// runClosedLoop runs a fixed pool of workers, each cycling sessions
// until the window closes.
func (r *Runner) runClosedLoop(ctx context.Context, profile Profile) {
	deadline := time.Now().Add(r.cfg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard := r.col.Shard()
			defer shard.Close()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r.session(ctx, profile, r.nextID.Add(1), shard)
			}
		}()
	}
	wg.Wait()
}

// session drives one vehicle through a full channel lifecycle:
// open → pay×N → (maybe on-chain deposit) → cooperative close. A
// fault-plan abort kills the client mid-payment, leaving the channel
// dangling exactly as a crashed device would.
func (r *Runner) session(ctx context.Context, profile Profile, id uint64, shard *Shard) {
	v := int(id) % r.cfg.Vehicles
	vehicle := vehicleName(v)
	meter := r.meterFor(profile, id)
	node := r.targetOf(v)
	client := r.clients[node]

	ch, err := client.OpenChannel(ctx, vehicle, meter, r.cfg.ChannelDeposit, 0)
	shard.Observe(profile, "open", node, err)
	if err != nil {
		shard.Session(false, false)
		return
	}

	// A fault-plan abort kills the client before payment abortAfter, so
	// only the payments preceding it go out (batched or not).
	abortAfter, abort := r.plan.SessionAbort(id)
	pays := r.cfg.Payments
	if abort && abortAfter < pays {
		pays = abortAfter
	} else {
		abort = false
	}
	if !r.pay(ctx, client, profile, node, vehicle, ch.ID, pays, shard) {
		shard.Session(false, false)
		return
	}
	if abort {
		shard.Session(false, true)
		return // client killed mid-payment: channel stays open
	}

	if r.cfg.DepositEvery > 0 && id%uint64(r.cfg.DepositEvery) == 0 {
		_, err := client.Deposit(ctx, vehicle, r.cfg.Amount)
		shard.Observe(profile, "deposit", node, err)
		if err != nil {
			shard.Session(false, false)
			return
		}
	}

	_, err = client.CloseChannel(ctx, vehicle, ch.ID)
	shard.Observe(profile, "close", node, err)
	shard.Session(err == nil, false)
}

// pay sends n payments on one channel, reporting each to the shard,
// and returns false on the first failure. With cfg.Batch > 1 payments
// go out in JSON-RPC batch requests of that size.
func (r *Runner) pay(ctx context.Context, client *rpc.Client, profile Profile, node int, vehicle string, ch uint64, n int, shard *Shard) bool {
	if r.cfg.Batch <= 1 {
		for i := 0; i < n; i++ {
			_, err := client.Pay(ctx, vehicle, ch, r.cfg.Amount)
			shard.Observe(profile, "pay", node, err)
			if err != nil {
				return false
			}
		}
		return true
	}
	for done := 0; done < n; {
		k := r.cfg.Batch
		if rest := n - done; k > rest {
			k = rest
		}
		b := client.NewBatch()
		for j := 0; j < k; j++ {
			b.Pay(vehicle, ch, r.cfg.Amount, nil)
		}
		errs, err := b.Call(ctx)
		if err != nil {
			// Whole-batch (transport) failure: every entry shares it.
			for j := 0; j < k; j++ {
				shard.Observe(profile, "pay", node, err)
			}
			return false
		}
		failed := false
		for _, e := range errs {
			shard.Observe(profile, "pay", node, e)
			failed = failed || e != nil
		}
		if failed {
			return false
		}
		done += k
	}
	return true
}

// newHTTPClient builds the workload transport, wrapping in chaos when
// any wire fault is configured.
func newHTTPClient(cfg Config) *http.Client {
	if cfg.Faults.DropRate <= 0 && cfg.Faults.DelayRate <= 0 {
		return nil // rpc.NewClient falls back to http.DefaultClient
	}
	return &http.Client{Transport: NewChaosTransport(nil, cfg.Seed, cfg.Faults)}
}
