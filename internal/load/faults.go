package load

import (
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ErrInjectedDrop is returned by the chaos transport when it discards a
// completed RPC response. The request usually *reached* the gateway —
// only the reply is lost — which is exactly the ambiguity a real client
// on a lossy network faces.
var ErrInjectedDrop = errors.New("load: injected response drop")

// FaultConfig describes which faults the harness injects.
type FaultConfig struct {
	// ClientKillRate is the probability that a session dies mid-payment
	// without closing its channel (a vehicle driving out of radio range,
	// a battery dying). 0 disables.
	ClientKillRate float64
	// DropRate is the probability that an RPC response is discarded
	// after the gateway processed the request.
	DropRate float64
	// DelayRate is the probability that an RPC round trip is delayed by
	// up to DelayMax before being sent.
	DelayRate float64
	// DelayMax bounds an injected delay.
	DelayMax time.Duration
	// DaemonKills is how many SIGKILL+restart cycles the harness drives
	// against the managed daemon during the run. The
	// daemon must have been started with -data-dir for recovery to
	// succeed. 0 disables; ignored when no daemon is managed.
	DaemonKills int
}

func (f FaultConfig) enabled() bool {
	return f.ClientKillRate > 0 || f.DropRate > 0 || f.DelayRate > 0 || f.DaemonKills > 0
}

// FaultPlan is the deterministic schedule derived from (seed, config):
// the same seed always kills the daemon at the same offsets and aborts
// the same sessions after the same payment counts. Determinism makes a
// chaotic run reproducible — re-running with the seed from a failing
// report replays the same fault sequence.
type FaultPlan struct {
	seed     int64
	kill     FaultConfig
	killAt   []time.Duration
	payments int
}

// NewFaultPlan builds the schedule for a run window of total
// duration. Daemon kills are spread evenly across the window with
// ±25%-of-slot deterministic jitter so they land between block seals
// rather than on a fixed phase of the workload.
func NewFaultPlan(seed int64, total time.Duration, payments int, f FaultConfig) *FaultPlan {
	p := &FaultPlan{seed: seed, kill: f, payments: payments}
	if f.DaemonKills > 0 && total > 0 {
		rng := rand.New(rand.NewSource(seed))
		slot := total / time.Duration(f.DaemonKills+1)
		for i := 1; i <= f.DaemonKills; i++ {
			jitter := time.Duration((rng.Float64() - 0.5) * float64(slot) / 2)
			p.killAt = append(p.killAt, time.Duration(i)*slot+jitter)
		}
	}
	return p
}

// KillTimes returns the offsets (from the start of the run) at which the
// daemon is SIGKILLed.
func (p *FaultPlan) KillTimes() []time.Duration {
	return append([]time.Duration(nil), p.killAt...)
}

// SessionAbort reports whether session id is killed mid-payment and, if
// so, after how many successful payments (in [0, payments)). The
// decision is a pure function of (seed, id), independent of scheduling.
func (p *FaultPlan) SessionAbort(id uint64) (after int, abort bool) {
	if p.kill.ClientKillRate <= 0 || p.payments <= 0 {
		return 0, false
	}
	h := mix(uint64(p.seed) ^ mix(id))
	if float64(h%1e9)/1e9 >= p.kill.ClientKillRate {
		return 0, false
	}
	return int(mix(h) % uint64(p.payments)), true
}

// mix is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// hash used to derive per-session decisions from the seed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ChaosTransport wraps an http.RoundTripper with seeded response drops
// and delays. Decisions come from a single locked PRNG, so the decision
// *sequence* is deterministic under a fixed seed (which request each
// decision lands on still depends on goroutine scheduling).
type ChaosTransport struct {
	inner http.RoundTripper

	mu  sync.Mutex
	rng *rand.Rand

	dropRate  float64
	delayRate float64
	delayMax  time.Duration
}

// NewChaosTransport wraps inner (nil means http.DefaultTransport).
func NewChaosTransport(inner http.RoundTripper, seed int64, f FaultConfig) *ChaosTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	delayMax := f.DelayMax
	if f.DelayRate > 0 && delayMax <= 0 {
		delayMax = 100 * time.Millisecond
	}
	return &ChaosTransport{
		inner:     inner,
		rng:       rand.New(rand.NewSource(seed)),
		dropRate:  f.DropRate,
		delayRate: f.DelayRate,
		delayMax:  delayMax,
	}
}

// decide draws the next (drop, delay) pair from the seeded stream.
func (t *ChaosTransport) decide() (drop bool, delay time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropRate > 0 && t.rng.Float64() < t.dropRate {
		drop = true
	}
	if t.delayRate > 0 && t.rng.Float64() < t.delayRate {
		delay = time.Duration(t.rng.Int63n(int64(t.delayMax) + 1))
	}
	return drop, delay
}

// RoundTrip injects the drawn faults around the real round trip. A
// dropped response is closed and replaced with ErrInjectedDrop *after*
// the request executed, mimicking a reply lost on the wire.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	drop, delay := t.decide()
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	resp, err := t.inner.RoundTrip(req)
	if drop {
		if err == nil {
			resp.Body.Close()
		}
		return nil, ErrInjectedDrop
	}
	return resp, err
}
