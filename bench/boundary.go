package main

// The boundary pass of the traced run: the same logical payment and the
// same logical contract call timed at each successive public boundary —
// RPC client -> ServiceNode on a durable service -> ServiceNode on an
// in-memory service -> the lockstep core API -> bare secp256k1 — so a
// layer's self time is its boundary minus the next one in. Every
// boundary is timed once per iteration, interleaved, so drift hits all
// of them alike and the subtraction stays meaningful. The stack and its
// sum are printed beside the workload's own single-client latency, and
// the unexplained remainder is reported, not hidden.
//
// fsync latency on a shared disk drifts by tens of percent within
// seconds, so the iterations of the stack that is compared with a
// workload run BETWEEN that workload's in-path segments, not after them.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tinyevm"
	"tinyevm/internal/keccak"
	"tinyevm/internal/rpc"
	"tinyevm/internal/secp256k1"
)

// boundaryAmount is the fixed amount of the boundary pass's payment, so
// journal record sizes repeat exactly.
const boundaryAmount = 5

// durablePaysPerIter is how many payments one payIters iteration sends
// through the durable service: the untimed warm request, the timed RPC
// one, and the timed Go-API one.
const durablePaysPerIter = 3

// callBatch: a contract call costs microseconds; timed one at a time it
// would run cache-cold, which the workloads' tight loops never do. Each
// call boundary is timed over callBatch consecutive calls (three rounds
// of the three contracts).
const callBatch = 9

// stackEntry is one line of a cost stack.
type stackEntry struct {
	Name    string  `json:"name"`
	Us      float64 `json:"us"`
	Clamped bool    `json:"clamped,omitempty"`
}

// costStack is an outside-in list of self times that should sum to the
// outermost boundary.
type costStack struct {
	// Op names the workload whose single-client latency the stack is
	// compared with.
	Op      string       `json:"op"`
	Entries []stackEntry `json:"entries"`
	SumUs   float64      `json:"sum_us"`
	// OuterUs is the outermost boundary as the pass timed it itself.
	OuterUs float64 `json:"outer_us"`
}

// payFleet is one vehicle/meter pair with one open channel on a service.
type payFleet struct {
	dep     *deployment
	veh     *tinyevm.ServiceNode
	channel uint64
}

func newPayFleet(ctx context.Context, dir string, tr *tracer) (*payFleet, error) {
	dep, err := openDeployment("hub", dir, "wal", tr)
	if err != nil {
		return nil, err
	}
	f := &payFleet{dep: dep}
	fail := func(err error) (*payFleet, error) { dep.close(); return nil, err }
	if f.veh, err = addDevice(ctx, dep.svc, "veh-0"); err != nil {
		return fail(err)
	}
	meter, err := addDevice(ctx, dep.svc, "meter-0")
	if err != nil {
		return fail(err)
	}
	cs, err := f.veh.OpenChannel(ctx, meter.Address(), payChanDeposit, 0)
	if err != nil {
		return fail(err)
	}
	f.channel = cs.ID
	return f, nil
}

func (f *payFleet) pay(ctx context.Context) error {
	_, err := f.veh.Pay(ctx, f.channel, boundaryAmount)
	return err
}

// callFleet is one device with the three call-workload contracts.
type callFleet struct {
	dep   *deployment
	dev   *tinyevm.ServiceNode
	addrs []tinyevm.Address
	calls []contractCall
}

func newCallFleet(ctx context.Context, dir string, tr *tracer) (*callFleet, error) {
	dep, err := openDeployment("hub", dir, "wal", tr)
	if err != nil {
		return nil, err
	}
	f := &callFleet{dep: dep}
	fail := func(err error) (*callFleet, error) { dep.close(); return nil, err }
	if f.dev, err = addDevice(ctx, dep.svc, "dev-0"); err != nil {
		return fail(err)
	}
	if f.calls, err = callMix(f.dev.Address()); err != nil {
		return fail(err)
	}
	for _, cc := range f.calls {
		res, err := f.dev.DeployContract(ctx, cc.init)
		if err != nil {
			return fail(err)
		}
		if res.Err != nil {
			return fail(res.Err)
		}
		f.addrs = append(f.addrs, res.Address)
	}
	return f, nil
}

func (f *callFleet) call(ctx context.Context, i int) error {
	res, err := f.dev.CallContract(ctx, f.addrs[i], f.calls[i].input, 0)
	if err != nil {
		return err
	}
	return res.Err
}

// boundary holds the fleets of the pass and the samples so far. The
// durable services sit on the tracing store only for its counters
// (journal record sizes, puts per op); their spans are not kept. Pay and
// call use separate services so that each one's journal sequence — and
// with it the record sizes — does not depend on what the other did.
type boundary struct {
	ctx context.Context

	payTr, callTr *tracer
	durPay        *payFleet
	memPay        *payFleet
	durCall       *callFleet
	memCall       *callFleet
	gw            *gateway
	client        *rpc.Client
	closeIdle     func()

	// The lockstep core API: sender signs and sends, receiver verifies;
	// no service, no store. dev holds the contracts for the device
	// boundary (core.Node without the service).
	car, meter, dev *tinyevm.Node
	payChan         uint64
	devAddrs        []tinyevm.Address
	devCalls        []contractCall
	deployUs        []float64
	key             *secp256k1.PrivateKey

	samples               map[string][]float64
	durPayOps, durCallOps int
	iter                  int
}

func newBoundary(cfg *config) (b *boundary, err error) {
	ctx := context.Background()
	dir, err := os.MkdirTemp(cfg.Scratch, "boundary-")
	if err != nil {
		return nil, err
	}
	b = &boundary{ctx: ctx, samples: map[string][]float64{}, key: secp256k1.DeterministicKey("bench-boundary"),
		payTr: newTracer("boundary"), callTr: newTracer("boundary")}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if b.durPay, err = newPayFleet(ctx, filepath.Join(dir, "pay"), b.payTr); err != nil {
		return nil, err
	}
	if b.gw, err = startGateway(b.durPay.dep.svc, nil); err != nil {
		return nil, err
	}
	client, ht := newClient(b.gw.url, nil)
	b.client, b.closeIdle = client, ht.CloseIdleConnections
	if b.memPay, err = newPayFleet(ctx, "", nil); err != nil {
		return nil, err
	}
	if b.durCall, err = newCallFleet(ctx, filepath.Join(dir, "call"), b.callTr); err != nil {
		return nil, err
	}
	if b.memCall, err = newCallFleet(ctx, "", nil); err != nil {
		return nil, err
	}

	sys, _, err := tinyevm.NewSystem(tinyevm.DefaultConfig(), "hub")
	if err != nil {
		return nil, err
	}
	temp := func(uint64) (uint64, error) { return sensorValue, nil }
	for _, n := range []struct {
		name string
		slot **tinyevm.Node
	}{{"car", &b.car}, {"meter", &b.meter}, {"dev", &b.dev}} {
		node, err := sys.AddNode(n.name)
		if err != nil {
			return nil, err
		}
		node.RegisterSensor(tinyevm.SensorTemperature, temp)
		*n.slot = node
	}
	if b.payChan, err = b.lockstepOpen(); err != nil {
		return nil, err
	}
	if b.devCalls, err = callMix(b.dev.Address()); err != nil {
		return nil, err
	}
	for _, cc := range b.devCalls {
		t0 := time.Now()
		res := b.dev.DeployContract(cc.init)
		b.deployUs = append(b.deployUs, float64(time.Since(t0).Nanoseconds())/1e3)
		if res.Err != nil {
			return nil, res.Err
		}
		b.devAddrs = append(b.devAddrs, res.Address)
	}
	return b, nil
}

func (b *boundary) close() {
	if b.closeIdle != nil {
		b.closeIdle()
	}
	b.gw.close()
	for _, f := range []*payFleet{b.durPay, b.memPay} {
		if f != nil {
			f.dep.close()
		}
	}
	for _, f := range []*callFleet{b.durCall, b.memCall} {
		if f != nil {
			f.dep.close()
		}
	}
}

func (b *boundary) lockstepOpen() (uint64, error) {
	cs, err := b.car.OpenChannel(b.meter.Address(), payChanDeposit, 0)
	if err != nil {
		return 0, err
	}
	_, err = b.meter.AcceptChannel()
	return cs.ID, err
}

func (b *boundary) rec(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	if err != nil {
		return fmt.Errorf("boundary %s: %w", name, err)
	}
	b.samples[name] = append(b.samples[name], us)
	return nil
}

type boundaryStep struct {
	name string
	fn   func() error
}

func (b *boundary) run(steps []boundaryStep) error {
	for _, st := range steps {
		if err := b.rec(st.name, st.fn); err != nil {
			return err
		}
	}
	return nil
}

// payIters times each payment boundary once per iteration, n times.
func (b *boundary) payIters(n int) error {
	b.payTr.on.Store(true)
	defer b.payTr.on.Store(false)
	for i := 0; i < n; i++ {
		b.iter++
		// A fresh digest per iteration, as every payment has: scalar
		// multiplication time depends on the bits of its inputs.
		digest := tinyevm.Hash(keccak.Sum256([]byte{byte(b.iter), byte(b.iter >> 8), 0xb0}))
		var sig *secp256k1.Signature
		// An untimed request first: the timed one must find the
		// keep-alive connection and the server's goroutine as warm as a
		// closed-loop client finds them, not 25 ms idle.
		if _, err := b.client.Pay(b.ctx, b.durPay.veh.Name(), b.durPay.channel, boundaryAmount); err != nil {
			return fmt.Errorf("boundary rpc_pay: %w", err)
		}
		err := b.run([]boundaryStep{
			{"rpc_pay", func() error {
				_, err := b.client.Pay(b.ctx, b.durPay.veh.Name(), b.durPay.channel, boundaryAmount)
				return err
			}},
			{"durable_pay", func() error { return b.durPay.pay(b.ctx) }},
			{"mem_pay", func() error { return b.memPay.pay(b.ctx) }},
			{"core_pay", func() error {
				if _, err := b.car.Pay(b.payChan, boundaryAmount); err != nil {
					return err
				}
				_, err := b.meter.ReceivePayment()
				return err
			}},
			{"sign", func() (err error) { sig, err = b.key.Sign(digest); return }},
			{"recover", func() error { _, err := secp256k1.RecoverAddress(digest, sig); return err }},
		})
		if err != nil {
			return err
		}
		b.durPayOps += durablePaysPerIter
	}
	return nil
}

// callIters times each call boundary over one batch per iteration.
func (b *boundary) callIters(n int) error {
	b.callTr.on.Store(true)
	defer b.callTr.on.Store(false)
	batch := func(call func(k int) error) func() error {
		return func() error {
			for k := 0; k < callBatch; k++ {
				if err := call(k % len(b.devCalls)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for i := 0; i < n; i++ {
		err := b.run([]boundaryStep{
			{"durable_call", batch(func(k int) error { return b.durCall.call(b.ctx, k) })},
			{"mem_call", batch(func(k int) error { return b.memCall.call(b.ctx, k) })},
			{"core_call", batch(func(k int) error {
				return b.dev.CallContract(b.devAddrs[k], b.devCalls[k].input, 0).Err
			})},
		})
		if err != nil {
			return err
		}
		b.durCallOps += callBatch
	}
	return nil
}

// openCloseIters opens and closes through the lockstep API, a fresh
// channel each time.
func (b *boundary) openCloseIters(n int) error {
	for i := 0; i < n; i++ {
		var id uint64
		if err := b.rec("core_open", func() (err error) { id, err = b.lockstepOpen(); return }); err != nil {
			return err
		}
		if _, err := b.car.Pay(id, boundaryAmount); err != nil {
			return err
		}
		if _, err := b.meter.ReceivePayment(); err != nil {
			return err
		}
		err := b.rec("core_close", func() error {
			if _, err := b.car.CloseChannel(id); err != nil {
				return err
			}
			if _, err := b.meter.AcceptClose(); err != nil {
				return err
			}
			_, err := b.car.FinishClose()
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// finish turns the samples gathered so far into layer metrics and cost
// stacks; a stack appears only when its loop ran. It fails when durable
// ops ran but the store wrapper saw none of their writes: the journal no
// longer goes through the seam the harness watches, and journal.* would
// otherwise silently vanish from the report.
func (b *boundary) finish() (map[string]Metric, []costStack, error) {
	m := map[string]Metric{}
	med := func(name string) float64 {
		v := median(b.samples[name])
		if name == "durable_call" || name == "mem_call" || name == "core_call" {
			v /= callBatch
		}
		return v
	}
	put := func(name, sample string, v float64, clamped bool) {
		mt := Metric{Value: v, Unit: "us", Samples: len(b.samples[sample])}
		if clamped {
			mt.Note = "clamped: inner boundary measured slower than outer"
		}
		m[name] = mt
	}
	self := func(name, outer, inner string, extraInner float64) stackEntry {
		v, clamped := selfTime(med(outer), med(inner)+extraInner)
		put(name, outer, v, clamped)
		return stackEntry{Name: name, Us: v, Clamped: clamped}
	}
	var stacks []costStack
	if len(b.samples["rpc_pay"]) > 0 {
		put("secp256k1.sign_us", "sign", med("sign"), false)
		put("secp256k1.recover_us", "recover", med("recover"), false)
		put("protocol.pay_us", "core_pay", med("core_pay"), false)
		put("service.pay_us", "mem_pay", med("mem_pay"), false)
		stacks = append(stacks, costStack{Op: "pay_durable", OuterUs: med("rpc_pay"), Entries: []stackEntry{
			self("rpc.pay_self_us", "rpc_pay", "durable_pay", 0),
			self("journal.pay_self_us", "durable_pay", "mem_pay", 0),
			self("service.pay_self_us", "mem_pay", "core_pay", 0),
			self("protocol.pay_self_us", "core_pay", "sign", med("recover")),
			{Name: "secp256k1.sign_us", Us: med("sign")},
			{Name: "secp256k1.recover_us", Us: med("recover")},
		}})
	}
	if len(b.samples["durable_call"]) > 0 {
		put("service.call_us", "mem_call", med("mem_call"), false)
		put("device.call_us", "core_call", med("core_call"), false)
		m["device.deploy_us"] = Metric{Value: median(b.deployUs), Unit: "us", Samples: len(b.deployUs)}
		stacks = append(stacks, costStack{Op: "call_durable", OuterUs: med("durable_call"), Entries: []stackEntry{
			self("journal.call_self_us", "durable_call", "mem_call", 0),
			self("service.call_self_us", "mem_call", "core_call", 0),
			{Name: "device.call_us", Us: med("core_call")},
		}})
	}
	if len(b.samples["core_open"]) > 0 {
		put("protocol.open_us", "core_open", med("core_open"), false)
		put("protocol.close_us", "core_close", med("core_close"), false)
	}
	for i := range stacks {
		for _, e := range stacks[i].Entries {
			stacks[i].SumUs += e.Us
		}
	}

	puts, ops := 0, b.durPayOps+b.durCallOps
	for _, c := range []struct {
		tr   *tracer
		ops  int
		name string
	}{{b.payTr, b.durPayOps, "journal.record_bytes_pay"}, {b.callTr, b.durCallOps, "journal.record_bytes_call"}} {
		if c.ops == 0 {
			continue
		}
		c.tr.mu.Lock()
		puts += c.tr.putLat.n
		recB, recN := c.tr.recB, c.tr.recN
		c.tr.mu.Unlock()
		if recN == 0 {
			return nil, nil, fmt.Errorf("%s: %d durable ops wrote nothing through the store handed to WithStore", c.name, c.ops)
		}
		m[c.name] = Metric{Value: float64(recB) / float64(recN), Unit: "B", Samples: recN}
	}
	if ops > 0 {
		m["journal.puts_per_op"] = Metric{Value: float64(puts) / float64(ops), Unit: "count", Samples: ops}
	}
	return m, stacks, nil
}
