package main

// session_onchain — the full channel lifecycle through JSON-RPC on the
// disk backend: deposit (seals a block) -> openChannel to the provider
// -> 4 x pay -> closeChannel -> provider commit (seals a block). It
// uses the layers pay_durable uses, differently: exclusive-lock global
// ops interleave with the other client's sharded ops; chain seal, state
// digest and persistSeal run; the store sees multi-key atomic batches,
// checkpoints, memtable flushes and background compaction instead of
// single-record puts. A gain for the sharded path or the WAL that costs
// the exclusive path or the disk backend shows here.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tinyevm"
	"tinyevm/internal/rpc"
)

const (
	sessionDeposit = 100
	sessionPays    = 4
	providerName   = "hub"
)

// sessionClient is one vehicle driving sessions over its own connection.
type sessionClient struct {
	rpc     *rpc.Client
	ht      *http.Transport
	rng     *rand.Rand
	vehicle string
	addr    string
	// maxHandles bounds the provider-handle search: one collision per
	// other vehicle at most.
	maxHandles int
}

func newSessionClient(ctx context.Context, url string, tr *tracer, name string, rng *rand.Rand, vehicles int) (*sessionClient, error) {
	client, ht := newClient(url, tr)
	// tinyevm_addNode registers the default sensor, journaled.
	info, err := client.AddNode(ctx, name)
	if err != nil {
		ht.CloseIdleConnections()
		return nil, err
	}
	return &sessionClient{
		rpc: client, ht: ht, vehicle: info.Name, addr: info.Address,
		rng: rng, maxHandles: vehicles,
	}, nil
}

// providerHandle finds the provider's local handle for the channel the
// vehicle just opened. The handle is the wire id unless another
// vehicle's channel with the same wire id got there first, in which
// case the provider moved it out by 1<<32 per collision.
func (cl *sessionClient) providerHandle(ctx context.Context, wireID uint64) (uint64, error) {
	for i := 0; i < cl.maxHandles; i++ {
		h := wireID + uint64(i)<<32
		ch, err := cl.rpc.Channel(ctx, providerName, h)
		if err != nil {
			return 0, err
		}
		if ch.WireID == wireID && ch.Opener == cl.addr {
			return h, nil
		}
	}
	return 0, fmt.Errorf("provider holds no channel %d opened by %s", wireID, cl.vehicle)
}

// session runs one lifecycle and fails on any receipt whose Status is
// false or any ack that disagrees with what was sent.
func (cl *sessionClient) session(ctx context.Context) error {
	r, err := cl.rpc.Deposit(ctx, cl.vehicle, sessionDeposit)
	if err != nil {
		return fmt.Errorf("deposit: %w", err)
	}
	if !r.Status {
		return fmt.Errorf("deposit receipt: %s", r.Error)
	}
	ch, err := cl.rpc.OpenChannel(ctx, cl.vehicle, providerName, sessionDeposit, 0)
	if err != nil {
		return fmt.Errorf("openChannel: %w", err)
	}
	var sum uint64
	for i := uint64(1); i <= sessionPays; i++ {
		amount := uint64(1 + cl.rng.Intn(9))
		sum += amount
		pay, err := cl.rpc.Pay(ctx, cl.vehicle, ch.ID, amount)
		if err != nil {
			return fmt.Errorf("pay: %w", err)
		}
		if pay.Seq != i || pay.Cumulative != sum {
			return fmt.Errorf("pay ack seq %d cumulative %d, sent %d / %d", pay.Seq, pay.Cumulative, i, sum)
		}
	}
	fs, err := cl.rpc.CloseChannel(ctx, cl.vehicle, ch.ID)
	if err != nil {
		return fmt.Errorf("closeChannel: %w", err)
	}
	if !fs.Signed || fs.Cumulative != sum {
		return fmt.Errorf("final state signed=%v cumulative %d, paid %d", fs.Signed, fs.Cumulative, sum)
	}
	handle, err := cl.providerHandle(ctx, ch.WireID)
	if err != nil {
		return err
	}
	if r, err = cl.rpc.Commit(ctx, providerName, handle); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	if !r.Status {
		return fmt.Errorf("commit receipt: %s", r.Error)
	}
	return nil
}

type sessionWL struct {
	dep *deployment
	gw  *gateway
	cl  []*sessionClient
	dir string
}

func (w *sessionWL) clients() int { return generatorClients() }

// openSessionService opens the session deployment on the disk backend
// under dir and serves it over loopback.
func openSessionService(ctx context.Context, dir string, tr *tracer, extra ...tinyevm.Option) (*deployment, *gateway, error) {
	dep, err := openDeployment(providerName, dir, "disk", tr, extra...)
	if err != nil {
		return nil, nil, err
	}
	if err := dep.provider.RegisterSensorValue(ctx, tinyevm.SensorTemperature, sensorValue); err != nil {
		dep.close()
		return nil, nil, err
	}
	gw, err := startGateway(dep.svc, tr)
	if err != nil {
		dep.close()
		return nil, nil, err
	}
	return dep, gw, nil
}

func (w *sessionWL) setup(cfg *config, tr *tracer) error {
	ctx := context.Background()
	var err error
	if w.dir, err = os.MkdirTemp(cfg.Scratch, "session-"); err != nil {
		return err
	}
	if w.dep, w.gw, err = openSessionService(ctx, w.dir, tr); err != nil {
		return err
	}
	for c := 0; c < w.clients(); c++ {
		cl, err := newSessionClient(ctx, w.gw.url, tr, fmt.Sprintf("veh-%d", c), clientRNG(cfg.Seed, c), w.clients())
		if err != nil {
			return err
		}
		w.cl = append(w.cl, cl)
	}
	return nil
}

func (w *sessionWL) op(c int) (time.Duration, error) {
	t0 := time.Now()
	err := w.cl[c].session(context.Background())
	return time.Since(t0), err
}

// check is the untimed teardown: exit -> runChallengePeriod -> settle,
// every receipt true, and the template reports settled.
func (w *sessionWL) check() []string {
	ctx := context.Background()
	cl := w.cl[0]
	var wrong []string
	fail := func(what string, err error) []string {
		return append(wrong, fmt.Sprintf("teardown %s: %v", what, err))
	}
	r, err := cl.rpc.Exit(ctx, cl.vehicle)
	if err != nil {
		return fail("exit", err)
	}
	if !r.Status {
		return fail("exit receipt", fmt.Errorf("%s", r.Error))
	}
	if err := cl.rpc.RunChallengePeriod(ctx); err != nil {
		return fail("runChallengePeriod", err)
	}
	if r, err = cl.rpc.Settle(ctx, providerName); err != nil {
		return fail("settle", err)
	}
	if !r.Status {
		return fail("settle receipt", fmt.Errorf("%s", r.Error))
	}
	settled, err := w.dep.svc.TemplateSettled(ctx)
	if err != nil || !settled {
		return fail("TemplateSettled", fmt.Errorf("settled=%v err=%v", settled, err))
	}
	return nil
}

func (w *sessionWL) layers(tr *tracer) map[string]Metric {
	m := storeLayers(tr)
	for k, v := range rpcLayers(tr) {
		m[k] = v
	}
	for k, v := range diskLayers(tr, w.dep, filepath.Join(w.dir, "store")) {
		m[k] = v
	}
	return m
}

func (w *sessionWL) pending() int { return pendingOps(w.dep) }

func (w *sessionWL) close() {
	for _, cl := range w.cl {
		cl.ht.CloseIdleConnections()
	}
	w.gw.close()
	w.dep.close()
}
