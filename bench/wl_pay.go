package main

// pay_durable — ROADMAP stopwatch 1: a payment from JSON-RPC request to
// durable acknowledgement, in the daemon's default configuration (wal
// backend, fsync on, checkpoint interval 64), over real loopback HTTP.
// Today almost all of it is secp256k1 + Keccak (one Sign, one
// RecoverAddress); the journal is its floor once crypto is cheap.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"

	"tinyevm"
	"tinyevm/internal/rpc"
)

const (
	payPairs       = 64
	quickPayPairs  = 4 // the self-test's fleet: a pair per client even with four clients
	payChansPer    = 4
	payChanDeposit = 1_000_000
)

// payChannel is one open channel and what its client saw acknowledged.
type payChannel struct {
	vehicle, meter *tinyevm.ServiceNode
	id             uint64
	acked, sum     uint64
}

type payClient struct {
	rpc   *rpc.Client
	ht    *http.Transport
	rng   *rand.Rand
	order []*payChannel // this client's half of the fleet, in seeded order
	next  int
}

type payWL struct {
	dep      *deployment
	gw       *gateway
	cl       []*payClient
	chans    []*payChannel
	balances map[tinyevm.Address]uint64
}

func (w *payWL) clients() int { return generatorClients() }

func (w *payWL) setup(cfg *config, tr *tracer) error {
	ctx := context.Background()
	dir, err := os.MkdirTemp(cfg.Scratch, "pay-")
	if err != nil {
		return err
	}
	dep, err := openDeployment("hub", dir, "wal", tr)
	if err != nil {
		return err
	}
	w.dep = dep
	pairs := payPairs
	if cfg.Quick {
		pairs = quickPayPairs
	}
	for p := 0; p < pairs; p++ {
		veh, err := addDevice(ctx, dep.svc, fmt.Sprintf("veh-%d", p))
		if err != nil {
			return err
		}
		meter, err := addDevice(ctx, dep.svc, fmt.Sprintf("meter-%d", p))
		if err != nil {
			return err
		}
		for c := 0; c < payChansPer; c++ {
			cs, err := veh.OpenChannel(ctx, meter.Address(), payChanDeposit, 0)
			if err != nil {
				return err
			}
			w.chans = append(w.chans, &payChannel{vehicle: veh, meter: meter, id: cs.ID})
		}
	}
	w.balances = make(map[tinyevm.Address]uint64)
	for _, n := range dep.svc.Nodes() {
		bal, err := dep.svc.BalanceOf(ctx, n.Address())
		if err != nil {
			return err
		}
		w.balances[n.Address()] = bal
	}
	if w.gw, err = startGateway(dep.svc, tr); err != nil {
		return err
	}
	// Each client owns a contiguous share of the pairs, so no channel is
	// ever paid by two clients, and walks it in seeded order.
	n := w.clients()
	per := len(w.chans) / n
	for c := 0; c < n; c++ {
		rng := clientRNG(cfg.Seed, c)
		share := append([]*payChannel(nil), w.chans[c*per:(c+1)*per]...)
		rng.Shuffle(len(share), func(i, j int) { share[i], share[j] = share[j], share[i] })
		client, ht := newClient(w.gw.url, tr)
		w.cl = append(w.cl, &payClient{rpc: client, ht: ht, rng: rng, order: share})
	}
	return nil
}

func (w *payWL) op(c int) (time.Duration, error) {
	cl := w.cl[c]
	ch := cl.order[cl.next%len(cl.order)]
	cl.next++
	amount := uint64(1 + cl.rng.Intn(9))
	t0 := time.Now()
	pay, err := cl.rpc.Pay(context.Background(), ch.vehicle.Name(), ch.id, amount)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	ch.acked++
	ch.sum += amount
	if pay.Seq != ch.acked || pay.Cumulative != ch.sum {
		return lat, fmt.Errorf("pay ack on %s/%d: seq %d cumulative %d, client recorded %d / %d",
			ch.vehicle.Name(), ch.id, pay.Seq, pay.Cumulative, ch.acked, ch.sum)
	}
	return lat, nil
}

// check: every channel's sequence number and cumulative amount, on both
// parties, equal the acknowledged payments its client recorded; chain
// balances did not move (off-chain payments never touch them) and no
// channel overspent its deposit.
func (w *payWL) check() []string {
	ctx := context.Background()
	var wrong []string
	for _, ch := range w.chans {
		cs, ok, err := ch.vehicle.Channel(ctx, ch.id)
		if err != nil || !ok {
			wrong = append(wrong, fmt.Sprintf("%s/%d: sender state unreadable: %v", ch.vehicle.Name(), ch.id, err))
			continue
		}
		if cs.Seq != ch.acked || cs.Cumulative != ch.sum || cs.Cumulative > cs.Deposit {
			wrong = append(wrong, fmt.Sprintf("%s/%d sender: seq %d cumulative %d deposit %d, acked %d / %d",
				ch.vehicle.Name(), ch.id, cs.Seq, cs.Cumulative, cs.Deposit, ch.acked, ch.sum))
		}
		peers, err := ch.meter.Channels(ctx)
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("%s: %v", ch.meter.Name(), err))
			continue
		}
		found := false
		for _, ps := range peers {
			if ps.WireID == cs.WireID && ps.Opener == ch.vehicle.Address() {
				found = true
				if ps.Seq != ch.acked || ps.Cumulative != ch.sum {
					wrong = append(wrong, fmt.Sprintf("%s/%d receiver: seq %d cumulative %d, acked %d / %d",
						ch.vehicle.Name(), ch.id, ps.Seq, ps.Cumulative, ch.acked, ch.sum))
				}
			}
		}
		if !found {
			wrong = append(wrong, fmt.Sprintf("%s/%d: receiver holds no such channel", ch.vehicle.Name(), ch.id))
		}
	}
	for addr, want := range w.balances {
		got, err := w.dep.svc.BalanceOf(ctx, addr)
		if err != nil || got != want {
			wrong = append(wrong, fmt.Sprintf("balance of %s: %d, was %d before the window (%v)", addr.Hex(), got, want, err))
		}
	}
	return wrong
}

func (w *payWL) layers(tr *tracer) map[string]Metric {
	m := storeLayers(tr)
	for k, v := range rpcLayers(tr) {
		m[k] = v
	}
	return m
}

func (w *payWL) pending() int { return pendingOps(w.dep) }

func (w *payWL) close() {
	for _, cl := range w.cl {
		cl.ht.CloseIdleConnections()
	}
	w.gw.close()
	w.dep.close()
}
