package main

// call_mem / call_durable — the paper's core act, a contract executing
// ON the device, through ServiceNode.CallContract (the Go API; no RPC
// method exists). call_mem bypasses crypto, journal, RPC and chain:
// what is left is service stripe locking, device accounting and the
// EVM's per-call fixed cost. call_durable runs the identical calls on a
// service opened with WithDataDir (wal, fsync on), where the op-record
// encode + WAL append + fsync under the sequencer lock is almost all of
// the latency — so call_durable minus call_mem IS the journal's cost.

import (
	"context"
	"fmt"
	"os"
	"time"

	"tinyevm"
)

// callDevice is one client's device and its three deployed contracts.
type callDevice struct {
	node       *tinyevm.ServiceNode
	calls      []contractCall
	addrs      []tinyevm.Address
	next       int
	increments uint64 // acknowledged counter increments
}

type callWL struct {
	durable bool
	dep     *deployment
	devs    []*callDevice
}

func (w *callWL) clients() int { return generatorClients() }

func (w *callWL) setup(cfg *config, tr *tracer) error {
	ctx := context.Background()
	dir := ""
	if w.durable {
		var err error
		if dir, err = os.MkdirTemp(cfg.Scratch, "call-"); err != nil {
			return err
		}
	}
	dep, err := openDeployment("hub", dir, "wal", tr)
	if err != nil {
		return err
	}
	w.dep = dep
	for c := 0; c < w.clients(); c++ {
		node, err := addDevice(ctx, dep.svc, fmt.Sprintf("dev-%d", c))
		if err != nil {
			return err
		}
		mix, err := callMix(node.Address())
		if err != nil {
			return err
		}
		// The seed picks where in the round-robin each device starts.
		dev := &callDevice{node: node, calls: mix, next: clientRNG(cfg.Seed, c).Intn(len(mix))}
		for _, cc := range mix {
			res, err := node.DeployContract(ctx, cc.init)
			if err != nil {
				return err
			}
			if res.Err != nil {
				return fmt.Errorf("deploying %s: %w", cc.name, res.Err)
			}
			dev.addrs = append(dev.addrs, res.Address)
		}
		w.devs = append(w.devs, dev)
	}
	return nil
}

// op calls the device's three contracts round-robin and checks the
// return data of each: transfer returns true, the counter returns the
// acknowledged increments + 1, sensorData() returns the registered
// sensor value.
func (w *callWL) op(c int) (time.Duration, error) {
	dev := w.devs[c]
	i := dev.next % len(dev.calls)
	dev.next++
	t0 := time.Now()
	res, err := dev.node.CallContract(context.Background(), dev.addrs[i], dev.calls[i].input, 0)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if res.Err != nil {
		return lat, fmt.Errorf("%s: %w", dev.calls[i].name, res.Err)
	}
	got, ok := wordUint(res.ReturnData)
	want := uint64(1)
	switch dev.calls[i].name {
	case "counter":
		dev.increments++
		want = dev.increments
	case "sensor":
		want = sensorValue
	}
	if !ok || got != want {
		return lat, fmt.Errorf("%s returned %x, want %d", dev.calls[i].name, res.ReturnData, want)
	}
	return lat, nil
}

// check: the counter's stored value equals the acknowledged increments
// (one more call must return exactly acked+1).
func (w *callWL) check() []string {
	var wrong []string
	for _, dev := range w.devs {
		res, err := dev.node.CallContract(context.Background(), dev.addrs[1], nil, 0)
		got, ok := wordUint(res.ReturnData)
		if err != nil || res.Err != nil || !ok || got != dev.increments+1 {
			wrong = append(wrong, fmt.Sprintf("%s counter holds %d after %d acknowledged increments (%v %v)",
				dev.node.Name(), got-1, dev.increments, err, res.Err))
		}
		dev.increments++
	}
	return wrong
}

func (w *callWL) layers(tr *tracer) map[string]Metric { return storeLayers(tr) }

func (w *callWL) pending() int { return pendingOps(w.dep) }

func (w *callWL) close() { w.dep.close() }
