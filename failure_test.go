package tinyevm

import (
	"testing"

	"tinyevm/internal/device"
	"tinyevm/internal/radio"
)

// Failure injection: the protocol must survive a lossy 802.15.4 link
// (retransmissions) and fail cleanly — never corrupt state — when the
// link is beyond repair.

func lossySystem(t *testing.T, loss float64) (*System, *Node, *Node) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RadioLossRate = loss
	cfg.RadioSeed = 99
	sys, lot, err := NewSystem(cfg, "lossy-lot")
	if err != nil {
		t.Fatal(err)
	}
	lot.RegisterSensor(device.SensorTemperature, func(uint64) (uint64, error) { return 2000, nil })
	car, err := sys.AddNode("lossy-car")
	if err != nil {
		t.Fatal(err)
	}
	car.RegisterSensor(device.SensorTemperature, func(uint64) (uint64, error) { return 2000, nil })
	return sys, lot, car
}

func TestProtocolSurvivesLossyLink(t *testing.T) {
	// 30% frame loss: TSCH retransmissions must carry the full channel
	// lifecycle through.
	_, lot, car := lossySystem(t, 0.30)
	car.Dev.TraceEnabled, lot.Dev.TraceEnabled = true, true

	cs, err := car.OpenChannel(lot.Address(), 10_000, 0)
	if err != nil {
		t.Fatalf("open over lossy link: %v", err)
	}
	if _, err := lot.AcceptChannel(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := car.Pay(cs.ID, 100); err != nil {
			t.Fatalf("pay %d: %v", i, err)
		}
		if _, err := lot.ReceivePayment(); err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
	}
	if _, err := car.CloseChannel(cs.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := lot.AcceptClose(); err != nil {
		t.Fatal(err)
	}
	final, err := car.FinishClose()
	if err != nil {
		t.Fatal(err)
	}
	if final.Cumulative != 500 {
		t.Fatalf("cumulative %d", final.Cumulative)
	}
	// The loss process really fired: a sender waited out a missing ACK.
	acked := true
	for _, n := range []*Node{car, lot} {
		for _, s := range n.Dev.Trace.Samples() {
			acked = acked && s.Label != "ack timeout"
		}
	}
	if acked {
		t.Fatal("no frames lost at 30% loss")
	}
	// Retransmissions cost real radio energy.
	if car.Dev.Energest.Elapsed(device.StateTX) == 0 {
		t.Fatal("no TX energy charged")
	}
	// Logs remain consistent on both sides.
	if err := car.Log.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := lot.Log.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolFailsCleanlyOnDeadLink(t *testing.T) {
	// 100% loss: the send must fail with the radio's link error and the
	// channel state must stay un-advanced on the sender.
	_, lot, car := lossySystem(t, 1.0)

	_, err := car.OpenChannel(lot.Address(), 10_000, 0)
	if err == nil {
		t.Fatal("open succeeded over a dead link")
	}
	// The failure must surface the link-layer cause.
	if !containsErr(err, radio.ErrLinkFailure) {
		t.Fatalf("got %v, want ErrLinkFailure in chain", err)
	}
}

func containsErr(err, target error) bool {
	for e := err; e != nil; {
		if e == target {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func TestLossyLinkCostsMoreEnergy(t *testing.T) {
	// The same lifecycle under loss must cost strictly more radio time
	// than under a clean link (retransmissions are not free).
	run := func(loss float64) (tx, rx int64) {
		_, lot, car := lossySystem(t, loss)
		cs, err := car.OpenChannel(lot.Address(), 10_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lot.AcceptChannel(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := car.Pay(cs.ID, 10); err != nil {
				t.Fatal(err)
			}
			if _, err := lot.ReceivePayment(); err != nil {
				t.Fatal(err)
			}
		}
		return int64(car.Dev.Energest.Elapsed(device.StateTX)),
			int64(car.Dev.Energest.Elapsed(device.StateRX))
	}
	cleanTX, _ := run(0)
	lossyTX, _ := run(0.3)
	if lossyTX <= cleanTX {
		t.Fatalf("lossy TX %d <= clean TX %d", lossyTX, cleanTX)
	}
}
