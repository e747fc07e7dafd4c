package protocol

import (
	"errors"
	"testing"
	"time"

	"tinyevm/internal/chain"
	"tinyevm/internal/device"
	"tinyevm/internal/radio"
)

// threeNodeNetwork builds car -> hub -> shop with open channels along
// the path, for routing tests.
type routeFixture struct {
	chain               *chain.Chain
	car, hub, shop      *Party
	carHubID, hubShopID uint64
}

func buildRoute(t *testing.T) *routeFixture {
	t.Helper()
	c := chain.New()
	net := radio.NewNetwork(radio.DefaultConfig(), 11)

	mk := func(name string) *Party {
		dev := device.New(name)
		dev.Sensors.RegisterValue(device.SensorTemperature, 2000)
		ep := net.Join(dev)
		tpl := InstallTemplate(c, dev.Address(), 10)
		c.Fund(dev.Address(), 100_000_000)
		party, err := NewParty(dev, ep, tpl.Addr, dev.Address())
		if err != nil {
			t.Fatal(err)
		}
		return party
	}
	f := &routeFixture{chain: c, car: mk("route-car"), hub: mk("route-hub"), shop: mk("route-shop")}

	cs1, err := f.car.OpenChannel(f.hub.Address(), 100_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.hub.AcceptChannel(); err != nil {
		t.Fatal(err)
	}
	f.carHubID = cs1.ID

	cs2, err := f.hub.OpenChannel(f.shop.Address(), 100_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.shop.AcceptChannel(); err != nil {
		t.Fatal(err)
	}
	f.hubShopID = cs2.ID
	return f
}

func TestSecretLockRoundTrip(t *testing.T) {
	s, lock, err := NewSecret()
	if err != nil {
		t.Fatal(err)
	}
	if s.Lock() != lock {
		t.Fatal("lock mismatch")
	}
	s2, lock2, _ := NewSecret()
	if s == s2 || lock == lock2 {
		t.Fatal("secrets not unique")
	}
}

func TestConditionalPaymentClaim(t *testing.T) {
	f := buildRoute(t)
	secret, lock, _ := NewSecret()

	pay, err := f.car.PayConditional(f.carHubID, 5_000, lock)
	if err != nil {
		t.Fatal(err)
	}
	if pay.HashLock != lock {
		t.Fatal("lock not attached")
	}
	// Sender state must NOT advance yet.
	cs, _ := f.car.Channel(f.carHubID)
	if cs.Cumulative != 0 || cs.Seq != 0 {
		t.Fatal("conditional payment advanced state before claim")
	}

	if _, err := f.hub.ReceiveConditional(); err != nil {
		t.Fatal(err)
	}
	hubCS, _ := f.hub.Channel(f.carHubID)
	if hubCS.Cumulative != 0 {
		t.Fatal("receiver state advanced before claim")
	}

	// Claim with the right preimage.
	if _, err := f.hub.ClaimConditional(f.carHubID, secret); err != nil {
		t.Fatal(err)
	}
	if _, err := f.car.AcceptClaim(); err != nil {
		t.Fatal(err)
	}
	if hubCS.Cumulative != 5_000 || hubCS.Seq != 1 {
		t.Fatalf("receiver state after claim: %+v", hubCS)
	}
	cs, _ = f.car.Channel(f.carHubID)
	if cs.Cumulative != 5_000 || cs.Seq != 1 {
		t.Fatalf("sender state after claim: cum=%d seq=%d", cs.Cumulative, cs.Seq)
	}
	// Logs extended on both sides.
	for _, p := range []*Party{f.car, f.hub} {
		var maxSeq uint64
		for _, e := range p.Log.Entries() {
			if e.ChannelID == f.carHubID {
				maxSeq = max(maxSeq, e.Seq)
			}
		}
		if maxSeq != 1 {
			t.Fatal("side-chain logs not extended")
		}
	}
}

func TestClaimWrongPreimageRejected(t *testing.T) {
	f := buildRoute(t)
	_, lock, _ := NewSecret()
	wrong, _, _ := NewSecret()

	if _, err := f.car.PayConditional(f.carHubID, 1_000, lock); err != nil {
		t.Fatal(err)
	}
	if _, err := f.hub.ReceiveConditional(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.hub.ClaimConditional(f.carHubID, wrong); !errors.Is(err, ErrWrongPreimage) {
		t.Fatalf("got %v, want ErrWrongPreimage", err)
	}
	// State still pending; the correct claim path remains open.
	hubCS, _ := f.hub.Channel(f.carHubID)
	if hubCS.PendingHTLC == nil || hubCS.Cumulative != 0 {
		t.Fatal("failed claim mutated state")
	}
}

func TestForgedClaimToSenderRejected(t *testing.T) {
	f := buildRoute(t)
	_, lock, _ := NewSecret()
	forged, _, _ := NewSecret()

	if _, err := f.car.PayConditional(f.carHubID, 1_000, lock); err != nil {
		t.Fatal(err)
	}
	if _, err := f.hub.ReceiveConditional(); err != nil {
		t.Fatal(err)
	}
	// The hub sends a claim with a wrong preimage directly.
	carCS0, _ := f.car.Channel(f.carHubID)
	claim := &HTLCClaim{Template: carCS0.Template, ChannelID: carCS0.WireID, Seq: 1, Preimage: forged}
	if _, err := f.hub.Radio.Send(f.car.Address(), EncodeHTLCClaim(claim)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.car.AcceptClaim(); !errors.Is(err, ErrWrongPreimage) {
		t.Fatalf("got %v, want ErrWrongPreimage", err)
	}
	carCS, _ := f.car.Channel(f.carHubID)
	if carCS.Cumulative != 0 {
		t.Fatal("forged claim advanced sender state")
	}
}

func TestOnlyOneOutstandingHTLC(t *testing.T) {
	f := buildRoute(t)
	_, lock, _ := NewSecret()
	if _, err := f.car.PayConditional(f.carHubID, 100, lock); err != nil {
		t.Fatal(err)
	}
	if _, err := f.car.PayConditional(f.carHubID, 100, lock); !errors.Is(err, ErrHTLCOutstanding) {
		t.Fatalf("got %v, want ErrHTLCOutstanding", err)
	}
}

func TestCancelConditional(t *testing.T) {
	f := buildRoute(t)
	_, lock, _ := NewSecret()
	if _, err := f.car.PayConditional(f.carHubID, 100, lock); err != nil {
		t.Fatal(err)
	}
	if _, err := f.hub.ReceiveConditional(); err != nil {
		t.Fatal(err)
	}
	if err := f.car.CancelConditional(f.carHubID); err != nil {
		t.Fatal(err)
	}
	if err := f.hub.CancelConditional(f.carHubID); err != nil {
		t.Fatal(err)
	}
	// A fresh ordinary payment works after cancellation.
	if _, err := f.car.Pay(f.carHubID, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := f.hub.ReceivePayment(); err != nil {
		t.Fatal(err)
	}
	if err := f.car.CancelConditional(f.carHubID); !errors.Is(err, ErrNoPendingHTLC) {
		t.Fatalf("got %v, want ErrNoPendingHTLC", err)
	}
}

// TestClosedChannelNeverAdvances: once a channel holds a doubly-signed
// final state, no conditional payment, claim or claim acceptance moves
// either side past it. Each row drives the car -> hub channel into a
// closed state and returns the steps that must be refused with
// ErrChannelClosed.
func TestClosedChannelNeverAdvances(t *testing.T) {
	closeChannel := func(t *testing.T, f *routeFixture) {
		t.Helper()
		if _, err := f.car.CloseChannel(f.carHubID); err != nil {
			t.Fatal(err)
		}
		if _, err := f.hub.AcceptClose(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.car.FinishClose(); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		name string
		run  func(t *testing.T, f *routeFixture, secret Secret) []error
	}{
		{"conditional payment after a one-sided reopen", func(t *testing.T, f *routeFixture, secret Secret) []error {
			closeChannel(t, f)
			if err := f.car.Reopen(f.carHubID); err != nil {
				t.Fatal(err)
			}
			if _, err := f.car.PayConditional(f.carHubID, 5_000, secret.Lock()); err != nil {
				t.Fatal(err)
			}
			_, err := f.hub.ReceiveConditional()
			return []error{err}
		}},
		{"claim of an HTLC outstanding at close", func(t *testing.T, f *routeFixture, secret Secret) []error {
			if _, err := f.car.PayConditional(f.carHubID, 5_000, secret.Lock()); err != nil {
				t.Fatal(err)
			}
			if _, err := f.hub.ReceiveConditional(); err != nil {
				t.Fatal(err)
			}
			closeChannel(t, f)
			_, claimErr := f.hub.ClaimConditional(f.carHubID, secret)
			// The hub reveals the preimage anyway; the car must not settle.
			cs, _ := f.hub.Channel(f.carHubID)
			claim := &HTLCClaim{Template: cs.Template, ChannelID: cs.WireID, Seq: 1, Preimage: secret}
			if _, err := f.hub.Radio.Send(f.car.Address(), EncodeHTLCClaim(claim)); err != nil {
				t.Fatal(err)
			}
			_, acceptErr := f.car.AcceptClaim()
			return []error{claimErr, acceptErr}
		}},
		{"close request after a one-sided reopen", func(t *testing.T, f *routeFixture, _ Secret) []error {
			closeChannel(t, f)
			if err := f.car.Reopen(f.carHubID); err != nil {
				t.Fatal(err)
			}
			if _, err := f.car.CloseChannel(f.carHubID); err != nil {
				t.Fatal(err)
			}
			_, err := f.hub.AcceptClose()
			return []error{err}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := buildRoute(t)
			secret, _, err := NewSecret()
			if err != nil {
				t.Fatal(err)
			}
			for i, err := range row.run(t, f, secret) {
				if !errors.Is(err, ErrChannelClosed) {
					t.Errorf("step %d: got %v, want ErrChannelClosed", i, err)
				}
			}
			if hub, _ := f.hub.Channel(f.carHubID); !hub.Closed() {
				t.Error("hub's channel reopened")
			}
			for _, p := range []*Party{f.car, f.hub} {
				cs, _ := p.Channel(f.carHubID)
				if cs.Closed() && (cs.Seq != cs.Final.Seq || cs.Cumulative != cs.Final.Cumulative) {
					t.Errorf("%s holds state (seq %d, cum %d) beside final (seq %d, cum %d)",
						p.Dev.Name, cs.Seq, cs.Cumulative, cs.Final.Seq, cs.Final.Cumulative)
				}
			}
		})
	}
}

func TestRoutePaymentTwoHops(t *testing.T) {
	f := buildRoute(t)
	const amount, fee = 10_000, 250

	route := []RouteHop{
		{From: f.car, ChannelID: f.carHubID},
		{From: f.hub, ChannelID: f.hubShopID},
	}
	if _, err := RoutePayment(route, f.shop, amount, fee); err != nil {
		t.Fatal(err)
	}

	// The car paid amount + one hop fee; the shop received the amount;
	// the hub's two channels net out to +fee.
	carCS, _ := f.car.Channel(f.carHubID)
	if carCS.Cumulative != amount+fee {
		t.Fatalf("car paid %d, want %d", carCS.Cumulative, amount+fee)
	}
	shopCS, _ := f.shop.Channel(f.hubShopID)
	if shopCS.Cumulative != amount {
		t.Fatalf("shop received %d, want %d", shopCS.Cumulative, amount)
	}
	hubIn, _ := f.hub.Channel(f.carHubID)
	hubOut, _ := f.hub.Channel(f.hubShopID)
	if hubIn.Cumulative-hubOut.Cumulative != fee {
		t.Fatalf("hub earned %d, want %d", hubIn.Cumulative-hubOut.Cumulative, fee)
	}

	// Everything settled: no pending HTLCs anywhere.
	for _, cs := range []*ChannelState{carCS, shopCS, hubIn, hubOut} {
		if cs.PendingHTLC != nil {
			t.Fatal("pending HTLC left after route")
		}
	}
}

func TestRoutePaymentRepeats(t *testing.T) {
	f := buildRoute(t)
	route := []RouteHop{
		{From: f.car, ChannelID: f.carHubID},
		{From: f.hub, ChannelID: f.hubShopID},
	}
	for i := 0; i < 3; i++ {
		if _, err := RoutePayment(route, f.shop, 1_000, 50); err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
	}
	shopCS, _ := f.shop.Channel(f.hubShopID)
	if shopCS.Cumulative != 3_000 {
		t.Fatalf("shop total %d", shopCS.Cumulative)
	}
	if shopCS.Seq != 3 {
		t.Fatalf("shop seq %d", shopCS.Seq)
	}
}

func TestRouteValidation(t *testing.T) {
	f := buildRoute(t)
	if _, err := RoutePayment(nil, f.shop, 1, 0); !errors.Is(err, ErrRouteTooShort) {
		t.Fatalf("got %v, want ErrRouteTooShort", err)
	}
}

func TestHTLCClaimCodec(t *testing.T) {
	secret, _, _ := NewSecret()
	c := &HTLCClaim{ChannelID: 7, Seq: 3, Preimage: secret}
	got, err := DecodeHTLCClaim(EncodeHTLCClaim(c))
	if err != nil {
		t.Fatal(err)
	}
	if got.ChannelID != 7 || got.Seq != 3 || got.Preimage != secret {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := DecodeHTLCClaim([]byte{byte(MsgPayment)}); !errors.Is(err, ErrBadMsgType) {
		t.Fatal("wrong type accepted")
	}
	if _, err := DecodeHTLCClaim(EncodeHTLCClaim(c)[:20]); err == nil {
		t.Fatal("truncated claim accepted")
	}
}

func TestConditionalEnergyCharged(t *testing.T) {
	// HTLC operations must charge the crypto engine like ordinary
	// payments: a signature on lock, a verification on receive.
	f := buildRoute(t)
	secret, lock, _ := NewSecret()

	const tick = 30 * time.Microsecond
	before := f.car.Dev.Energest.Elapsed(device.StateCrypto)
	if _, err := f.car.PayConditional(f.carHubID, 100, lock); err != nil {
		t.Fatal(err)
	}
	if got := f.car.Dev.Energest.Elapsed(device.StateCrypto) - before; got < device.ECDSASignTime-tick {
		t.Fatalf("sender crypto %v", got)
	}

	beforeHub := f.hub.Dev.Energest.Elapsed(device.StateCrypto)
	if _, err := f.hub.ReceiveConditional(); err != nil {
		t.Fatal(err)
	}
	if got := f.hub.Dev.Energest.Elapsed(device.StateCrypto) - beforeHub; got < device.ECDSAVerifyTime-tick {
		t.Fatalf("receiver crypto %v", got)
	}
	if _, err := f.hub.ClaimConditional(f.carHubID, secret); err != nil {
		t.Fatal(err)
	}
	if _, err := f.car.AcceptClaim(); err != nil {
		t.Fatal(err)
	}
}

// TestChannelIDCollisionAcrossTemplates is the regression test for the
// wire-identity fix: a node that first ACCEPTS a channel with logical
// clock N (from the peer's template) and then OPENS its own channel that
// also gets clock N must keep both channels usable.
func TestChannelIDCollisionAcrossTemplates(t *testing.T) {
	c := chain.New()
	net := radio.NewNetwork(radio.DefaultConfig(), 33)

	mk := func(name string) *Party {
		dev := device.New(name)
		dev.Sensors.RegisterValue(device.SensorTemperature, 2000)
		ep := net.Join(dev)
		tpl := InstallTemplate(c, dev.Address(), 10)
		c.Fund(dev.Address(), 100_000_000)
		party, err := NewParty(dev, ep, tpl.Addr, dev.Address())
		if err != nil {
			t.Fatal(err)
		}
		return party
	}
	a, b, z := mk("collide-a"), mk("collide-b"), mk("collide-c")

	// b ACCEPTS a channel first: wire id 1 under a's template.
	csA, err := a.OpenChannel(b.Address(), 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AcceptChannel(); err != nil {
		t.Fatal(err)
	}
	// b then OPENS its own channel; its template's clock yields... some
	// id that may collide with the accepted one. Both must survive.
	csB, err := b.OpenChannel(z.Address(), 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := z.AcceptChannel(); err != nil {
		t.Fatal(err)
	}

	// Payment over the FIRST channel still reaches b's correct state.
	if _, err := a.Pay(csA.ID, 100); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReceivePayment()
	if err != nil {
		t.Fatalf("collision broke inbound channel: %v", err)
	}
	if got.Cumulative != 100 {
		t.Fatalf("cumulative %d", got.Cumulative)
	}
	// And b's own outbound channel works independently.
	if _, err := b.Pay(csB.ID, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := z.ReceivePayment(); err != nil {
		t.Fatal(err)
	}
	// b holds two distinct channel records.
	inCS, ok1 := b.channelByWire(a.OnChainTemplate, csA.WireID, a.Address())
	outCS, ok2 := b.channelByWire(b.OnChainTemplate, csB.WireID, b.Address())
	if !ok1 || !ok2 || inCS == outCS {
		t.Fatal("channel records collided")
	}
	if inCS.Cumulative != 100 || outCS.Cumulative != 200 {
		t.Fatalf("states crossed: in=%d out=%d", inCS.Cumulative, outCS.Cumulative)
	}
}
