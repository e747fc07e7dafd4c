package protocol

import (
	"bytes"
	"reflect"
	"testing"

	"tinyevm/internal/device"
	"tinyevm/internal/radio"
	"tinyevm/internal/types"
)

// deliverFixture is a hub holding one channel the car opened to it,
// with one conditional payment from the hub to the car outstanding on
// it, and a fixed secret for the car's claim. It is deterministic, so a
// frame the car produces on one fixture is valid on every fresh one.
type deliverFixture struct {
	car, hub *Party
	channel  uint64 // the car's handle; the hub's is the same
	secret   Secret
}

func newDeliverFixture(t testing.TB) *deliverFixture {
	t.Helper()
	net := radio.NewNetwork(radio.DefaultConfig(), 5)
	mk := func(name string) *Party {
		dev := device.New(name)
		dev.Sensors.RegisterValue(device.SensorTemperature, 2000)
		party, err := NewParty(dev, net.Join(dev), types.Address{0x7e}, dev.Address())
		if err != nil {
			t.Fatal(err)
		}
		return party
	}
	f := &deliverFixture{car: mk("deliver-car"), hub: mk("deliver-hub"), secret: Secret{0x5e}}
	cs, err := f.car.OpenChannel(f.hub.Address(), 100_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.channel = cs.ID
	if _, err := f.hub.AcceptChannel(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.hub.PayConditional(f.channel, 3_000, f.secret.Lock()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.car.ReceiveConditional(); err != nil {
		t.Fatal(err)
	}
	return f
}

// deliverFrame runs one car action on a fresh fixture and returns the
// frame it left in the inbox of the party to.
func deliverFrame(t testing.TB, act func(f *deliverFixture) (to *Party, err error)) []byte {
	t.Helper()
	f := newDeliverFixture(t)
	to, err := act(f)
	if err != nil {
		t.Fatal(err)
	}
	msg, ok := to.Radio.Receive()
	if !ok {
		t.Fatal("action sent no frame")
	}
	return msg.Payload
}

// refusedSeed is the one seed the hub refuses: a conditional payment on
// a channel with an HTLC outstanding.
const refusedSeed = 3

// deliverSeeds returns one valid frame from the car of every message
// type: sensor data, a second channel, a plain payment, a conditional
// one, a close request, a close ack and the claim of the hub's
// conditional payment.
func deliverSeeds(t testing.TB) [][]byte {
	return [][]byte{
		deliverFrame(t, func(f *deliverFixture) (*Party, error) {
			_, err := f.car.SendSensorReadings(f.hub.Address(), []SensorReading{{1, 2150}, {2, 40}})
			return f.hub, err
		}),
		deliverFrame(t, func(f *deliverFixture) (*Party, error) {
			_, err := f.car.OpenChannel(f.hub.Address(), 50_000, 0)
			return f.hub, err
		}),
		deliverFrame(t, func(f *deliverFixture) (*Party, error) {
			_, err := f.car.Pay(f.channel, 100)
			return f.hub, err
		}),
		deliverFrame(t, func(f *deliverFixture) (*Party, error) {
			cs, _ := f.car.Channel(f.channel)
			pay := &Payment{
				Template: cs.Template, Channel: cs.Addr, ChannelID: cs.WireID,
				Seq: 1, Cumulative: 200, SensorValue: cs.SensorValue, HashLock: Secret{0x77}.Lock(),
			}
			var err error
			pay.Sig, err = f.car.Dev.Crypto.Sign(pay.Digest())
			if err == nil {
				_, err = f.car.Radio.Send(f.hub.Address(), EncodePayment(pay))
			}
			return f.hub, err
		}),
		deliverFrame(t, func(f *deliverFixture) (*Party, error) {
			_, err := f.car.CloseChannel(f.channel)
			return f.hub, err
		}),
		deliverFrame(t, func(f *deliverFixture) (*Party, error) {
			// The hub's ack of the car's close, planted back on the hub.
			if _, err := f.car.CloseChannel(f.channel); err != nil {
				return nil, err
			}
			_, err := f.hub.AcceptClose()
			return f.car, err
		}),
		deliverFrame(t, func(f *deliverFixture) (*Party, error) {
			_, err := f.car.ClaimConditional(f.channel, f.secret)
			return f.hub, err
		}),
	}
}

// partyState is a deep copy of a party's channel table and side-chain
// log.
type partyState struct {
	channels []ChannelState
	log      []LogEntry
}

func snapshotParty(p *Party) partyState {
	s := partyState{log: p.Log.Entries()}
	for _, cs := range p.ChannelList() {
		c := *cs
		for _, pay := range []**Payment{&c.LastPayment, &c.PendingHTLC} {
			if *pay != nil {
				cp := **pay
				*pay = &cp
			}
		}
		if c.Final != nil {
			fs := *c.Final
			c.Final = &fs
		}
		s.channels = append(s.channels, c)
	}
	return s
}

// TestDeliverSeedsAccepted: every seed but refusedSeed is accepted on a
// fresh fixture, so the fuzzer starts from frames that reach the end of
// each handler.
func TestDeliverSeedsAccepted(t *testing.T) {
	for i, frame := range deliverSeeds(t) {
		f := newDeliverFixture(t)
		if _, err := f.car.Radio.Send(f.hub.Address(), frame); err != nil {
			t.Fatal(err)
		}
		if _, err := f.hub.Deliver(); (err != nil) != (i == refusedSeed) {
			t.Errorf("seed %d (type %d): %v", i, frame[0], err)
		}
	}
}

// FuzzPartyDeliver plants arbitrary bytes as a frame from the car on the
// hub and delivers it: no input may panic, and a frame the hub refuses
// leaves every field of its channel table and its side-chain log as
// they were (the energy meter may move).
func FuzzPartyDeliver(f *testing.F) {
	for _, frame := range deliverSeeds(f) {
		f.Add(frame)
		f.Add(append(bytes.Clone(frame), 0xff))
		f.Add(frame[:len(frame)/2])
		flipped := bytes.Clone(frame)
		flipped[len(flipped)-1] ^= 0x01
		f.Add(flipped)
		retyped := bytes.Clone(frame)
		retyped[0] = retyped[0]%6 + 1
		f.Add(retyped)
	}
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 {
			return // the radio carries no empty payload
		}
		fx := newDeliverFixture(t)
		before := snapshotParty(fx.hub)
		if _, err := fx.car.Radio.Send(fx.hub.Address(), frame); err != nil {
			t.Fatal(err)
		}
		d, err := fx.hub.Deliver()
		if err == nil {
			if d.Type != MsgType(frame[0]) {
				t.Fatalf("delivered type %d, frame type %d", d.Type, frame[0])
			}
			return
		}
		if d != (Delivery{}) {
			t.Fatalf("refused frame returned %+v", d)
		}
		if after := snapshotParty(fx.hub); !reflect.DeepEqual(after, before) {
			t.Fatalf("refused frame (%v) changed the hub:\nbefore %+v\nafter  %+v", err, before, after)
		}
	})
}
