package protocol

import (
	"fmt"
	"time"

	"tinyevm/internal/chain"
	"tinyevm/internal/device"
	"tinyevm/internal/radio"
)

// Scenario wires up the full smart-parking experiment: a chain with a
// provider template, two devices (car and parking sensor) joined by a
// TSCH network, and funded chain accounts.
type Scenario struct {
	Chain    *chain.Chain
	Template *Template
	Network  *radio.Network
	Car      *Party
	Lot      *Party
}

// NewScenario builds the standard two-party setup used by the tests,
// examples and benchmarks. Seed fixes the radio loss process.
func NewScenario(seed int64) (*Scenario, error) {
	c := chain.New()

	carDev := device.New("smart-car")
	lotDev := device.New("parking-sensor")

	// Sensors from the application scenario (§III-A): the lot senses
	// occupancy and temperature; the car knows its distance to the spot.
	lotDev.Sensors.RegisterValue(device.SensorTemperature, 2150)
	lotDev.Sensors.RegisterValue(device.SensorOccupancy, 1)
	carDev.Sensors.RegisterValue(device.SensorTemperature, 2150)
	carDev.Sensors.RegisterValue(device.SensorDistance, 120)

	net := radio.NewNetwork(radio.DefaultConfig(), seed)
	carEp := net.Join(carDev)
	lotEp := net.Join(lotDev)

	tpl := InstallTemplate(c, lotDev.Address(), 10)

	// Chain balances cover deposits plus gas prepayment (gas limit *
	// price is escrowed per transaction before refund).
	c.Fund(carDev.Address(), 100_000_000)
	c.Fund(lotDev.Address(), 100_000_000)

	car, err := NewParty(carDev, carEp, tpl.Addr, lotDev.Address())
	if err != nil {
		return nil, err
	}
	lot, err := NewParty(lotDev, lotEp, tpl.Addr, lotDev.Address())
	if err != nil {
		return nil, err
	}
	return &Scenario{Chain: c, Template: tpl, Network: net, Car: car, Lot: lot}, nil
}

// RoundReport captures the measurements of one full off-chain round —
// the unit behind Figure 5, Table IV and the 584 ms payment claim.
type RoundReport struct {
	// ChannelID is the channel used.
	ChannelID uint64
	// Final is the doubly-signed closing state.
	Final *FinalState
	// CarEnergy and LotEnergy are the per-device Table IV reports.
	CarEnergy device.EnergyReport
	LotEnergy device.EnergyReport
	// CarTrace is the Figure 5 current trace of the car.
	CarTrace []device.CurrentSample
	// WallTime is the car's clock at the end of the round.
	WallTime time.Duration
	// ActiveTime is the car's non-LPM time: the paper's "complete an
	// off-chain payment" metric (584 ms on average) counts the active
	// states of the round.
	ActiveTime time.Duration
}

// RunParkingRound executes the canonical round from Figure 5 on a fresh
// measurement window:
//
//  1. the car and the lot exchange sensor data,
//  2. the car executes the template to create the off-chain channel
//     (the lot replicates it),
//  3. the car signs one payment; the lot verifies it,
//  4. the car registers the payment and closes; signatures are
//     exchanged.
//
// deposit and payment are in wei. The idleTail extends the trace with
// the LPM period the paper includes in its 1.566 s round.
func RunParkingRound(s *Scenario, deposit, payment uint64, idleTail time.Duration) (*RoundReport, error) {
	car, lot := s.Car, s.Lot
	car.Dev.ResetMeasurement()
	lot.Dev.ResetMeasurement()
	car.Dev.TraceEnabled = true

	// Phase 0: the car wakes from LPM at the start of the round; the
	// initial sleep models the wake alignment visible at the start of
	// the paper's trace (first TX at ~0.25 s).
	car.Dev.Sleep(120 * time.Millisecond)
	lot.Dev.Sleep(120 * time.Millisecond)

	// Phase 1: sensor data exchange.
	car.Dev.SetPhase("exchange sensor data")
	if _, err := car.SendSensorData(lot.Address(), device.SensorTemperature, device.SensorDistance); err != nil {
		return nil, fmt.Errorf("car sensor data: %w", err)
	}
	if _, err := lot.ReceiveSensorData(); err != nil {
		return nil, fmt.Errorf("lot sensor data rx: %w", err)
	}
	if _, err := lot.SendSensorData(car.Address(), device.SensorTemperature, device.SensorOccupancy); err != nil {
		return nil, fmt.Errorf("lot sensor data: %w", err)
	}
	if _, err := car.ReceiveSensorData(); err != nil {
		return nil, fmt.Errorf("car sensor data rx: %w", err)
	}
	car.Dev.SetPhase("")

	// Phase 2: the car creates the channel; the lot replicates it.
	cs, err := car.OpenChannel(lot.Address(), deposit, 0)
	if err != nil {
		return nil, fmt.Errorf("open channel: %w", err)
	}
	if _, err := lot.AcceptChannel(); err != nil {
		return nil, fmt.Errorf("accept channel: %w", err)
	}

	// Phase 3: one signed payment (at an application-specific rate the
	// paper sets to one for brevity — "For brevity, we include only one
	// payment here").
	if _, err := car.Pay(cs.ID, payment); err != nil {
		return nil, fmt.Errorf("pay: %w", err)
	}
	if _, err := lot.ReceivePayment(); err != nil {
		return nil, fmt.Errorf("receive payment: %w", err)
	}

	// Phase 4: close and exchange signatures on the final state.
	if _, err := car.CloseChannel(cs.ID); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if _, err := lot.AcceptClose(); err != nil {
		return nil, fmt.Errorf("accept close: %w", err)
	}
	final, err := car.FinishClose()
	if err != nil {
		return nil, fmt.Errorf("finish close: %w", err)
	}

	// Idle tail in LPM2, as in the paper's measured window.
	if idleTail > 0 {
		car.Dev.Sleep(idleTail)
		lot.Dev.SleepUntil(car.Dev.Now())
	}

	carReport := car.Dev.EnergyReport()
	active := carReport.TotalTime - car.Dev.Energest.Elapsed(device.StateLPM)

	return &RoundReport{
		ChannelID:  cs.ID,
		Final:      final,
		CarEnergy:  carReport,
		LotEnergy:  lot.Dev.EnergyReport(),
		CarTrace:   car.Dev.Trace.Samples(),
		WallTime:   car.Dev.Now(),
		ActiveTime: active,
	}, nil
}

// PaymentLatency measures one additional off-chain payment on an open
// channel: the wall time from initiating the payment to the receiver
// having verified it (the §VI headline metric).
func PaymentLatency(s *Scenario, channelID, amount uint64) (time.Duration, error) {
	start := s.Car.Dev.Now()
	if _, err := s.Car.Pay(channelID, amount); err != nil {
		return 0, err
	}
	if _, err := s.Lot.ReceivePayment(); err != nil {
		return 0, err
	}
	end := s.Lot.Dev.Now()
	if carNow := s.Car.Dev.Now(); carNow > end {
		end = carNow
	}
	return end - start, nil
}

// SettleScenario drives phase 3 on-chain: the lot commits the final
// state, the car exits, blocks pass the challenge window, and the
// template settles. It returns the settlement receipt.
func SettleScenario(s *Scenario, fs *FinalState) (*chain.Receipt, error) {
	if _, err := s.Lot.CommitOnChain(s.Chain, fs); err != nil {
		return nil, fmt.Errorf("commit: %w", err)
	}
	if _, err := s.Car.ExitOnChain(s.Chain); err != nil {
		return nil, fmt.Errorf("exit: %w", err)
	}
	// Let the challenge period lapse.
	exitReq, _ := s.Template.Exit()
	for s.Chain.Head().Number <= exitReq.Deadline {
		s.Chain.MineBlock()
	}
	r, err := s.Lot.SettleOnChain(s.Chain)
	if err != nil {
		return nil, fmt.Errorf("settle: %w", err)
	}
	if !r.Status {
		return r, fmt.Errorf("settle failed: %w", r.Err)
	}
	return r, nil
}

// FundDeposit performs the car's on-chain deposit (phase 1).
func FundDeposit(s *Scenario, amount uint64) error {
	r, err := s.Car.DepositOnChain(s.Chain, amount)
	if err != nil {
		return err
	}
	if !r.Status {
		return fmt.Errorf("deposit failed: %w", r.Err)
	}
	return nil
}
