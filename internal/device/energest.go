// Package device models the paper's target hardware: an OpenMote-B node
// built on the TI-CC2538 SoC (32-bit Cortex-M3 @ 32 MHz, 32 KB RAM,
// 512 KB ROM, hardware crypto engine @ 250 MHz, 802.15.4 radio).
//
// The model is a timing/energy simulation, not an instruction-set
// emulator: real Go code (the EVM, secp256k1, Keccak) computes the real
// results, while this package charges the device-equivalent time to a
// virtual clock and attributes it to power states exactly as Contiki-NG's
// Energest module does. Energy then derives from the paper's measured
// currents (Table IV) at the 2.1 V supply voltage, which is how the
// paper itself computes its energy numbers.
package device

import (
	"fmt"
	"sort"
	"time"
)

// PowerState is one Energest accounting bucket.
type PowerState uint8

// Power states tracked by the device, matching Table IV rows.
const (
	// StateCPU is the MCU active at 32 MHz.
	StateCPU PowerState = iota
	// StateLPM is low-power mode 2 ("we configure Contiki-NG to use the
	// low-power mode 2 (LPM2), when not active").
	StateLPM
	// StateTX is the radio transmitting.
	StateTX
	// StateRX is the radio receiving or listening.
	StateRX
	// StateCrypto is the hardware crypto engine running at 250 MHz.
	StateCrypto

	numStates
)

// String returns the Table IV row label of the state.
func (s PowerState) String() string {
	switch s {
	case StateCPU:
		return "CPU @ 32 MHz"
	case StateLPM:
		return "CPU @ LPM2"
	case StateTX:
		return "TX"
	case StateRX:
		return "RX"
	case StateCrypto:
		return "Cryptographic Engine"
	default:
		return "unknown"
	}
}

// EnergestResolution is the timer resolution of the Energest module: the
// paper relies on "the internal Energest module that has a 30-microsecond
// resolution timer". All recorded durations are quantized to it.
const EnergestResolution = 30 * time.Microsecond

// Energest accumulates time per power state, Contiki-NG style.
type Energest struct {
	elapsed [numStates]time.Duration
	// residual carries sub-resolution time so quantization does not
	// systematically undercount long runs of small charges.
	residual [numStates]time.Duration
}

// Record attributes d of wall time to state s, quantized to the module's
// 30 µs resolution with carry of the remainder.
func (e *Energest) Record(s PowerState, d time.Duration) {
	if d <= 0 {
		return
	}
	total := e.residual[s] + d
	ticks := total / EnergestResolution
	e.residual[s] = total % EnergestResolution
	e.elapsed[s] += ticks * EnergestResolution
}

// Elapsed returns the accumulated time in state s.
func (e *Energest) Elapsed(s PowerState) time.Duration { return e.elapsed[s] }

// Reset clears all accumulators.
func (e *Energest) Reset() {
	e.elapsed = [numStates]time.Duration{}
	e.residual = [numStates]time.Duration{}
}

// PowerModel holds per-state current draw and the supply voltage. The
// defaults reproduce Table IV of the paper.
type PowerModel struct {
	// CurrentMilliAmps is indexed by PowerState.
	CurrentMilliAmps [5]float64
	// SupplyVolts is the supply voltage (2.1 V in the paper).
	SupplyVolts float64
}

// DefaultPowerModel returns the CC2538 power model measured by the paper
// (Table IV): CPU 13 mA, LPM2 1.3 mA, TX 24 mA, RX 20 mA, crypto engine
// 26 mA, at 2.1 V.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		CurrentMilliAmps: [5]float64{
			StateCPU:    13,
			StateLPM:    1.3,
			StateTX:     24,
			StateRX:     20,
			StateCrypto: 26,
		},
		SupplyVolts: 2.1,
	}
}

// EnergyMilliJoules converts time in state s to energy: E = t * I * V.
func (m PowerModel) EnergyMilliJoules(s PowerState, d time.Duration) float64 {
	return d.Seconds() * m.CurrentMilliAmps[s] * m.SupplyVolts
}

// EnergyReport is a per-state time/current/energy table (Table IV).
type EnergyReport struct {
	Rows []EnergyRow
	// TotalTime is the wall time covered.
	TotalTime time.Duration
	// TotalEnergyMJ is the summed energy in millijoules.
	TotalEnergyMJ float64
}

// EnergyRow is one row of Table IV.
type EnergyRow struct {
	State     PowerState
	Time      time.Duration
	CurrentMA float64
	EnergyMJ  float64
}

// Report derives the Table IV energy report from the accumulated times.
func (e *Energest) Report(m PowerModel) EnergyReport {
	var rep EnergyReport
	order := []PowerState{StateCrypto, StateTX, StateRX, StateCPU, StateLPM}
	for _, s := range order {
		d := e.elapsed[s]
		row := EnergyRow{
			State:     s,
			Time:      d,
			CurrentMA: m.CurrentMilliAmps[s],
			EnergyMJ:  m.EnergyMilliJoules(s, d),
		}
		rep.Rows = append(rep.Rows, row)
		rep.TotalTime += d
		rep.TotalEnergyMJ += row.EnergyMJ
	}
	return rep
}

// String renders the report in the paper's Table IV layout.
func (r EnergyReport) String() string {
	out := fmt.Sprintf("%-22s %10s %12s %12s\n", "State", "Time [ms]", "Current [mA]", "Energy [mJ]")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-22s %10.0f %12.1f %12.1f\n",
			row.State, float64(row.Time.Microseconds())/1000, row.CurrentMA, row.EnergyMJ)
	}
	out += fmt.Sprintf("%-22s %10.0f %12s %12.1f\n", "Total",
		float64(r.TotalTime.Microseconds())/1000, "-", r.TotalEnergyMJ)
	return out
}

// CurrentSample is one span of the current-over-time trace used to
// reproduce Figure 5.
type CurrentSample struct {
	// Start is the span's offset from the trace origin.
	Start time.Duration
	// Duration is the span length.
	Duration time.Duration
	// State is the power state during the span.
	State PowerState
	// CurrentMA is the drawn current.
	CurrentMA float64
	// Label annotates protocol phases (e.g. "sign payment").
	Label string
}

// Trace records the sequence of power-state spans of a device run; it is
// the data behind the Figure 5 current plot.
type Trace struct {
	samples []CurrentSample
}

// Add appends a span to the trace.
func (t *Trace) Add(s CurrentSample) { t.samples = append(t.samples, s) }

// Samples returns the spans sorted by start time.
func (t *Trace) Samples() []CurrentSample {
	out := make([]CurrentSample, len(t.samples))
	copy(out, t.samples)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Reset clears the trace.
func (t *Trace) Reset() { t.samples = nil }
