package device

import (
	"errors"
	"testing"
	"time"

	"tinyevm/internal/asm"
	"tinyevm/internal/types"
)

func TestEnergestQuantization(t *testing.T) {
	var e Energest
	// 30 us resolution: a 45 us charge books 30 us and carries 15 us.
	e.Record(StateCPU, 45*time.Microsecond)
	if got := e.Elapsed(StateCPU); got != 30*time.Microsecond {
		t.Fatalf("got %v, want 30us", got)
	}
	// The carried 15 us plus another 45 us books two more ticks.
	e.Record(StateCPU, 45*time.Microsecond)
	if got := e.Elapsed(StateCPU); got != 90*time.Microsecond {
		t.Fatalf("got %v, want 90us", got)
	}
	// Repeated sub-resolution charges must not be systematically lost.
	var e2 Energest
	for i := 0; i < 1000; i++ {
		e2.Record(StateTX, 10*time.Microsecond)
	}
	if got := e2.Elapsed(StateTX); got < 9900*time.Microsecond {
		t.Fatalf("residual carry lost time: %v", got)
	}
}

func TestEnergestIgnoresNonPositive(t *testing.T) {
	var e Energest
	e.Record(StateCPU, 0)
	e.Record(StateCPU, -time.Second)
	if e.elapsed != [numStates]time.Duration{} {
		t.Fatal("non-positive durations were recorded")
	}
}

func TestPowerModelTableIV(t *testing.T) {
	// Reproduce Table IV's energy rows from its time and current columns.
	m := DefaultPowerModel()
	cases := []struct {
		state  PowerState
		dur    time.Duration
		wantMJ float64
	}{
		{StateCrypto, 350 * time.Millisecond, 19.1},
		{StateTX, 32 * time.Millisecond, 1.6},
		{StateRX, 52 * time.Millisecond, 2.1},
		{StateCPU, 150 * time.Millisecond, 4.1},
		{StateLPM, 982 * time.Millisecond, 2.7},
	}
	var total float64
	for _, tc := range cases {
		got := m.EnergyMilliJoules(tc.state, tc.dur)
		if got < tc.wantMJ-0.15 || got > tc.wantMJ+0.15 {
			t.Errorf("%v: %.2f mJ, want ~%.1f", tc.state, got, tc.wantMJ)
		}
		total += got
	}
	if total < 29.0 || total > 30.2 {
		t.Errorf("total %.2f mJ, want ~29.6", total)
	}
}

func TestEnergestReportOrderingAndTotal(t *testing.T) {
	var e Energest
	e.Record(StateCPU, 150*time.Millisecond)
	e.Record(StateCrypto, 350*time.Millisecond)
	rep := e.Report(DefaultPowerModel())
	if len(rep.Rows) != 5 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	if rep.Rows[0].State != StateCrypto {
		t.Fatalf("first row %v, want crypto (Table IV order)", rep.Rows[0].State)
	}
	// Quantization to the 30 us resolution may strip a sub-tick tail.
	if rep.TotalTime < 500*time.Millisecond-2*EnergestResolution || rep.TotalTime > 500*time.Millisecond {
		t.Fatalf("total time %v", rep.TotalTime)
	}
	if rep.TotalEnergyMJ < 23 || rep.TotalEnergyMJ > 24.5 {
		t.Fatalf("total energy %.2f", rep.TotalEnergyMJ)
	}
	if rep.String() == "" {
		t.Fatal("empty report rendering")
	}
}

func TestFootprintMatchesTableIII(t *testing.T) {
	f := Footprint()
	if f.UsedRAM != 25_715 {
		t.Errorf("UsedRAM = %d, want 25715", f.UsedRAM)
	}
	if f.AvailableRAM != 6_553 {
		// 32768 - 25715 = 7053? No: 32*1024=32768; 32768-25715=7053.
		// The paper says 6,285 available out of "32 KB" because it uses
		// 32000; we use the true 32768. Accept our arithmetic.
		if f.AvailableRAM != 32768-25715 {
			t.Errorf("AvailableRAM = %d", f.AvailableRAM)
		}
	}
	if f.UsedROM != 42_464 {
		t.Errorf("UsedROM = %d, want 42464", f.UsedROM)
	}
	ramPct := float64(f.UsedRAM) / float64(f.TotalRAM)
	if ramPct < 0.75 || ramPct > 0.85 {
		t.Errorf("RAM utilisation %.2f, want ~0.80", ramPct)
	}
	romPct := float64(f.UsedROM) / float64(f.TotalROM)
	if romPct < 0.06 || romPct > 0.12 {
		t.Errorf("ROM utilisation %.2f, want ~0.10", romPct)
	}
	if f.String() == "" {
		t.Fatal("empty footprint rendering")
	}
}

func TestDeviceIdentityDeterministic(t *testing.T) {
	a := New("car")
	b := New("car")
	if a.Address() != b.Address() {
		t.Fatal("device identity not deterministic")
	}
	c := New("parking")
	if a.Address() == c.Address() {
		t.Fatal("distinct devices share an address")
	}
}

func TestDeviceClockAdvances(t *testing.T) {
	d := New("clock")
	d.SpendCPU(10*time.Millisecond, "work")
	d.SpendTX(5*time.Millisecond, "tx")
	d.Sleep(20 * time.Millisecond)
	if d.Now() != 35*time.Millisecond {
		t.Fatalf("clock %v, want 35ms", d.Now())
	}
	d.SleepUntil(50 * time.Millisecond)
	if d.Now() != 50*time.Millisecond {
		t.Fatalf("clock %v, want 50ms", d.Now())
	}
	// SleepUntil in the past is a no-op.
	d.SleepUntil(10 * time.Millisecond)
	if d.Now() != 50*time.Millisecond {
		t.Fatal("SleepUntil went backwards")
	}
}

func TestDeviceDeployChargesCPU(t *testing.T) {
	d := New("deployer")
	// Constructor with an init loop plus a keccak so the charged time
	// comfortably exceeds the 30 us Energest resolution, then return 4
	// bytes of runtime code.
	init := asm.MustAssemble(`
		PUSH1 32       ; i = 32
		:loop JUMPDEST
		PUSH1 1
		SWAP1
		SUB
		DUP1
		ISZERO
		PUSH :done
		JUMPI
		PUSH :loop
		JUMP
		:done JUMPDEST
		POP
		PUSH1 0x20
		PUSH1 0x00
		KECCAK256
		POP
		PUSH1 0x04
		PUSH :rt
		PUSH1 0x00
		CODECOPY
		PUSH1 0x04
		PUSH1 0x00
		RETURN
		:rt JUMPDEST
		DATA 0x60016002
	`)
	res := d.Deploy(init, 0)
	if res.Err != nil {
		t.Fatalf("deploy failed: %v", res.Err)
	}
	if res.Time <= 0 {
		t.Fatal("deployment charged no time")
	}
	// The single KECCAK256 alone accounts for 5 ms of CPU.
	if got := d.Energest.Elapsed(StateCPU); got < KeccakSoftwareTime {
		t.Fatalf("CPU charged %v, want >= %v", got, KeccakSoftwareTime)
	}
	if res.RuntimeSize != 4 {
		t.Fatalf("runtime size %d, want 4", res.RuntimeSize)
	}
	if res.MaxStackPointer == 0 || res.StackBytes != res.MaxStackPointer*32 {
		t.Fatalf("stack stats wrong: %+v", res)
	}
}

func TestDeviceCallRunsContract(t *testing.T) {
	d := New("caller")
	addr := types.MustHexToAddress("0x5000000000000000000000000000000000000005")
	d.State.SetCode(addr, asm.MustAssemble(`
		PUSH1 0x2a
		PUSH1 0x00
		MSTORE
		PUSH1 0x20
		PUSH1 0x00
		RETURN
	`))
	res := d.Call(addr, nil, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.ReturnData) != 32 || res.ReturnData[31] != 0x2a {
		t.Fatalf("return %x", res.ReturnData)
	}
	if res.Time <= 0 {
		t.Fatal("call charged no time")
	}
}

func TestDeviceSensorsThroughVM(t *testing.T) {
	d := New("sensing")
	d.Sensors.RegisterValue(SensorTemperature, 2150) // 21.5 C
	addr := types.MustHexToAddress("0x5000000000000000000000000000000000000006")
	d.State.SetCode(addr, asm.MustAssemble(`
		PUSH1 0x00
		PUSH1 0x01  ; SensorTemperature
		SENSOR
		PUSH1 0x00
		MSTORE
		PUSH1 0x20
		PUSH1 0x00
		RETURN
	`))
	res := d.Call(addr, nil, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.ReturnData[30] != 0x08 || res.ReturnData[31] != 0x66 { // 2150 = 0x0866
		t.Fatalf("sensor reading %x", res.ReturnData[30:])
	}
}

func TestSensorErrors(t *testing.T) {
	s := NewSensors()
	if _, err := s.Sense(0x42, 0); !errors.Is(err, ErrUnknownSensor) {
		t.Fatalf("got %v", err)
	}
	s.Register(0x42, func(p uint64) (uint64, error) { return p * 2, nil })
	v, err := s.Sense(0x42, 21)
	if err != nil || v != 42 {
		t.Fatalf("got %d, %v", v, err)
	}
}

func TestCryptoEngineTimings(t *testing.T) {
	d := New("crypto")
	digest := types.HashData([]byte("payment #1"))

	// All expectations below allow one 30 us quantization tick.
	within := func(got, want time.Duration) bool {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= EnergestResolution
	}

	sig, err := d.Crypto.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Energest.Elapsed(StateCrypto); !within(got, ECDSASignTime) {
		t.Fatalf("sign charged %v, want ~%v", got, ECDSASignTime)
	}
	if !d.Crypto.Verify(digest, sig, d.Address()) {
		t.Fatal("self-signed payment did not verify")
	}
	if got := d.Energest.Elapsed(StateCrypto); !within(got, ECDSASignTime+ECDSAVerifyTime) {
		t.Fatalf("verify charged %v total", got)
	}

	d.Crypto.SHA256([]byte("x"))
	d.Crypto.Keccak256([]byte("y"))
	if got := d.Energest.Elapsed(StateCPU); !within(got, KeccakSoftwareTime) {
		t.Fatalf("keccak charged %v CPU, want ~%v", got, KeccakSoftwareTime)
	}
}

func TestCryptoTableV(t *testing.T) {
	// "The average time to complete all cryptographic functions of a
	// complete transaction round is 356 ms": 350 + 1 + 5.
	total := ECDSASignTime + SHA256Time + KeccakSoftwareTime
	if total != 356*time.Millisecond {
		t.Fatalf("crypto round total %v, want 356ms", total)
	}
}

func TestTracePhasesAndDuration(t *testing.T) {
	d := New("tracer")
	d.TraceEnabled = true
	d.SetPhase("exchange")
	d.SpendTX(4*time.Millisecond, "send sensor data")
	d.SetPhase("sign")
	d.SpendCPU(2*time.Millisecond, "hash")
	samples := d.Trace.Samples()
	if len(samples) != 2 {
		t.Fatalf("%d samples", len(samples))
	}
	if samples[0].Label != "exchange: send sensor data" {
		t.Fatalf("label %q", samples[0].Label)
	}
	if samples[0].CurrentMA != 24 {
		t.Fatalf("TX current %v", samples[0].CurrentMA)
	}
	if last := samples[len(samples)-1]; last.Start+last.Duration != 6*time.Millisecond {
		t.Fatalf("trace ends at %v", last.Start+last.Duration)
	}
}

func TestResetMeasurement(t *testing.T) {
	d := New("reset")
	d.TraceEnabled = true
	d.SpendCPU(time.Millisecond, "x")
	d.ResetMeasurement()
	if d.Now() != 0 || d.Energest.elapsed != [numStates]time.Duration{} || len(d.Trace.Samples()) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestBatteryEstimate(t *testing.T) {
	// Paper: 10,000 J at 29.6 mJ/round ~= 333k payments; at one payment
	// per 10 minutes that exceeds six years.
	est := EstimateBattery(29.6, 10*time.Minute, 0)
	if est.Rounds < 330_000 || est.Rounds > 340_000 {
		t.Fatalf("rounds = %d, want ~333k", est.Rounds)
	}
	years := est.Lifetime.Hours() / 24 / 365
	if years < 6 {
		t.Fatalf("lifetime %.1f years, want > 6", years)
	}
	if est := EstimateBattery(0, time.Minute, 0); est.Rounds != 0 {
		t.Fatal("zero energy should yield empty estimate")
	}
}

func TestCycleModelPricesWidthCorrectly(t *testing.T) {
	// A DIV must cost more than a MUL which must cost more than an ADD:
	// the 256-bit-on-32-bit emulation argument from §III-C.
	d := New("cycles")
	run := func(src string) uint64 {
		addr := types.MustHexToAddress("0x5000000000000000000000000000000000000007")
		d.State.SetCode(addr, asm.MustAssemble(src))
		before := d.cycles.Cycles
		res := d.Call(addr, nil, 0)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return d.cycles.Cycles - before
	}
	add := run("PUSH1 3\nPUSH1 4\nADD\nSTOP")
	mul := run("PUSH1 3\nPUSH1 4\nMUL\nSTOP")
	div := run("PUSH1 3\nPUSH1 4\nDIV\nSTOP")
	if !(add < mul && mul < div) {
		t.Fatalf("cycle ordering wrong: add=%d mul=%d div=%d", add, mul, div)
	}
	// "executing a single EVM opcode requires in the order of hundreds
	// of MCU cycles": the arithmetic op alone (minus the two pushes and
	// stop) must be in the hundreds.
	if addOnly := add - 3*cycStackOp; addOnly < 100 || addOnly > 1000 {
		t.Fatalf("ADD costs %d cycles, want hundreds", addOnly)
	}
}

func TestCyclesToDuration(t *testing.T) {
	// 32 million cycles at 32 MHz is exactly one second.
	if got := CyclesToDuration(32_000_000); got != time.Second {
		t.Fatalf("got %v", got)
	}
	// 6.88M cycles ~= 215 ms (the paper's mean deployment time).
	got := CyclesToDuration(6_880_000)
	if got < 214*time.Millisecond || got > 216*time.Millisecond {
		t.Fatalf("got %v", got)
	}
}

func TestDeployTimeFloorAndFlashCost(t *testing.T) {
	// A near-empty constructor pays the fixed VM-setup floor (~5 ms)
	// plus flash programming for the returned runtime.
	d := New("floor")
	tiny := asm.MustAssemble(`
		PUSH1 0x04
		PUSH1 0x0c
		PUSH1 0x00
		CODECOPY
		PUSH1 0x04
		PUSH1 0x00
		RETURN
	`)
	tiny = append(tiny, []byte{0, 1, 2, 3}...)
	res := d.Deploy(tiny, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Time < DeploySetupTime {
		t.Fatalf("deploy time %v below setup floor %v", res.Time, DeploySetupTime)
	}
	if res.Time > DeploySetupTime+2*time.Millisecond {
		t.Fatalf("tiny deploy cost %v, expected near the floor", res.Time)
	}

	// A larger runtime pays proportionally more flash time.
	d2 := New("flash")
	big := asm.MustAssemble(`
		PUSH2 0x0400
		PUSH1 0x0d
		PUSH1 0x00
		CODECOPY
		PUSH2 0x0400
		PUSH1 0x00
		RETURN
	`)
	big = append(big, make([]byte, 1024)...)
	res2 := d2.Deploy(big, 0)
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	wantFlashDelta := time.Duration(1024-4) * FlashWritePerByte
	if res2.Time-res.Time < wantFlashDelta/2 {
		t.Fatalf("flash cost not proportional: %v vs %v", res2.Time, res.Time)
	}
}

func TestFailedDeployDoesNotPayFlash(t *testing.T) {
	d := New("noflash")
	// Constructor that reverts: no runtime returned, no flash write.
	rev := asm.MustAssemble("PUSH1 0x00\nPUSH1 0x00\nREVERT")
	res := d.Deploy(rev, 0)
	if res.Err == nil {
		t.Fatal("revert deployed")
	}
	if res.Time > DeploySetupTime+time.Millisecond {
		t.Fatalf("failed deploy charged flash time: %v", res.Time)
	}
}
