package eval

import (
	"fmt"
	"strings"
	"time"

	"tinyevm/internal/asm"
	"tinyevm/internal/chain"
	"tinyevm/internal/device"
	"tinyevm/internal/radio"
	"tinyevm/internal/types"
)

// OracleComparison quantifies the paper's motivation for the IoT opcode:
// "most smart contracts are not well designed to handle input from the
// outside world. While Oracles, as a third-party information source, can
// supply verified data from Internet-connected sources, there is no
// direct way for a smart contract to trigger a sensor reading".
//
// Path A (TinyEVM): the contract executes SENSOR (0x0C) on-device.
// Path B (oracle): the device signs a main-chain transaction carrying
// the reading, radios it to a gateway, waits for block inclusion, and
// only then can a contract read the value from oracle storage.
type OracleComparison struct {
	// OpcodeTime is the on-device latency of the sensor-reading call.
	OpcodeTime time.Duration
	// OpcodeEnergyMJ is the device energy of path A.
	OpcodeEnergyMJ float64

	// OracleDeviceTime is the device-active time of path B (sign +
	// transmit).
	OracleDeviceTime time.Duration
	// OracleLatency is the end-to-end latency until the value is
	// readable on-chain (includes block inclusion).
	OracleLatency time.Duration
	// OracleEnergyMJ is the device energy of path B.
	OracleEnergyMJ float64
	// OracleGas is the main-chain gas consumed by the oracle update.
	OracleGas uint64
}

// RunOracleComparison measures both paths.
func RunOracleComparison() (OracleComparison, error) {
	var out OracleComparison

	// --- Path A: the IoT opcode -------------------------------------
	dev := device.New("oracle-opcode")
	dev.Sensors.RegisterValue(device.SensorTemperature, 2150)
	reader := asm.MustAssemble(`
		PUSH1 0x00
		PUSH1 0x01
		SENSOR
		DUP1
		PUSH1 0x00
		SSTORE
		PUSH1 0x00
		MSTORE
		PUSH1 0x20
		PUSH1 0x00
		RETURN
	`)
	target := types.MustHexToAddress("0x00000000000000000000000000000000000000d1")
	dev.State.SetCode(target, reader)
	res := dev.Call(target, nil, 0)
	if res.Err != nil {
		return out, fmt.Errorf("opcode path: %w", res.Err)
	}
	out.OpcodeTime = res.Time
	out.OpcodeEnergyMJ = dev.EnergyReport().TotalEnergyMJ

	// --- Path B: the oracle round-trip -------------------------------
	c := chain.New()
	oracleDev := device.New("oracle-device")
	oracleDev.Sensors.RegisterValue(device.SensorTemperature, 2150)
	gateway := device.New("oracle-gateway")
	net := radio.NewNetwork(radio.DefaultConfig(), 3)
	devEp := net.Join(oracleDev)
	net.Join(gateway)

	key := oracleDev.Key()
	c.Fund(key.PublicKey.Address(), 100_000_000)

	// Oracle storage contract: stores calldata word 0 into slot 0.
	oracleRuntime := asm.MustAssemble(`
		PUSH1 0x00
		CALLDATALOAD
		PUSH1 0x00
		SSTORE
		STOP
	`)
	oracleInit := asm.MustAssemble(fmt.Sprintf(`
		PUSH1 %#02x
		PUSH1 0x0c
		PUSH1 0x00
		CODECOPY
		PUSH1 %#02x
		PUSH1 0x00
		RETURN
	`, len(oracleRuntime), len(oracleRuntime)))
	oracleInit = append(oracleInit, oracleRuntime...)
	deploy := chain.NewTx(0, nil, 0, oracleInit)
	if err := deploy.Sign(key); err != nil {
		return out, err
	}
	dr, err := c.SendTransaction(deploy)
	if err != nil || !dr.Status {
		return out, fmt.Errorf("oracle deploy: %v %v", err, dr.Err)
	}

	start := oracleDev.Now()

	// 1. Read the sensor and build the signed update transaction.
	reading, err := oracleDev.Sensors.Sense(device.SensorTemperature, 0)
	if err != nil {
		return out, err
	}
	payload := make([]byte, 32)
	payload[30] = byte(reading >> 8)
	payload[31] = byte(reading)
	update := chain.NewTx(1, &dr.ContractAddress, 0, payload)
	digest := update.SigHash()
	sig, err := oracleDev.Crypto.Sign(digest) // 350 ms on the engine
	if err != nil {
		return out, err
	}
	update.Sig = sig

	// 2. Radio the ~200-byte transaction to the gateway.
	txWire := append(update.Data, update.Sig.Serialize()...)
	txWire = append(txWire, make([]byte, 64)...) // headers, nonce, addresses
	if _, err := devEp.Send(gateway.Address(), txWire); err != nil {
		return out, err
	}
	deviceActive := oracleDev.Now() - start

	// 3. The gateway submits; the chain includes it in the next block
	// (15 s block interval). The device idles in LPM meanwhile.
	ur, err := c.SendTransaction(update)
	if err != nil || !ur.Status {
		return out, fmt.Errorf("oracle update: %v %v", err, ur.Err)
	}
	oracleDev.Sleep(chain.BlockInterval * time.Second / 2) // mean wait

	out.OracleDeviceTime = deviceActive
	out.OracleLatency = oracleDev.Now() - start
	out.OracleEnergyMJ = oracleDev.EnergyReport().TotalEnergyMJ
	out.OracleGas = ur.GasUsed
	return out, nil
}

// String renders the comparison table.
func (o OracleComparison) String() string {
	var b strings.Builder
	b.WriteString("Sensor access: IoT opcode (TinyEVM) vs oracle round-trip\n")
	fmt.Fprintf(&b, "%-28s %16s %16s\n", "Metric", "IoT opcode", "Oracle")
	fmt.Fprintf(&b, "%-28s %16s %16s\n", "Device-active time",
		o.OpcodeTime.Round(10*time.Microsecond).String(),
		o.OracleDeviceTime.Round(time.Millisecond).String())
	fmt.Fprintf(&b, "%-28s %16s %16s\n", "End-to-end latency",
		o.OpcodeTime.Round(10*time.Microsecond).String(),
		o.OracleLatency.Round(time.Millisecond).String())
	fmt.Fprintf(&b, "%-28s %15.2f %15.2f\n", "Device energy (mJ)",
		o.OpcodeEnergyMJ, o.OracleEnergyMJ)
	fmt.Fprintf(&b, "%-28s %16s %16d\n", "Main-chain gas", "0", o.OracleGas)
	fmt.Fprintf(&b, "\nspeedup: %.0fx latency, %.0fx device energy, and no per-reading gas fee\n",
		float64(o.OracleLatency)/float64(o.OpcodeTime),
		o.OracleEnergyMJ/o.OpcodeEnergyMJ)
	return b.String()
}
