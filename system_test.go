package tinyevm

import (
	"errors"
	"testing"

	"tinyevm/internal/contracts"
	"tinyevm/internal/device"
	"tinyevm/internal/protocol"
)

func TestSystemSetup(t *testing.T) {
	sys, provider, err := NewSystem(DefaultConfig(), "lot")
	if err != nil {
		t.Fatal(err)
	}
	if provider.Name() != "lot" {
		t.Fatalf("provider name %q", provider.Name())
	}
	if sys.Provider() != provider.Address() {
		t.Fatal("provider address mismatch")
	}
	if sys.Template == nil || sys.Chain == nil || sys.Network == nil {
		t.Fatal("system incompletely wired")
	}
	// The on-chain template is installed as a native contract.
	if !sys.Chain.IsNative(sys.Template.Addr) {
		t.Fatal("template not installed on chain")
	}
	// The provider node has a local template copy deployed on-device.
	if len(provider.Dev.State.Code(provider.LocalTemplate)) == 0 {
		t.Fatal("local template copy missing")
	}
}

func TestSystemNodeManagement(t *testing.T) {
	sys, _, err := NewSystem(DefaultConfig(), "p")
	if err != nil {
		t.Fatal(err)
	}
	n, err := sys.AddNode("car")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := sys.Node("car"); !ok || got != n {
		t.Fatal("node lookup broken")
	}
	if _, ok := sys.Node("ghost"); ok {
		t.Fatal("phantom node found")
	}
	if _, err := sys.AddNode("car"); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestMineUntil(t *testing.T) {
	sys, _, err := NewSystem(DefaultConfig(), "p")
	if err != nil {
		t.Fatal(err)
	}
	sys.mineUntil(5)
	if sys.Chain.Head().Number < 6 {
		t.Fatalf("head %d", sys.Chain.Head().Number)
	}
}

func TestRunChallengePeriodRequiresExit(t *testing.T) {
	sys, _, err := NewSystem(DefaultConfig(), "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunChallengePeriod(); !errors.Is(err, protocol.ErrNoExit) {
		t.Fatalf("got %v, want ErrNoExit", err)
	}
}

func TestNodeDeployAndCall(t *testing.T) {
	sys, lot, err := NewSystem(DefaultConfig(), "lot")
	if err != nil {
		t.Fatal(err)
	}
	_ = sys
	lot.RegisterSensor(device.SensorTemperature, func(uint64) (uint64, error) { return 777, nil })

	init := PaymentChannelInitCode(lot.Address(), lot.Address(), device.SensorTemperature, 0)
	res := lot.DeployContract(init)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// sensorData() selector through the generic call path.
	out := lot.CallContract(res.Address, contracts.Calldata(contracts.SigSensorData), 0)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.ReturnData[31] != 0x09 || out.ReturnData[30] != 0x03 { // 777 = 0x0309
		t.Fatalf("sensorData = %x", out.ReturnData[30:])
	}
}
