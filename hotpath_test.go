package tinyevm_test

// Deterministic counts on the hot paths, in place of a benchmark gate:
// how many heap allocations one operation makes (TestHotPathAllocs). The
// ceilings are exact, measured at the commit that set them, so a failure
// is a change in the code, never noise. Wall-clock numbers are
// the benchmark's business (bench/README.md).

import (
	"context"
	"runtime/debug"
	"testing"

	"tinyevm"
	"tinyevm/internal/asm"
	"tinyevm/internal/eval"
	"tinyevm/internal/evm"
	"tinyevm/internal/protocol"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// arithLoop counts 0x200 down to zero: the tight arithmetic loop, nine
// opcodes an iteration.
const arithLoop = `
	PUSH2 0x0200
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
	STOP
`

// callTree writes one slot per frame and calls itself depth times; the
// innermost frame writes and REVERTs, so one execution is depth nested
// snapshots, one revert and depth discards.
const callTree = `
	PUSH1 0x00
	CALLDATALOAD
	DUP1
	ISZERO
	PUSH :leaf
	JUMPI
	DUP1
	DUP1
	SSTORE
	PUSH1 0x01
	SWAP1
	SUB
	PUSH1 0x00
	MSTORE
	PUSH1 0x00
	PUSH1 0x00
	PUSH1 0x20
	PUSH1 0x00
	PUSH1 0x00
	ADDRESS
	PUSH2 0xffff
	CALL
	POP
	STOP
	:leaf JUMPDEST
	POP
	PUSH1 0x2a
	PUSH1 0x01
	SSTORE
	PUSH1 0x00
	PUSH1 0x00
	REVERT
`

// return42Init deploys a 10-byte runtime that returns the word 0x2a
// (the 12-byte constructor puts the runtime at offset 0x0c).
func return42Init() []byte {
	init := asm.MustAssemble(`
		PUSH1 0x0a
		PUSH1 0x0c
		PUSH1 0x00
		CODECOPY
		PUSH1 0x0a
		PUSH1 0x00
		RETURN
	`)
	return append(init, asm.MustAssemble(`
		PUSH1 0x2a
		PUSH1 0x00
		MSTORE
		PUSH1 0x20
		PUSH1 0x00
		RETURN
	`)...)
}

var (
	progCaller   = types.Address{19: 0xbb}
	progContract = types.Address{19: 0xaa}
)

// interpProgram is one contract run straight on the interpreter, with
// what one steady-state call of it may allocate.
type interpProgram struct {
	name  string
	code  []byte
	input []byte
	// seed prepares contract storage (ModeTiny truncates storage keys to
	// their low byte, so seeds use truncated slots).
	seed   func(st *evm.MemState)
	allocs float64
}

func interpPrograms() []interpProgram {
	runtimes := eval.WorkloadRuntimes()
	var to, one, depth [32]byte
	to[31], one[31], depth[31] = 0x42, 1, 12
	return []interpProgram{
		{name: "arith", code: asm.MustAssemble(arithLoop), allocs: 2},
		{name: "erc20", code: runtimes["erc20"], allocs: 9,
			input: eval.CallData(eval.Selector("transfer(address,uint256)"), to, one),
			seed: func(st *evm.MemState) {
				// Fund the caller's balance slot so transfers succeed.
				st.SetState(progContract, uint256.NewInt(uint64(progCaller[19])), uint256.NewInt(1<<40))
			}},
		{name: "counter", code: runtimes["inccounter"], allocs: 6},
		{name: "snapshot+revert", code: asm.MustAssemble(callTree), input: depth[:], allocs: 42},
	}
}

// start installs the program and returns one call of it, already run
// a few times so what is counted is the steady state: the frame, stack
// and memory pools are filled and the JUMPDEST analysis is cached.
func (p interpProgram) start(t *testing.T) func() {
	state := evm.NewMemState()
	state.SetCode(progContract, p.code)
	if p.seed != nil {
		p.seed(state)
	}
	vm := evm.New(evm.TinyConfig(), state)
	call := func() {
		if res := vm.Call(progCaller, progContract, p.input, uint256.NewInt(0), 0); res.Err != nil {
			t.Fatalf("%s: %v", p.name, res.Err)
		}
	}
	for i := 0; i < 8; i++ {
		call()
	}
	return call
}

// raceBuild reports a -race test binary, where sync.Pool drops a
// quarter of what is put into it and pooled frames are re-allocated.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func TestHotPathAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not deterministic under -race")
	}
	ctx := context.Background()
	type hotPath struct {
		name string
		max  float64
		fn   func()
	}
	var paths []hotPath

	// The lockstep façade: device accounting + tracer + one EVM call.
	_, node, err := tinyevm.NewSystem(tinyevm.DefaultConfig(), "allocs")
	if err != nil {
		t.Fatal(err)
	}
	dep := node.DeployContract(return42Init())
	if dep.Err != nil {
		t.Fatal(dep.Err)
	}
	paths = append(paths, hotPath{"evm transfer call", 3, func() {
		if out := node.CallContract(dep.Address, nil, 0); out.Err != nil {
			t.Fatal(out.Err)
		}
	}})

	for _, p := range interpPrograms() {
		paths = append(paths, hotPath{"interpreter " + p.name, p.allocs, p.start(t)})
	}

	// An in-memory service: stripe locks, op record, device, EVM — and
	// for Pay one signature, one recovery and the radio hop.
	svc, hub, err := tinyevm.NewService("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	car, err := svc.AddNode(ctx, "car")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*tinyevm.ServiceNode{hub, car} {
		if err := n.RegisterSensorValue(ctx, tinyevm.SensorTemperature, 2150); err != nil {
			t.Fatal(err)
		}
	}
	sdep, err := car.DeployContract(ctx, return42Init())
	if err != nil || sdep.Err != nil {
		t.Fatal(err, sdep.Err)
	}
	ch, err := car.OpenChannel(ctx, hub.Address(), 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths,
		hotPath{"ServiceNode.CallContract", 5, func() {
			if res, err := car.CallContract(ctx, sdep.Address, nil, 0); err != nil || res.Err != nil {
				t.Fatal(err, res.Err)
			}
		}},
		hotPath{"ServiceNode.Pay", 35, func() {
			if _, err := car.Pay(ctx, ch.ID, 1); err != nil {
				t.Fatal(err)
			}
		}},
	)

	// The radio wire's payment frame, both directions.
	pay := &protocol.Payment{Template: progContract, Channel: progCaller, ChannelID: 1, Seq: 2, Cumulative: 3}
	if pay.Sig, err = secp256k1.DeterministicKey("allocs").Sign(pay.Digest()); err != nil {
		t.Fatal(err)
	}
	frame := protocol.EncodePayment(pay)
	paths = append(paths,
		hotPath{"protocol.EncodePayment", 5, func() { protocol.EncodePayment(pay) }},
		hotPath{"protocol.DecodePayment", 2, func() {
			if _, err := protocol.DecodePayment(frame); err != nil {
				t.Fatal(err)
			}
		}},
	)

	for _, p := range paths {
		if got := testing.AllocsPerRun(100, p.fn); got > p.max {
			t.Errorf("%s: %v allocs/op, ceiling %v", p.name, got, p.max)
		} else {
			t.Logf("%s: %v allocs/op", p.name, got)
		}
	}
}
