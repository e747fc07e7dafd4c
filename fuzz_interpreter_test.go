package tinyevm_test

// Determinism fuzzer for the interpreter: arbitrary bytecode runs in
// tiny and full mode on two fresh states, and every observable of every
// call must agree between them byte for byte: error text, return data,
// gas used, the execution counters and the state digest after each
// call. That is no panic on hostile code plus the determinism replicas
// rely on to re-execute a block to the same hash. Seeds include the
// real contract workload runtimes (ERC-20 transfer, counter, donate
// ledger), hand-assembled control-flow fragments, and raw blobs.
//
// Run as a regression test with `go test`, or explore with:
//
//	go test -run '^$' -fuzz FuzzInterpreter .
import (
	"bytes"
	"testing"

	"tinyevm/internal/asm"
	"tinyevm/internal/eval"
	"tinyevm/internal/evm"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

func FuzzInterpreter(f *testing.F) {
	for _, runtime := range eval.WorkloadRuntimes() {
		f.Add(runtime, []byte(nil))
	}
	// The erc20 transfer path with real calldata.
	erc20 := eval.WorkloadRuntimes()["erc20"]
	to := make([]byte, 32)
	to[31] = 0x42
	amt := make([]byte, 32)
	amt[31] = 1
	f.Add(erc20, eval.CallData(eval.Selector("transfer(address,uint256)"),
		[32]byte(to), [32]byte(amt)))
	f.Add(erc20, eval.CallData(eval.Selector("balanceOf(address)"), [32]byte(to)))
	// Hand-assembled loop and branch fragments.
	f.Add(asm.MustAssemble(`
		PUSH 10
		:loop JUMPDEST
		PUSH 1
		SWAP1
		SUB
		DUP1
		PUSH :loop
		JUMPI
		PUSH 0
		MSTORE
		PUSH 32
		PUSH 0
		RETURN
	`), []byte(nil))
	f.Add(asm.MustAssemble(`
		PUSH 3
		PUSH 4
		MUL
		ISZERO
		PUSH :done
		JUMPI
		PUSH 7
		PUSH 0
		SSTORE
		:done JUMPDEST
		STOP
	`), []byte{1, 2, 3})
	// Raw blobs: truncated pushes, invalid opcodes, jump soup.
	f.Add([]byte{0x60, 0x01, 0x56}, []byte(nil))
	f.Add([]byte{0x5B, 0x60, 0x00, 0x56}, []byte(nil))
	f.Add([]byte{0x60, 0xFF, 0x60}, []byte(nil))
	f.Add([]byte{0xFE, 0x00, 0x5B}, []byte(nil))

	caller := types.MustHexToAddress("0x00000000000000000000000000000000000000f1")
	target := types.MustHexToAddress("0x00000000000000000000000000000000000000f2")

	// A step budget far below TinyStepLimit keeps looping inputs as cheap
	// as full mode's gas limit makes them, so the fuzzer explores instead
	// of spinning; the step-limit path is exercised all the same.
	tiny := evm.TinyConfig()
	tiny.StepLimit = 100_000

	f.Fuzz(func(t *testing.T, code, input []byte) {
		if len(code) > 4096 || len(input) > 512 {
			return
		}
		for _, mode := range []struct {
			label string
			cfg   evm.Config
			gas   uint64
		}{
			{"tiny", tiny, 0},
			{"full", evm.FullConfig(), 200_000},
		} {
			stateA := evm.NewMemState()
			stateA.SetCode(target, code)
			stateB := evm.NewMemState()
			stateB.SetCode(target, code)
			vmA := evm.New(mode.cfg, stateA)
			vmB := evm.New(mode.cfg, stateB)

			// Several calls, so later ones run against the storage the
			// earlier ones wrote.
			for i := 0; i < 3; i++ {
				a := vmA.Call(caller, target, input, uint256.NewInt(0), mode.gas)
				b := vmB.Call(caller, target, input, uint256.NewInt(0), mode.gas)
				if (a.Err == nil) != (b.Err == nil) ||
					(a.Err != nil && a.Err.Error() != b.Err.Error()) {
					t.Fatalf("%s call %d: err %v vs %v\ncode %x",
						mode.label, i, a.Err, b.Err, code)
				}
				if !bytes.Equal(a.ReturnData, b.ReturnData) {
					t.Fatalf("%s call %d: return %x vs %x\ncode %x",
						mode.label, i, a.ReturnData, b.ReturnData, code)
				}
				if a.GasUsed != b.GasUsed {
					t.Fatalf("%s call %d: gas %d vs %d\ncode %x",
						mode.label, i, a.GasUsed, b.GasUsed, code)
				}
				if a.Stats != b.Stats {
					t.Fatalf("%s call %d: stats %+v vs %+v\ncode %x",
						mode.label, i, a.Stats, b.Stats, code)
				}
				if stateA.Digest() != stateB.Digest() {
					t.Fatalf("%s call %d: state digest diverged\ncode %x input %x",
						mode.label, i, code, input)
				}
			}
		}
	})
}
