package device

import (
	"time"

	"tinyevm/internal/evm"
)

// CPUFrequencyHz is the CC2538 core clock (32 MHz).
const CPUFrequencyHz = 32_000_000

// CyclesToDuration converts MCU cycles at 32 MHz to wall time.
func CyclesToDuration(cycles uint64) time.Duration {
	return time.Duration(cycles * uint64(time.Second) / CPUFrequencyHz)
}

// CycleModel prices each EVM instruction in Cortex-M3 cycles. Because the
// MCU is a 32-bit machine emulating a 256-bit word ("executing a single
// EVM opcode requires in the order of hundreds of MCU cycles", §III-C),
// even simple word operations cost hundreds of cycles: a 256-bit value is
// eight 32-bit limbs, so an ADD is eight add-with-carry iterations plus
// stack traffic, a MUL is a 8x8 limb schoolbook product, and DIV is a
// multi-word long division.
//
// The model implements evm.Tracer: attach it to a VM and it accumulates
// the cycle cost of everything that VM executes, including
// size-dependent costs (copies, hashes) read from the live stack.
type CycleModel struct {
	// Cycles is the accumulated cycle count.
	Cycles uint64
	// KeccakTime accumulates the software Keccak-256 time separately:
	// the paper measures it as a 5 ms software routine (Table V), and it
	// dominates hashing-heavy constructors.
	KeccakTime time.Duration
	// CryptoTime accumulates hardware crypto-engine time triggered from
	// bytecode: calls to the ECRECOVER (0x01) and SHA256 (0x02)
	// precompiles run on the CC2538 engine, not the CPU.
	CryptoTime time.Duration
}

var _ evm.Tracer = (*CycleModel)(nil)

// Per-class cycle costs. The absolute values are calibrated so that the
// corpus deployment experiment lands in the paper's regime (mean 215 ms
// at 32 MHz, Table II); the relative values follow the arithmetic width
// argument above.
const (
	cycStackOp   = 90   // PUSH/POP/DUP/SWAP/PC/MSIZE: pointer moves + a 32-byte copy
	cycControl   = 120  // JUMP/JUMPI/JUMPDEST and frame bookkeeping
	cycWordEasy  = 320  // ADD/SUB/AND/OR/XOR/NOT/comparisons: 8 limb ops + traffic
	cycWordShift = 480  // SHL/SHR/SAR/BYTE/SIGNEXTEND: cross-limb shuffles
	cycWordMul   = 1900 // MUL: 64 limb multiplies (8x8 schoolbook)
	cycWordDiv   = 4200 // DIV/MOD/SDIV/SMOD: normalization + long division
	cycWordMod2  = 6800 // ADDMOD/MULMOD: double-width intermediate + reduction
	cycExpPerBit = 2300 // EXP: square-and-multiply per exponent bit
	cycMemOp     = 260  // MLOAD/MSTORE/MSTORE8: bounds checks + 32-byte copy
	cycStorageRd = 700  // SLOAD from the storage region
	cycStorageWr = 1100 // SSTORE including slot bookkeeping
	cycEnvOp     = 200  // ADDRESS/CALLER/CALLVALUE/...: context register reads
	cycCallSetup = 5200 // CALL/CREATE frame setup, argument marshalling
	cycLogOp     = 900  // LOG topic/data capture
	cycSensorOp  = 2600 // SENSOR: driver call, ADC read, bus transfer
	cycCopyPerB  = 18   // per-byte cost of CODECOPY/CALLDATACOPY/EXTCODECOPY
	cycReturnPB  = 6    // per-byte cost of RETURN/REVERT payload copy
	cycDefault   = 300
)

// KeccakSoftwareTime is the measured software Keccak-256 latency on the
// CC2538 (Table V: 5 ms). Charged per KECCAK256 opcode plus a small
// per-block term for long inputs.
const KeccakSoftwareTime = 5 * time.Millisecond

// CaptureOp implements evm.Tracer.
func (c *CycleModel) CaptureOp(pc uint64, op evm.Opcode, stack *evm.Stack, memBytes uint64) {
	c.Cycles += c.opCycles(op, stack)
}

// opCycles prices one instruction, peeking size operands where the cost
// is size-dependent.
func (c *CycleModel) opCycles(op evm.Opcode, stack *evm.Stack) uint64 {
	switch {
	case op.IsPush(), op >= evm.OpDup1 && op <= evm.OpSwap16, op == evm.OpPop,
		op == evm.OpPC, op == evm.OpMSize:
		return cycStackOp
	}
	switch op {
	case evm.OpStop:
		return cycControl
	case evm.OpAdd, evm.OpSub, evm.OpAnd, evm.OpOr, evm.OpXor, evm.OpNot,
		evm.OpLt, evm.OpGt, evm.OpSlt, evm.OpSgt, evm.OpEq, evm.OpIsZero:
		return cycWordEasy
	case evm.OpShl, evm.OpShr, evm.OpSar, evm.OpByte, evm.OpSignExtend:
		return cycWordShift
	case evm.OpMul:
		return cycWordMul
	case evm.OpDiv, evm.OpMod, evm.OpSDiv, evm.OpSMod:
		return cycWordDiv
	case evm.OpAddMod, evm.OpMulMod:
		return cycWordMod2
	case evm.OpExp:
		// Price by exponent width: bits of the exponent operand (second
		// from top before EXP executes).
		bits := 8
		if e, err := stack.Peek(1); err == nil {
			if b := e.BitLen(); b > 0 {
				bits = b
			}
		}
		return uint64(bits) * cycExpPerBit
	case evm.OpKeccak256:
		// The hash itself is charged as software time (5 ms per hash,
		// Table V); account input staging here.
		size := uint64(0)
		if s, err := stack.Peek(1); err == nil {
			size = s.Uint64Capped(1 << 20)
		}
		c.KeccakTime += KeccakSoftwareTime
		if size > 136 {
			// Additional sponge blocks beyond the first.
			c.KeccakTime += time.Duration((size-1)/136) * (KeccakSoftwareTime / 4)
		}
		return cycMemOp + size*2
	case evm.OpMLoad, evm.OpMStore, evm.OpMStore8:
		return cycMemOp
	case evm.OpSLoad:
		return cycStorageRd
	case evm.OpSStore:
		return cycStorageWr
	case evm.OpJump, evm.OpJumpI, evm.OpJumpDest:
		return cycControl
	case evm.OpAddress, evm.OpOrigin, evm.OpCaller, evm.OpCallValue,
		evm.OpCallDataSize, evm.OpCodeSize, evm.OpReturnDataSize,
		evm.OpBalance, evm.OpCallDataLoad, evm.OpGas, evm.OpGasPrice,
		evm.OpCoinbase, evm.OpTimestamp, evm.OpNumber, evm.OpDifficulty,
		evm.OpGasLimit, evm.OpBlockHash, evm.OpExtCodeSize, evm.OpExtCodeHash:
		return cycEnvOp
	case evm.OpCallDataCopy, evm.OpCodeCopy, evm.OpReturnDataCopy:
		// (destOffset, srcOffset, size): size is third from top.
		size := uint64(0)
		if s, err := stack.Peek(2); err == nil {
			size = s.Uint64Capped(1 << 20)
		}
		return cycMemOp + size*cycCopyPerB
	case evm.OpExtCodeCopy:
		size := uint64(0)
		if s, err := stack.Peek(3); err == nil {
			size = s.Uint64Capped(1 << 20)
		}
		return cycMemOp + size*cycCopyPerB
	case evm.OpReturn, evm.OpRevert:
		size := uint64(0)
		if s, err := stack.Peek(1); err == nil {
			size = s.Uint64Capped(1 << 20)
		}
		return cycControl + size*cycReturnPB
	case evm.OpCall, evm.OpCallCode, evm.OpDelegateCall, evm.OpStaticCall:
		// Calls into the crypto precompiles execute on the hardware
		// engine; the target address is the second stack operand.
		if to, err := stack.Peek(1); err == nil && to.IsUint64() {
			switch to.Uint64() {
			case 1:
				c.CryptoTime += ECDSAVerifyTime
			case 2:
				c.CryptoTime += SHA256Time
			}
		}
		return cycCallSetup
	case evm.OpCreate, evm.OpCreate2, evm.OpSelfDestruct:
		return cycCallSetup
	case evm.OpLog0, evm.OpLog1, evm.OpLog2, evm.OpLog3, evm.OpLog4:
		return cycLogOp
	case evm.OpSensor:
		return cycSensorOp
	default:
		return cycDefault
	}
}

// Reset clears the accumulators.
func (c *CycleModel) Reset() {
	c.Cycles = 0
	c.KeccakTime = 0
	c.CryptoTime = 0
}
