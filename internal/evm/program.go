package evm

import (
	"sync/atomic"

	"tinyevm/internal/uint256"
)

// Tier-1 execution: bytecode decoded once per code hash into straight-line
// basic blocks of superinstructions, run with one stack/steps/overflow
// validation per block and one gas check per instruction instead of the
// full per-opcode sequence. The decoded Program is a pure function of the
// bytecode — every config- or state-dependent opcode (SENSOR, tinyRemoved
// opcodes, undefined bytes) splits the block and runs through the tier-0
// dispatch, so one cached Program serves ModeTiny and ModeFull alike and
// fused runs stay byte-identical to tier-0 in gas, receipts, stats and
// state digests.

type instrKind uint8

const (
	// kGeneric dispatches one opcode through the tier-0 jump table.
	kGeneric        instrKind = iota
	kNop                      // JUMPDEST
	kPush                     // PUSHn with pre-decoded immediate
	kPop                      // POP
	kDup                      // DUPn
	kSwap                     // SWAPn
	kDupSwap                  // DUPn SWAPm
	kPushFold                 // PUSHa PUSHb OP, folded to a constant at decode time
	kConstBinop               // PUSHc OP          -> top = op(c, top)
	kConstSwapBinop           // PUSHc SWAP1 OP    -> top = op(top, c)
	kConstMLoad               // PUSHoff MLOAD
	kConstMStore              // PUSHoff MSTORE
	kJump                     // PUSHdest JUMP, dest validated at decode time
	kJumpI                    // PUSHdest JUMPI
	kIsZeroJumpI              // ISZERO PUSHdest JUMPI: pop, jump if zero
	kDupIsZeroJumpI           // DUP1 ISZERO PUSHdest JUMPI: jump if top is zero
	numInstrKinds
)

// peakNone marks instructions that never push: no stack high-water bump
// is needed (the value is far enough below any reachable depth that the
// max comparison is a guaranteed no-op even if applied).
const peakNone = int16(-1 << 14)

// maxConstMemOffset mirrors memRange's offset ceiling; constant offsets
// above it are not fused so the tier-0 ErrMemoryLimit path is preserved.
const maxConstMemOffset = 1 << 32

// instr is one superinstruction: one or more consecutive opcodes with
// their aggregate constant gas, step count and stack high-water effect
// precomputed at decode time.
type instr struct {
	kind instrKind
	// op is the dispatched opcode for kGeneric, or the folded binary
	// operator for kPushFold/kConstBinop/kConstSwapBinop.
	op Opcode
	// n, m are the 1-based DUP/SWAP indices.
	n, m uint8
	// steps is the number of original opcodes this instr covers.
	steps uint16
	// peak is the maximum net stack growth (relative to instr entry)
	// reached at any push inside the instr, or peakNone; it reproduces
	// tier-0's Push-driven max-depth accounting without the pushes.
	peak int16
	// gas is the aggregate constant gas of the covered opcodes.
	gas uint64
	// pc is the offset of the first covered opcode: the re-entry anchor
	// when the block bails to per-op execution on low gas.
	pc uint64
	// dest is the fused jump target, or the constant memory offset.
	dest uint64
	// imm is the decoded or folded constant. It is shared and immutable;
	// handlers copy it before mutating.
	imm uint256.Int
}

// basicBlock is a straight-line run of superinstructions. Entry
// validation happens once per block: steps, minimum stack and stack
// headroom are precomputed so the per-instruction checks collapse to a
// single gas comparison.
type basicBlock struct {
	instrs []instr
	// steps is the total tier-0 step count of the block.
	steps uint64
	// constGas is the total constant gas of the block (informational;
	// gas is checked per instr to keep out-of-gas accounting exact).
	constGas uint64
	// minStack is the operand words required on entry so no covered
	// opcode underflows.
	minStack int
	// growthPeak is the maximum net stack growth over the entry depth;
	// entry depth + growthPeak <= limit rules out overflow anywhere in
	// the block.
	growthPeak int
	// next is the fall-through pc after the last covered opcode.
	next uint64
}

// Program is the tier-1 decoding of one code blob: its basic blocks plus
// a pc index. Programs are immutable after decode and shared across
// frames and goroutines through the state's program cache.
type Program struct {
	blocks []basicBlock
	// blockIdx maps a pc to block number + 1 (0 = no block starts here).
	blockIdx []int32
}

// Blocks returns the number of decoded basic blocks (for tests/stats).
func (p *Program) Blocks() int { return len(p.blocks) }

// isFusableBinop reports whether op is a two-operand, constant-gas
// operator whose handler follows the pop-x/peek-y pattern; only those
// may be constant-folded or fused. EXP (dynamic gas) and the
// three-operand ADDMOD/MULMOD stay generic.
func isFusableBinop(op Opcode) bool {
	switch op {
	case OpAdd, OpMul, OpSub, OpDiv, OpSDiv, OpMod, OpSMod, OpSignExtend,
		OpLt, OpGt, OpSlt, OpSgt, OpEq, OpAnd, OpOr, OpXor,
		OpByte, OpShl, OpShr, OpSar:
		return true
	}
	return false
}

// applyBinop computes y = op(x, y) exactly as the tier-0 handlers do
// (x is the popped top, y the slot below it, mutated in place).
func applyBinop(op Opcode, x, y *uint256.Int) {
	switch op {
	case OpAdd:
		y.Add(x, y)
	case OpMul:
		y.Mul(x, y)
	case OpSub:
		y.Sub(x, y)
	case OpDiv:
		y.Div(x, y)
	case OpSDiv:
		y.SDiv(x, y)
	case OpMod:
		y.Mod(x, y)
	case OpSMod:
		y.SMod(x, y)
	case OpSignExtend:
		y.SignExtend(x, y)
	case OpLt:
		setBool(y, x.Lt(y))
	case OpGt:
		setBool(y, x.Gt(y))
	case OpSlt:
		setBool(y, x.Slt(y))
	case OpSgt:
		setBool(y, x.Sgt(y))
	case OpEq:
		setBool(y, x.Eq(y))
	case OpAnd:
		y.And(x, y)
	case OpOr:
		y.Or(x, y)
	case OpXor:
		y.Xor(x, y)
	case OpByte:
		y.Byte(x, y)
	case OpShl:
		y.Shl(x, y)
	case OpShr:
		y.Shr(x, y)
	case OpSar:
		y.Sar(x, y)
	}
}

// splitsBlock reports whether op must run through the tier-0 dispatch
// loop: its pre-execution checks depend on the Config (SENSOR enable,
// tinyRemoved) or it has no handler at all. Splitters are never included
// in a block, which keeps decoded Programs config-independent.
func splitsBlock(op Opcode) bool {
	oper := &opTable[op]
	return !oper.defined || op == OpInvalid || op == OpSensor || oper.tinyRemoved
}

// endsBlock reports whether op terminates a basic block (and is included
// as its final instruction): jumps, frame terminals, and the call/create
// family — children drain the shared step budget, which would invalidate
// the block-entry step precheck for anything after them.
func endsBlock(op Opcode) bool {
	switch op {
	case OpJump, OpJumpI,
		OpCreate, OpCreate2, OpCall, OpCallCode, OpDelegateCall, OpStaticCall:
		return true
	}
	return opTable[op].terminal
}

// readPushImm decodes the immediate of the PUSH at pc with opPush's
// exact semantics (immediates past the end of code read as zero, padded
// on the right) and returns it with the pc of the next opcode.
func readPushImm(code []byte, pc uint64) (uint256.Int, uint64) {
	op := Opcode(code[pc])
	nb := uint64(op.PushBytes())
	start := pc + 1
	end := start + nb
	n := uint64(len(code))
	var w uint256.Int
	if start < n {
		stop := end
		if stop > n {
			stop = n
		}
		chunk := code[start:stop]
		if uint64(len(chunk)) == nb {
			w.SetBytes(chunk)
		} else {
			var padded [32]byte
			copy(padded[:nb], chunk)
			w.SetBytes(padded[:nb])
		}
	}
	return w, end
}

// decodeProgram decodes code into its tier-1 Program. dests is the
// JUMPDEST bitmap of the same code; constant jump targets are validated
// against it at decode time (a static property of the bytecode).
func decodeProgram(code []byte, dests JumpDestBitmap) *Program {
	n := uint64(len(code))
	p := &Program{blockIdx: make([]int32, len(code))}
	if n == 0 {
		return p
	}

	// Pass 1: mark block leaders — entry, every JUMPDEST, and the
	// instruction after every block ender or splitter.
	starts := make([]bool, n)
	starts[0] = true
	for i := uint64(0); i < n; {
		op := Opcode(code[i])
		next := i + 1 + uint64(op.PushBytes())
		if op == OpJumpDest {
			starts[i] = true
		} else if endsBlock(op) || splitsBlock(op) {
			if next < n {
				starts[next] = true
			}
		}
		i = next
	}

	// Pass 2: decode a block at every leader. Leaders whose first opcode
	// is a splitter produce no block; the runtime falls back to per-op
	// stepping there.
	for i := uint64(0); i < n; {
		op := Opcode(code[i])
		if !starts[i] {
			i += 1 + uint64(op.PushBytes())
			continue
		}
		b := decodeBlock(code, i, starts, dests)
		if len(b.instrs) > 0 {
			p.blocks = append(p.blocks, b)
			p.blockIdx[i] = int32(len(p.blocks))
		}
		i += 1 + uint64(op.PushBytes())
	}
	return p
}

// decodeBlock decodes one basic block starting at `at`, fusing hot
// opcode sequences into superinstructions while accounting the covered
// opcodes' exact tier-0 stack and gas requirements.
func decodeBlock(code []byte, at uint64, starts []bool, dests JumpDestBitmap) basicBlock {
	n := uint64(len(code))
	b := basicBlock{}
	depth := 0 // net stack delta since block entry

	// fold appends in to the block after accounting each covered
	// opcode's static effect, op by op, so the block's entry requirements
	// and the instr's high-water bump match tier-0 exactly.
	fold := func(in instr, ops ...Opcode) {
		entry := depth
		peak := int(peakNone)
		var gas uint64
		for _, op := range ops {
			o := &opTable[op]
			if need := o.minStack - depth; need > b.minStack {
				b.minStack = need
			}
			depth += o.growth
			if depth > b.growthPeak {
				b.growthPeak = depth
			}
			// Only pushes raise the stack high-water mark in tier-0, and
			// every handler pushes at its post-op depth.
			if o.growth > 0 && depth-entry > peak {
				peak = depth - entry
			}
			gas += o.constGas
		}
		in.steps = uint16(len(ops))
		in.peak = int16(peak)
		in.gas = gas
		b.steps += uint64(len(ops))
		b.constGas += gas
		b.instrs = append(b.instrs, in)
	}

	i := at
loop:
	for i < n {
		op := Opcode(code[i])
		if splitsBlock(op) {
			break // runs per-op through the tier-0 fallback
		}
		if i != at && starts[i] {
			break // a JUMPDEST begins its own block
		}

		switch {
		case op == OpJumpDest:
			fold(instr{kind: kNop, pc: i}, op)
			i++

		case op.IsPush():
			imm, next := readPushImm(code, i)
			if next < n && !starts[next] {
				op2 := Opcode(code[next])
				switch {
				case op2.IsPush():
					imm2, next2 := readPushImm(code, next)
					if next2 < n && !starts[next2] && isFusableBinop(Opcode(code[next2])) {
						op3 := Opcode(code[next2])
						folded := imm
						applyBinop(op3, &imm2, &folded)
						fold(instr{kind: kPushFold, op: op3, imm: folded, pc: i}, op, op2, op3)
						i = next2 + 1
						continue
					}
				case op2 == OpJump:
					if imm.IsUint64() && dests.Has(imm.Uint64()) {
						fold(instr{kind: kJump, dest: imm.Uint64(), pc: i}, op, op2)
						i = next + 1
						break loop
					}
					// Invalid constant target: keep the plain push; the
					// JUMP decodes as a generic ender next iteration and
					// reproduces the exact tier-0 error.
				case op2 == OpJumpI:
					if imm.IsUint64() && dests.Has(imm.Uint64()) {
						fold(instr{kind: kJumpI, dest: imm.Uint64(), pc: i}, op, op2)
						i = next + 1
						break loop
					}
				case op2 == OpMLoad:
					if imm.IsUint64() && imm.Uint64() <= maxConstMemOffset {
						fold(instr{kind: kConstMLoad, dest: imm.Uint64(), pc: i}, op, op2)
						i = next + 1
						continue
					}
				case op2 == OpMStore:
					if imm.IsUint64() && imm.Uint64() <= maxConstMemOffset {
						fold(instr{kind: kConstMStore, dest: imm.Uint64(), pc: i}, op, op2)
						i = next + 1
						continue
					}
				case op2 == OpSwap1:
					if next+1 < n && !starts[next+1] && isFusableBinop(Opcode(code[next+1])) {
						op3 := Opcode(code[next+1])
						fold(instr{kind: kConstSwapBinop, op: op3, imm: imm, pc: i}, op, op2, op3)
						i = next + 2
						continue
					}
				default:
					if isFusableBinop(op2) {
						fold(instr{kind: kConstBinop, op: op2, imm: imm, pc: i}, op, op2)
						i = next + 1
						continue
					}
				}
			}
			fold(instr{kind: kPush, imm: imm, pc: i}, op)
			i = next

		case op >= OpDup1 && op <= OpDup16:
			if op == OpDup1 && i+2 < n && !starts[i+1] && !starts[i+2] &&
				Opcode(code[i+1]) == OpIsZero && Opcode(code[i+2]).IsPush() {
				imm, next := readPushImm(code, i+2)
				if next < n && !starts[next] && Opcode(code[next]) == OpJumpI &&
					imm.IsUint64() && dests.Has(imm.Uint64()) {
					fold(instr{kind: kDupIsZeroJumpI, dest: imm.Uint64(), pc: i},
						OpDup1, OpIsZero, Opcode(code[i+2]), OpJumpI)
					i = next + 1
					break loop
				}
			}
			if i+1 < n && !starts[i+1] {
				op2 := Opcode(code[i+1])
				if op2 >= OpSwap1 && op2 <= OpSwap16 {
					fold(instr{kind: kDupSwap, n: uint8(op-OpDup1) + 1, m: uint8(op2-OpSwap1) + 1, pc: i}, op, op2)
					i += 2
					continue
				}
			}
			fold(instr{kind: kDup, n: uint8(op-OpDup1) + 1, pc: i}, op)
			i++

		case op == OpIsZero:
			if i+1 < n && !starts[i+1] && Opcode(code[i+1]).IsPush() {
				imm, next := readPushImm(code, i+1)
				if next < n && !starts[next] && Opcode(code[next]) == OpJumpI &&
					imm.IsUint64() && dests.Has(imm.Uint64()) {
					fold(instr{kind: kIsZeroJumpI, dest: imm.Uint64(), pc: i},
						op, Opcode(code[i+1]), OpJumpI)
					i = next + 1
					break loop
				}
			}
			fold(instr{kind: kGeneric, op: op, pc: i}, op)
			i++

		case op >= OpSwap1 && op <= OpSwap16:
			fold(instr{kind: kSwap, n: uint8(op-OpSwap1) + 1, pc: i}, op)
			i++

		case op == OpPop:
			fold(instr{kind: kPop, pc: i}, op)
			i++

		case endsBlock(op):
			fold(instr{kind: kGeneric, op: op, pc: i}, op)
			i++
			break loop

		default:
			fold(instr{kind: kGeneric, op: op, pc: i}, op)
			i++
		}
	}
	b.next = i
	return b
}

// --- per-opcode / per-superinstruction profile ------------------------

// opProfileEnabled gates the execution profile counters; tests flip it
// via SetOpProfile.
var opProfileEnabled bool

var (
	opHits     [256]atomic.Uint64
	fusionHits [numInstrKinds]atomic.Uint64
)

// fusionNames label the non-generic instruction kinds in profile output:
// "block:" kinds are single opcodes executed on the tier-1 fast path,
// "fused:" kinds are true superinstructions.
var fusionNames = [numInstrKinds]string{
	kNop:            "block:JUMPDEST",
	kPush:           "block:PUSH",
	kPop:            "block:POP",
	kDup:            "block:DUP",
	kSwap:           "block:SWAP",
	kDupSwap:        "fused:DUP_SWAP",
	kPushFold:       "fused:PUSH_PUSH_OP",
	kConstBinop:     "fused:PUSH_OP",
	kConstSwapBinop: "fused:PUSH_SWAP_OP",
	kConstMLoad:     "fused:PUSH_MLOAD",
	kConstMStore:    "fused:PUSH_MSTORE",
	kJump:           "fused:PUSH_JUMP",
	kJumpI:          "fused:PUSH_JUMPI",
	kIsZeroJumpI:    "fused:ISZERO_JUMPI",
	kDupIsZeroJumpI: "fused:DUP_ISZERO_JUMPI",
}

// SetOpProfile turns the execution profile counters on or off. Not safe
// to flip while executions are in flight.
func SetOpProfile(on bool) { opProfileEnabled = on }

// ResetOpProfile zeroes all profile counters.
func ResetOpProfile() {
	for i := range opHits {
		opHits[i].Store(0)
	}
	for i := range fusionHits {
		fusionHits[i].Store(0)
	}
}

// OpProfile returns the non-zero profile counters: per-opcode dispatch
// counts (tier-0 and generic tier-1 instructions, keyed by mnemonic) and
// per-superinstruction hit counts (keyed by the fused-sequence name).
func OpProfile() map[string]uint64 {
	out := make(map[string]uint64)
	for i := range opHits {
		if v := opHits[i].Load(); v > 0 {
			out[Opcode(i).String()] += v
		}
	}
	for i := range fusionHits {
		if v := fusionHits[i].Load(); v > 0 {
			out[fusionNames[i]] += v
		}
	}
	return out
}
