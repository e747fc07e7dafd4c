package evm

import (
	"fmt"
	"sync"

	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// EVM executes bytecode against a StateDB under a Config. One EVM value
// handles one top-level call or create, including its nested frames.
type EVM struct {
	// Config is the machine configuration (mode, limits).
	Config Config
	// State is the account and storage backend.
	State StateDB
	// Block supplies blockchain opcodes in ModeFull.
	Block BlockContext
	// Tx supplies ORIGIN and GASPRICE.
	Tx TxContext
	// Sensors backs the IoT opcode in ModeTiny; nil makes the opcode
	// fail with ErrNoSensorBus.
	Sensors SensorBus
	// Tracer, when non-nil, observes every executed instruction.
	Tracer Tracer

	depth     int
	stepsLeft uint64
}

// New constructs an EVM over the given state.
func New(cfg Config, state StateDB) *EVM {
	vm := &EVM{Config: cfg, State: state}
	vm.resetStepBudget()
	return vm
}

// resetStepBudget re-arms the per-transaction step limit.
func (vm *EVM) resetStepBudget() {
	if vm.Config.StepLimit == 0 {
		vm.stepsLeft = ^uint64(0)
	} else {
		vm.stepsLeft = vm.Config.StepLimit
	}
}

// ExecResult is the outcome of a Call or Create.
type ExecResult struct {
	// ReturnData is the RETURN or REVERT payload.
	ReturnData []byte
	// Err is nil on success, ErrRevert on REVERT, or a hard failure.
	Err error
	// GasUsed is the total gas consumed (ModeFull).
	GasUsed uint64
	// Stats aggregates execution counters across all frames.
	Stats ExecStats
	// ContractAddress is set by Create.
	ContractAddress types.Address

	// gasMetered and gasRemaining preserve the frame's gas accounting
	// past its release, for create's code-deposit charge.
	gasMetered   bool
	gasRemaining uint64
}

// Reverted reports whether execution ended in REVERT (state rolled back,
// return data available).
func (r *ExecResult) Reverted() bool { return r.Err == ErrRevert }

// Failed reports whether execution failed for any reason.
func (r *ExecResult) Failed() bool { return r.Err != nil }

// frame is one execution frame (one contract activation). Frames and
// their stacks and memories are pooled: release returns them for reuse
// after the frame's observable results have been copied out.
type frame struct {
	vm *EVM
	// address is the account whose storage/context the code runs in.
	address types.Address
	// codeAddress is the account the code was loaded from (differs from
	// address under DELEGATECALL/CALLCODE).
	codeAddress types.Address
	caller      types.Address
	value       uint256.Int
	code        []byte
	input       []byte
	gas         gasPool
	stack       *Stack
	memory      *Memory
	pc          uint64
	returnData  []byte // last child call's return data
	readOnly    bool
	stats       ExecStats
	// jumpDests marks valid JUMPDEST positions for the code; shared
	// across executions through the state's analysis cache.
	jumpDests JumpDestBitmap
}

// framePool recycles frame shells across executions; stacks and
// memories have their own pools (see stack.go, memory.go).
var framePool = sync.Pool{New: func() any { return new(frame) }}

// JumpDestBitmap marks valid JUMPDEST positions in a code blob, one bit
// per code offset. PUSH immediates are skipped during analysis, so a
// set bit is always a real, jumpable instruction boundary.
type JumpDestBitmap []byte

// Has reports whether pos is a valid JUMPDEST. Positions past the end
// of code are never valid.
func (b JumpDestBitmap) Has(pos uint64) bool {
	return pos/8 < uint64(len(b)) && b[pos/8]&(1<<(pos%8)) != 0
}

// analyzeJumpDests finds all valid JUMPDEST positions, skipping PUSH
// immediates.
func analyzeJumpDests(code []byte) JumpDestBitmap {
	dests := make(JumpDestBitmap, (len(code)+7)/8)
	for i := 0; i < len(code); i++ {
		op := Opcode(code[i])
		if op == OpJumpDest {
			dests[i/8] |= 1 << (uint(i) % 8)
		}
		i += op.PushBytes()
	}
	return dests
}

// JumpDestCache is implemented by state backends that share JUMPDEST
// analysis across executions, keyed by code hash. MemState implements
// it with a mutex-guarded map so concurrent engine workers reuse one
// analysis per contract; the engine's overlay views forward to it.
type JumpDestCache interface {
	// JumpDestAnalysis returns the (possibly cached) JUMPDEST bitmap
	// for code, whose Keccak-256 hash is codeHash. Implementations must
	// be safe for concurrent use.
	JumpDestAnalysis(codeHash types.Hash, code []byte) JumpDestBitmap
}

// codeAnalysis resolves the JUMPDEST bitmap for code installed at
// codeAddr. When the state backend maintains an analysis cache the
// bitmap is shared across executions (repeated calls to the same
// contract stop re-scanning its bytecode); otherwise it is computed
// fresh. Init code, which is not installed anywhere, must use
// analyzeJumpDests directly.
func (vm *EVM) codeAnalysis(codeAddr types.Address, code []byte) JumpDestBitmap {
	if c, ok := vm.State.(JumpDestCache); ok {
		return c.JumpDestAnalysis(vm.State.CodeHash(codeAddr), code)
	}
	return analyzeJumpDests(code)
}

// Call runs the code at `to` with the given input and value transfer.
// gasLimit is only consulted in ModeFull.
func (vm *EVM) Call(caller, to types.Address, input []byte, value *uint256.Int, gasLimit uint64) *ExecResult {
	if vm.depth == 0 {
		vm.resetStepBudget()
	}
	return vm.call(caller, to, to, input, value, gasLimit, false, false)
}

// call implements CALL/CALLCODE/DELEGATECALL/STATICCALL. When
// delegate is true, storage context `contextAddr` differs from the code
// account `codeAddr` and no value transfer occurs.
func (vm *EVM) call(caller, contextAddr, codeAddr types.Address, input []byte, value *uint256.Int, gasLimit uint64, readOnly, delegate bool) *ExecResult {
	if vm.depth >= vm.Config.CallDepthLimit {
		return &ExecResult{Err: ErrCallDepth}
	}

	snap := vm.State.Snapshot()

	if !delegate && !value.IsZero() {
		if readOnly {
			vm.State.RevertToSnapshot(snap)
			return &ExecResult{Err: ErrWriteProtection}
		}
		if err := vm.transfer(caller, contextAddr, value); err != nil {
			vm.State.RevertToSnapshot(snap)
			return &ExecResult{Err: err}
		}
	}

	if isPrecompile(codeAddr) {
		res := &ExecResult{ReturnData: runPrecompile(codeAddr, input)}
		if vm.Config.Mode == ModeFull {
			fee := precompileGas(codeAddr, len(input))
			if fee > gasLimit {
				vm.State.RevertToSnapshot(snap)
				return &ExecResult{Err: ErrOutOfGas, GasUsed: gasLimit}
			}
			res.GasUsed = fee
		}
		vm.State.DiscardSnapshot(snap)
		return res
	}

	code := vm.State.Code(codeAddr)
	if len(code) == 0 {
		// Plain value transfer or call to empty account: succeeds with
		// no execution.
		vm.State.DiscardSnapshot(snap)
		return &ExecResult{}
	}

	f := vm.newFrame(contextAddr, codeAddr, caller, value, code, input, gasLimit, readOnly,
		vm.codeAnalysis(codeAddr, code))
	res := vm.runFrame(f)
	if res.Err != nil {
		vm.State.RevertToSnapshot(snap)
	} else {
		vm.State.DiscardSnapshot(snap)
	}
	return res
}

// Create deploys a contract: it runs `initCode` as the constructor and
// installs its return value as the runtime code, enforcing the
// deployment limit. This is the operation measured by the paper's
// Figure 4 / Table II deployment experiment.
func (vm *EVM) Create(caller types.Address, initCode []byte, value *uint256.Int, gasLimit uint64) *ExecResult {
	if vm.depth == 0 {
		vm.resetStepBudget()
	}
	nonce := vm.State.Nonce(caller)
	addr := types.ContractAddress(caller, nonce)
	return vm.create(caller, addr, initCode, value, gasLimit)
}

func (vm *EVM) create(caller, addr types.Address, initCode []byte, value *uint256.Int, gasLimit uint64) *ExecResult {
	if vm.depth >= vm.Config.CallDepthLimit {
		return &ExecResult{Err: ErrCallDepth}
	}
	if len(vm.State.Code(addr)) > 0 || vm.State.Nonce(addr) > 0 {
		return &ExecResult{Err: ErrContractCollision}
	}

	snap := vm.State.Snapshot()
	vm.State.SetNonce(caller, vm.State.Nonce(caller)+1)
	vm.State.CreateAccount(addr)

	if !value.IsZero() {
		if err := vm.transfer(caller, addr, value); err != nil {
			vm.State.RevertToSnapshot(snap)
			return &ExecResult{Err: err}
		}
	}

	// Init code is not installed at any account, so it is analyzed
	// fresh rather than through the state's code-hash-keyed cache.
	f := vm.newFrame(addr, addr, caller, value, initCode, nil, gasLimit, false, analyzeJumpDests(initCode))
	res := vm.runFrame(f)
	if res.Err != nil {
		vm.State.RevertToSnapshot(snap)
		return res
	}

	runtime := res.ReturnData
	if len(runtime) > vm.Config.CodeSizeLimit {
		vm.State.RevertToSnapshot(snap)
		res.Err = fmt.Errorf("%w: %d bytes > %d", ErrCodeSizeLimit, len(runtime), vm.Config.CodeSizeLimit)
		return res
	}
	if res.gasMetered {
		if err := res.depositGas(gasCodeDepositByte * uint64(len(runtime))); err != nil {
			vm.State.RevertToSnapshot(snap)
			res.Err = err
			return res
		}
		res.Stats.GasUsed = res.GasUsed
	}
	vm.State.SetCode(addr, runtime)
	vm.State.DiscardSnapshot(snap)
	res.ContractAddress = addr
	return res
}

// gasMetered and depositGas carry the frame's gas accounting past its
// release so create can charge the code-deposit fee without holding the
// frame itself.
func (r *ExecResult) depositGas(fee uint64) error {
	if fee > r.gasRemaining {
		return ErrOutOfGas
	}
	r.gasRemaining -= fee
	r.GasUsed += fee
	return nil
}

func (vm *EVM) newFrame(contextAddr, codeAddr, caller types.Address, value *uint256.Int, code, input []byte, gasLimit uint64, readOnly bool, jumpDests JumpDestBitmap) *frame {
	f := framePool.Get().(*frame)
	*f = frame{
		vm:          vm,
		address:     contextAddr,
		codeAddress: codeAddr,
		caller:      caller,
		value:       *value,
		code:        code,
		input:       input,
		gas:         gasPool{remaining: gasLimit, metered: vm.Config.Mode == ModeFull},
		stack:       newPooledStack(vm.Config.StackLimit),
		memory:      newPooledMemory(vm.Config.MemoryLimit),
		readOnly:    readOnly,
		jumpDests:   jumpDests,
	}
	return f
}

// release returns the frame and its pooled stack and memory for reuse.
// The reset is leak-proof: stack words and memory bytes written during
// execution are zeroed, and the high-water marks (the paper's
// max-stack-depth and peak-memory instrumentation) are cleared, so the
// next execution observes a pristine machine. The caller must not touch
// the frame afterwards.
func (f *frame) release() {
	f.stack.release()
	f.memory.release()
	*f = frame{}
	framePool.Put(f)
}

// runFrame executes a frame to completion, folds its stats, and
// releases the frame back to the pool.
func (vm *EVM) runFrame(f *frame) *ExecResult {
	vm.depth++
	defer func() { vm.depth-- }()

	ret, err := f.run()
	f.stats.MaxStackDepth = f.stack.MaxDepth()
	f.stats.PeakMemory = f.memory.Peak()
	if f.gas.metered {
		f.stats.GasUsed = f.gas.used
	}
	res := &ExecResult{
		ReturnData:   ret,
		Err:          err,
		GasUsed:      f.gas.used,
		Stats:        f.stats,
		gasMetered:   f.gas.metered,
		gasRemaining: f.gas.remaining,
	}
	f.release()
	return res
}

func (vm *EVM) transfer(from, to types.Address, amount *uint256.Int) error {
	if err := vm.State.SubBalance(from, amount); err != nil {
		return err
	}
	vm.State.AddBalance(to, amount)
	return nil
}
