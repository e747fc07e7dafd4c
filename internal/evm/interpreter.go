package evm

import (
	"fmt"

	"tinyevm/internal/keccak"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// run is the interpreter loop of one frame. It returns the RETURN/REVERT
// payload and the terminal error (nil for STOP/RETURN).
//
// Each step dispatches one opcode through the jump table: opTable[op]
// carries the handler, the folded constant gas cost and the stack
// requirements, so each step validates the stack up front, charges
// constant gas, and calls the handler — no per-opcode switch.
func (f *frame) run() ([]byte, error) {
	vm := f.vm
	isTiny := vm.Config.Mode == ModeTiny
	stackLimit := f.stack.limit
	for {
		if f.pc >= uint64(len(f.code)) {
			// Implicit STOP off the end of code.
			return nil, nil
		}
		op := Opcode(f.code[f.pc])
		oper := &opTable[op]

		if vm.stepsLeft == 0 {
			return nil, ErrStepLimit
		}
		vm.stepsLeft--
		f.stats.Steps++

		if vm.Tracer != nil {
			vm.Tracer.CaptureOp(f.pc, op, f.stack, f.memory.Len())
		}

		if !oper.defined || op == OpInvalid {
			return nil, fmt.Errorf("%w: %s at pc %d", ErrInvalidOpcode, op, f.pc)
		}
		if isTiny && oper.tinyRemoved {
			return nil, fmt.Errorf("%w: %s at pc %d", ErrOpcodeRemoved, oper.name, f.pc)
		}
		if op == OpSensor && !vm.Config.EnableSensorOpcode {
			return nil, fmt.Errorf("%w: SENSOR at pc %d", ErrInvalidOpcode, f.pc)
		}
		if f.stack.Len() < oper.minStack {
			return nil, fmt.Errorf("%s at pc %d: %w", oper.name, f.pc, ErrStackUnderflow)
		}
		if oper.growth > 0 && f.stack.Len()+oper.growth > stackLimit {
			return nil, ErrStackOverflow
		}
		if err := f.gas.consume(oper.constGas); err != nil {
			return nil, err
		}

		done, ret, err := oper.exec(f)
		if err != nil {
			return ret, err
		}
		if done {
			return ret, nil
		}
	}
}

// advance bumps pc when err is nil; a helper for single-byte opcodes.
func (f *frame) advance(err error) error {
	if err != nil {
		return err
	}
	f.pc++
	return nil
}

func (f *frame) pushUint(v uint64) error {
	return f.advance(f.stack.PushUint64(v))
}

func (f *frame) pushAddr(a types.Address) error {
	var w uint256.Int
	w.SetBytes(a[:])
	return f.advance(f.stack.Push(&w))
}

// popPeek pops the top word and returns it together with a pointer to
// the new top, which binary operations overwrite in place. Working
// through the live slot avoids the escaping temporary the old
// closure-based helpers allocated on every arithmetic opcode.
//
// The dispatch loop validates opTable[op].minStack before calling any
// handler, so these Pop/Peek calls cannot underflow in practice; the
// error paths are kept as cheap defense in depth should a table arity
// ever drift from its handler.
func (f *frame) popPeek() (uint256.Int, *uint256.Int, error) {
	x, err := f.stack.Pop()
	if err != nil {
		return x, nil, err
	}
	y, err := f.stack.Peek(0)
	return x, y, err
}

// --- control ---------------------------------------------------------

func execStop(f *frame) (bool, []byte, error) { return true, nil, nil }

func execJumpDest(f *frame) (bool, []byte, error) {
	f.pc++
	return false, nil, nil
}

// --- arithmetic ------------------------------------------------------

func execAdd(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	y.Add(&x, y)
	f.pc++
	return false, nil, nil
}

func execMul(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	y.Mul(&x, y)
	f.pc++
	return false, nil, nil
}

func execSub(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	y.Sub(&x, y)
	f.pc++
	return false, nil, nil
}

func execDiv(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	y.Div(&x, y)
	f.pc++
	return false, nil, nil
}

func execSDiv(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	y.SDiv(&x, y)
	f.pc++
	return false, nil, nil
}

func execMod(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	y.Mod(&x, y)
	f.pc++
	return false, nil, nil
}

func execSMod(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	y.SMod(&x, y)
	f.pc++
	return false, nil, nil
}

func execAddMod(f *frame) (bool, []byte, error) {
	x, err := f.stack.Pop()
	if err != nil {
		return false, nil, err
	}
	y, err := f.stack.Pop()
	if err != nil {
		return false, nil, err
	}
	m, err := f.stack.Peek(0)
	if err != nil {
		return false, nil, err
	}
	m.AddMod(&x, &y, m)
	f.pc++
	return false, nil, nil
}

func execMulMod(f *frame) (bool, []byte, error) {
	x, err := f.stack.Pop()
	if err != nil {
		return false, nil, err
	}
	y, err := f.stack.Pop()
	if err != nil {
		return false, nil, err
	}
	m, err := f.stack.Peek(0)
	if err != nil {
		return false, nil, err
	}
	m.MulMod(&x, &y, m)
	f.pc++
	return false, nil, nil
}

func execExp(f *frame) (bool, []byte, error) {
	base, err := f.stack.Pop()
	if err != nil {
		return false, nil, err
	}
	exp, err := f.stack.Peek(0)
	if err != nil {
		return false, nil, err
	}
	if f.gas.metered {
		if err := f.gas.consume(gasExpBase + gasExpByte*uint64(exp.ByteLen())); err != nil {
			return false, nil, err
		}
	}
	exp.Exp(&base, exp)
	f.pc++
	return false, nil, nil
}

func execSignExtend(f *frame) (bool, []byte, error) {
	back, x, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	x.SignExtend(&back, x)
	f.pc++
	return false, nil, nil
}

// --- comparison & bitwise --------------------------------------------

func execLt(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	setBool(y, x.Lt(y))
	f.pc++
	return false, nil, nil
}

func execGt(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	setBool(y, x.Gt(y))
	f.pc++
	return false, nil, nil
}

func execSlt(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	setBool(y, x.Slt(y))
	f.pc++
	return false, nil, nil
}

func execSgt(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	setBool(y, x.Sgt(y))
	f.pc++
	return false, nil, nil
}

func execEq(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	setBool(y, x.Eq(y))
	f.pc++
	return false, nil, nil
}

func execIsZero(f *frame) (bool, []byte, error) {
	x, err := f.stack.Peek(0)
	if err != nil {
		return false, nil, err
	}
	setBool(x, x.IsZero())
	f.pc++
	return false, nil, nil
}

func setBool(z *uint256.Int, v bool) {
	if v {
		z.SetOne()
	} else {
		z.Clear()
	}
}

func execAnd(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	y.And(&x, y)
	f.pc++
	return false, nil, nil
}

func execOr(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	y.Or(&x, y)
	f.pc++
	return false, nil, nil
}

func execXor(f *frame) (bool, []byte, error) {
	x, y, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	y.Xor(&x, y)
	f.pc++
	return false, nil, nil
}

func execNot(f *frame) (bool, []byte, error) {
	x, err := f.stack.Peek(0)
	if err != nil {
		return false, nil, err
	}
	x.Not(x)
	f.pc++
	return false, nil, nil
}

func execByte(f *frame) (bool, []byte, error) {
	n, x, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	x.Byte(&n, x)
	f.pc++
	return false, nil, nil
}

func execShl(f *frame) (bool, []byte, error) {
	s, v, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	v.Shl(&s, v)
	f.pc++
	return false, nil, nil
}

func execShr(f *frame) (bool, []byte, error) {
	s, v, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	v.Shr(&s, v)
	f.pc++
	return false, nil, nil
}

func execSar(f *frame) (bool, []byte, error) {
	s, v, err := f.popPeek()
	if err != nil {
		return false, nil, err
	}
	v.Sar(&s, v)
	f.pc++
	return false, nil, nil
}

// --- wrappers over the richer op implementations ---------------------

func execSensor(f *frame) (bool, []byte, error) { return false, nil, f.opSensor() }
func execKeccak(f *frame) (bool, []byte, error) { return false, nil, f.opKeccak() }

func execAddress(f *frame) (bool, []byte, error) { return false, nil, f.pushAddr(f.address) }
func execBalance(f *frame) (bool, []byte, error) { return false, nil, f.opBalance() }
func execOrigin(f *frame) (bool, []byte, error)  { return false, nil, f.pushAddr(f.vm.Tx.Origin) }
func execCaller(f *frame) (bool, []byte, error)  { return false, nil, f.pushAddr(f.caller) }
func execCallValue(f *frame) (bool, []byte, error) {
	return false, nil, f.advance(f.stack.Push(&f.value))
}
func execCallDataLoad(f *frame) (bool, []byte, error) {
	return false, nil, f.opCallDataLoad()
}
func execCallDataSize(f *frame) (bool, []byte, error) {
	return false, nil, f.pushUint(uint64(len(f.input)))
}
func execCallDataCopy(f *frame) (bool, []byte, error) { return false, nil, f.opCopy(f.input) }
func execCodeSize(f *frame) (bool, []byte, error) {
	return false, nil, f.pushUint(uint64(len(f.code)))
}
func execCodeCopy(f *frame) (bool, []byte, error)    { return false, nil, f.opCopy(f.code) }
func execGasPrice(f *frame) (bool, []byte, error)    { return false, nil, f.pushUint(f.vm.Tx.GasPrice) }
func execExtCodeSize(f *frame) (bool, []byte, error) { return false, nil, f.opExtCodeSize() }
func execExtCodeCopy(f *frame) (bool, []byte, error) { return false, nil, f.opExtCodeCopy() }
func execReturnDataSize(f *frame) (bool, []byte, error) {
	return false, nil, f.pushUint(uint64(len(f.returnData)))
}
func execReturnDataCopy(f *frame) (bool, []byte, error) { return false, nil, f.opCopy(f.returnData) }
func execExtCodeHash(f *frame) (bool, []byte, error)    { return false, nil, f.opExtCodeHash() }

func execBlockHash(f *frame) (bool, []byte, error) { return false, nil, f.opBlockHash() }
func execCoinbase(f *frame) (bool, []byte, error) {
	return false, nil, f.pushAddr(f.vm.Block.Coinbase)
}
func execTimestamp(f *frame) (bool, []byte, error) {
	return false, nil, f.pushUint(f.vm.Block.Timestamp)
}
func execNumber(f *frame) (bool, []byte, error) { return false, nil, f.pushUint(f.vm.Block.Number) }
func execDifficulty(f *frame) (bool, []byte, error) {
	return false, nil, f.pushUint(f.vm.Block.Difficulty)
}
func execGasLimit(f *frame) (bool, []byte, error) {
	return false, nil, f.pushUint(f.vm.Block.GasLimit)
}

func execPop(f *frame) (bool, []byte, error) {
	_, err := f.stack.Pop()
	return false, nil, f.advance(err)
}
func execMLoad(f *frame) (bool, []byte, error)   { return false, nil, f.opMLoad() }
func execMStore(f *frame) (bool, []byte, error)  { return false, nil, f.opMStore() }
func execMStore8(f *frame) (bool, []byte, error) { return false, nil, f.opMStore8() }
func execSLoad(f *frame) (bool, []byte, error)   { return false, nil, f.opSLoad() }
func execSStore(f *frame) (bool, []byte, error)  { return false, nil, f.opSStore() }
func execJump(f *frame) (bool, []byte, error)    { return false, nil, f.opJump() }
func execJumpI(f *frame) (bool, []byte, error)   { return false, nil, f.opJumpI() }
func execPC(f *frame) (bool, []byte, error)      { return false, nil, f.pushUint(f.pc) }
func execMSize(f *frame) (bool, []byte, error)   { return false, nil, f.pushUint(f.memory.Len()) }
func execGas(f *frame) (bool, []byte, error)     { return false, nil, f.pushUint(f.gas.remaining) }

func execCreate(f *frame) (bool, []byte, error)  { return false, nil, f.opCreate(false) }
func execCreate2(f *frame) (bool, []byte, error) { return false, nil, f.opCreate(true) }
func execCall(f *frame) (bool, []byte, error)    { return false, nil, f.opCall(OpCall) }
func execCallCode(f *frame) (bool, []byte, error) {
	return false, nil, f.opCall(OpCallCode)
}
func execDelegateCall(f *frame) (bool, []byte, error) {
	return false, nil, f.opCall(OpDelegateCall)
}
func execStaticCall(f *frame) (bool, []byte, error) {
	return false, nil, f.opCall(OpStaticCall)
}

func execReturn(f *frame) (bool, []byte, error) {
	ret, err := f.opReturnData()
	return true, ret, err
}

func execRevert(f *frame) (bool, []byte, error) {
	ret, err := f.opReturnData()
	if err != nil {
		return true, nil, err
	}
	return true, ret, ErrRevert
}

func execSelfDestruct(f *frame) (bool, []byte, error) { return true, nil, f.opSelfDestruct() }

// --- op implementations ----------------------------------------------

// opPush reads the n-byte immediate and pushes it.
func (f *frame) opPush(n int) error {
	start := f.pc + 1
	end := start + uint64(n)
	var chunk []byte
	if start < uint64(len(f.code)) {
		stop := end
		if stop > uint64(len(f.code)) {
			stop = uint64(len(f.code))
		}
		chunk = f.code[start:stop]
	}
	// Immediates past the end of code read as zero; pad on the right.
	var w uint256.Int
	if len(chunk) == n {
		w.SetBytes(chunk)
	} else {
		var padded [32]byte
		copy(padded[:n], chunk)
		w.SetBytes(padded[:n])
	}
	if err := f.stack.Push(&w); err != nil {
		return err
	}
	f.pc = end
	return nil
}

func (f *frame) opSensor() error {
	id, err := f.stack.Pop()
	if err != nil {
		return err
	}
	param, err := f.stack.Pop()
	if err != nil {
		return err
	}
	if f.vm.Sensors == nil {
		return ErrNoSensorBus
	}
	f.stats.SensorOps++
	v, err := f.vm.Sensors.Sense(id.Uint64Capped(^uint64(0)), param.Uint64Capped(^uint64(0)))
	if err != nil {
		return fmt.Errorf("evm: SENSOR(%d): %w", id.Uint64(), err)
	}
	return f.pushUint(v)
}

func (f *frame) opKeccak() error {
	offset, err := f.stack.Pop()
	if err != nil {
		return err
	}
	size, err := f.stack.Pop()
	if err != nil {
		return err
	}
	off, sz, err := f.memRange(&offset, &size)
	if err != nil {
		return err
	}
	if f.gas.metered {
		if err := f.gas.consume(gasKeccakWord * wordCount(sz)); err != nil {
			return err
		}
	}
	data, err := f.memory.View(off, sz)
	if err != nil {
		return err
	}
	f.stats.Keccaks++
	h := keccak.Sum256(data)
	var w uint256.Int
	w.SetBytes(h[:])
	return f.advance(f.stack.Push(&w))
}

// memRange validates and charges a (offset, size) memory range from the
// stack.
func (f *frame) memRange(offset, size *uint256.Int) (uint64, uint64, error) {
	if size.IsZero() {
		return 0, 0, nil
	}
	const maxRange = 1 << 32
	if !size.IsUint64() || size.Uint64() > maxRange || !offset.IsUint64() || offset.Uint64() > maxRange {
		return 0, 0, ErrMemoryLimit
	}
	off, sz := offset.Uint64(), size.Uint64()
	if err := f.gas.chargeMemory(off, sz); err != nil {
		return 0, 0, err
	}
	return off, sz, nil
}

func (f *frame) opBalance() error {
	addrWord, err := f.stack.Pop()
	if err != nil {
		return err
	}
	b := addrWord.Bytes32()
	bal := f.vm.State.Balance(types.BytesToAddress(b[12:]))
	return f.advance(f.stack.Push(bal))
}

func (f *frame) opCallDataLoad() error {
	offset, err := f.stack.Pop()
	if err != nil {
		return err
	}
	var w uint256.Int
	var buf [32]byte
	if offset.IsUint64() {
		off := offset.Uint64()
		for i := uint64(0); i < 32; i++ {
			if off+i < uint64(len(f.input)) {
				buf[i] = f.input[off+i]
			}
		}
	}
	w.SetBytes(buf[:])
	return f.advance(f.stack.Push(&w))
}

// opCopy implements CALLDATACOPY/CODECOPY/RETURNDATACOPY: pops
// (memOffset, srcOffset, size) and copies src into memory, zero-padding
// past the end of src.
func (f *frame) opCopy(src []byte) error {
	memOff, err := f.stack.Pop()
	if err != nil {
		return err
	}
	srcOff, err := f.stack.Pop()
	if err != nil {
		return err
	}
	size, err := f.stack.Pop()
	if err != nil {
		return err
	}
	return f.advance(f.copyIntoMemory(src, &memOff, &srcOff, &size))
}

func (f *frame) copyIntoMemory(src []byte, memOff, srcOff, size *uint256.Int) error {
	dst, sz, err := f.memRange(memOff, size)
	if err != nil {
		return err
	}
	if sz == 0 {
		return nil
	}
	if f.gas.metered {
		if err := f.gas.consume(gasCopyWord * wordCount(sz)); err != nil {
			return err
		}
	}
	if err := f.memory.Expand(dst, sz); err != nil {
		return err
	}
	chunk := make([]byte, sz)
	if srcOff.IsUint64() {
		so := srcOff.Uint64()
		if so < uint64(len(src)) {
			copy(chunk, src[so:])
		}
	}
	return f.memory.Set(dst, chunk)
}

func (f *frame) opExtCodeSize() error {
	addrWord, err := f.stack.Pop()
	if err != nil {
		return err
	}
	b := addrWord.Bytes32()
	code := f.vm.State.Code(types.BytesToAddress(b[12:]))
	return f.pushUint(uint64(len(code)))
}

func (f *frame) opExtCodeCopy() error {
	addrWord, err := f.stack.Pop()
	if err != nil {
		return err
	}
	b := addrWord.Bytes32()
	code := f.vm.State.Code(types.BytesToAddress(b[12:]))
	return f.opCopy(code)
}

func (f *frame) opExtCodeHash() error {
	addrWord, err := f.stack.Pop()
	if err != nil {
		return err
	}
	b := addrWord.Bytes32()
	addr := types.BytesToAddress(b[12:])
	var w uint256.Int
	if f.vm.State.Exists(addr) {
		h := f.vm.State.CodeHash(addr)
		w.SetBytes(h[:])
	}
	return f.advance(f.stack.Push(&w))
}

func (f *frame) opBlockHash() error {
	num, err := f.stack.Pop()
	if err != nil {
		return err
	}
	var w uint256.Int
	if f.vm.Block.BlockHash != nil && num.IsUint64() {
		h := f.vm.Block.BlockHash(num.Uint64())
		w.SetBytes(h[:])
	}
	return f.advance(f.stack.Push(&w))
}

func (f *frame) opMLoad() error {
	offset, err := f.stack.Pop()
	if err != nil {
		return err
	}
	size := uint256.NewInt(32)
	off, _, err := f.memRange(&offset, size)
	if err != nil {
		return err
	}
	var w uint256.Int
	if err := f.memory.GetWord(off, &w); err != nil {
		return err
	}
	return f.advance(f.stack.Push(&w))
}

func (f *frame) opMStore() error {
	offset, err := f.stack.Pop()
	if err != nil {
		return err
	}
	val, err := f.stack.Pop()
	if err != nil {
		return err
	}
	size := uint256.NewInt(32)
	off, _, err := f.memRange(&offset, size)
	if err != nil {
		return err
	}
	return f.advance(f.memory.SetWord(off, &val))
}

func (f *frame) opMStore8() error {
	offset, err := f.stack.Pop()
	if err != nil {
		return err
	}
	val, err := f.stack.Pop()
	if err != nil {
		return err
	}
	one := uint256.NewInt(1)
	off, _, err := f.memRange(&offset, one)
	if err != nil {
		return err
	}
	return f.advance(f.memory.SetByte(off, byte(val.Uint64())))
}

func (f *frame) opSLoad() error {
	key, err := f.stack.Pop()
	if err != nil {
		return err
	}
	k := f.vm.Config.truncateStorageKey(&key)
	v := f.vm.State.GetState(f.address, &k)
	return f.advance(f.stack.Push(&v))
}

func (f *frame) opSStore() error {
	if f.readOnly {
		return ErrWriteProtection
	}
	key, err := f.stack.Pop()
	if err != nil {
		return err
	}
	val, err := f.stack.Pop()
	if err != nil {
		return err
	}
	k := f.vm.Config.truncateStorageKey(&key)

	cur := f.vm.State.GetState(f.address, &k)
	if f.gas.metered {
		var fee uint64
		switch {
		case cur.IsZero() && !val.IsZero():
			fee = gasSstoreSet
		default:
			fee = gasSstoreRe
		}
		if err := f.gas.consume(fee); err != nil {
			return err
		}
	}
	// Enforce the TinyEVM storage budget: a write creating a new live
	// slot past the limit fails the execution (deployment failure mode
	// in the corpus evaluation).
	if limit := f.vm.Config.StorageSlotLimit; limit > 0 {
		if cur.IsZero() && !val.IsZero() && f.vm.State.StorageSlots(f.address) >= limit {
			return fmt.Errorf("%w: %d slots (%d bytes)", ErrStorageFull,
				limit, f.vm.Config.StorageSlotLimit*32)
		}
	}
	f.stats.StorageWrites++
	f.vm.State.SetState(f.address, &k, &val)
	f.pc++
	return nil
}

func (f *frame) opJump() error {
	dest, err := f.stack.Pop()
	if err != nil {
		return err
	}
	return f.jumpTo(&dest)
}

func (f *frame) opJumpI() error {
	dest, err := f.stack.Pop()
	if err != nil {
		return err
	}
	cond, err := f.stack.Pop()
	if err != nil {
		return err
	}
	if cond.IsZero() {
		f.pc++
		return nil
	}
	return f.jumpTo(&dest)
}

func (f *frame) jumpTo(dest *uint256.Int) error {
	if !dest.IsUint64() || !f.jumpDests.Has(dest.Uint64()) {
		return fmt.Errorf("%w: pc %s", ErrInvalidJump, dest.Dec())
	}
	f.pc = dest.Uint64()
	return nil
}

func (f *frame) opLog(topicCount int) error {
	if f.readOnly {
		return ErrWriteProtection
	}
	offset, err := f.stack.Pop()
	if err != nil {
		return err
	}
	size, err := f.stack.Pop()
	if err != nil {
		return err
	}
	topics := make([]types.Hash, topicCount)
	for i := 0; i < topicCount; i++ {
		t, err := f.stack.Pop()
		if err != nil {
			return err
		}
		topics[i] = types.Hash(t.Bytes32())
	}
	off, sz, err := f.memRange(&offset, &size)
	if err != nil {
		return err
	}
	if f.gas.metered {
		fee := gasLogTopic*uint64(topicCount) + gasLogByte*sz
		if err := f.gas.consume(fee); err != nil {
			return err
		}
	}
	data, err := f.memory.GetCopy(off, sz)
	if err != nil {
		return err
	}
	f.vm.State.AddLog(Log{Address: f.address, Topics: topics, Data: data})
	return nil
}

func (f *frame) opReturnData() ([]byte, error) {
	offset, err := f.stack.Pop()
	if err != nil {
		return nil, err
	}
	size, err := f.stack.Pop()
	if err != nil {
		return nil, err
	}
	off, sz, err := f.memRange(&offset, &size)
	if err != nil {
		return nil, err
	}
	return f.memory.GetCopy(off, sz)
}

func (f *frame) opSelfDestruct() error {
	if f.readOnly {
		return ErrWriteProtection
	}
	ben, err := f.stack.Pop()
	if err != nil {
		return err
	}
	b := ben.Bytes32()
	f.vm.State.SelfDestruct(f.address, types.BytesToAddress(b[12:]))
	return nil
}

func (f *frame) opCreate(create2 bool) error {
	if f.readOnly {
		return ErrWriteProtection
	}
	value, err := f.stack.Pop()
	if err != nil {
		return err
	}
	offset, err := f.stack.Pop()
	if err != nil {
		return err
	}
	size, err := f.stack.Pop()
	if err != nil {
		return err
	}
	var salt uint256.Int
	if create2 {
		salt, err = f.stack.Pop()
		if err != nil {
			return err
		}
	}
	off, sz, err := f.memRange(&offset, &size)
	if err != nil {
		return err
	}
	initCode, err := f.memory.GetCopy(off, sz)
	if err != nil {
		return err
	}

	var addr types.Address
	if create2 {
		saltBytes := salt.Bytes32()
		codeHash := keccak.Sum256(initCode)
		h := keccak.Sum256Concat([]byte{0xff}, f.address[:], saltBytes[:], codeHash[:])
		addr = types.BytesToAddress(h[12:])
	} else {
		addr = types.ContractAddress(f.address, f.vm.State.Nonce(f.address))
	}

	res := f.vm.create(f.address, addr, initCode, &value, f.gas.remaining)
	f.stats.merge(res.Stats)
	if f.gas.metered {
		if err := f.gas.consume(res.GasUsed); err != nil {
			return err
		}
	}
	f.returnData = nil
	var w uint256.Int
	if res.Err == nil {
		w.SetBytes(addr[:])
	} else if res.Err == ErrRevert {
		f.returnData = res.ReturnData
	}
	// Hard child failures (not revert) push 0 in real EVM because the
	// child consumed its forwarded gas; we mirror that by continuing
	// with a zero result.
	return f.advance(f.stack.Push(&w))
}

// opCall implements the CALL family. Pops differ per variant:
//
//	CALL/CALLCODE:        gas, to, value, inOff, inSize, outOff, outSize
//	DELEGATECALL/STATIC:  gas, to,        inOff, inSize, outOff, outSize
func (f *frame) opCall(op Opcode) error {
	gasWord, err := f.stack.Pop()
	if err != nil {
		return err
	}
	toWord, err := f.stack.Pop()
	if err != nil {
		return err
	}
	var value uint256.Int
	if op == OpCall || op == OpCallCode {
		value, err = f.stack.Pop()
		if err != nil {
			return err
		}
	}
	inOff, err := f.stack.Pop()
	if err != nil {
		return err
	}
	inSize, err := f.stack.Pop()
	if err != nil {
		return err
	}
	outOff, err := f.stack.Pop()
	if err != nil {
		return err
	}
	outSize, err := f.stack.Pop()
	if err != nil {
		return err
	}

	if f.readOnly && op == OpCall && !value.IsZero() {
		return ErrWriteProtection
	}

	iOff, iSz, err := f.memRange(&inOff, &inSize)
	if err != nil {
		return err
	}
	input, err := f.memory.GetCopy(iOff, iSz)
	if err != nil {
		return err
	}
	oOff, oSz, err := f.memRange(&outOff, &outSize)
	if err != nil {
		return err
	}

	if f.gas.metered && !value.IsZero() {
		if err := f.gas.consume(gasCallValue); err != nil {
			return err
		}
	}

	// Forward at most the requested gas, capped by the 63/64 rule.
	forward := f.gas.remaining - f.gas.remaining/64
	if gasWord.IsUint64() && gasWord.Uint64() < forward {
		forward = gasWord.Uint64()
	}

	toB := toWord.Bytes32()
	to := types.BytesToAddress(toB[12:])

	var res *ExecResult
	vm := f.vm
	switch op {
	case OpCall:
		res = vm.call(f.address, to, to, input, &value, forward, f.readOnly, false)
	case OpCallCode:
		// Run to's code in our own storage context, with value.
		res = vm.call(f.address, f.address, to, input, &value, forward, f.readOnly, false)
	case OpDelegateCall:
		// Keep caller and value from the current frame.
		res = vm.callDelegate(f.caller, f.address, to, input, &f.value, forward, f.readOnly)
	case OpStaticCall:
		res = vm.call(f.address, to, to, input, uint256.NewInt(0), forward, true, true)
	}

	f.stats.merge(res.Stats)
	if f.gas.metered {
		if err := f.gas.consume(res.GasUsed); err != nil {
			return err
		}
	}

	f.returnData = res.ReturnData
	if oSz > 0 && len(res.ReturnData) > 0 && (res.Err == nil || res.Err == ErrRevert) {
		n := uint64(len(res.ReturnData))
		if n > oSz {
			n = oSz
		}
		if err := f.memory.Set(oOff, res.ReturnData[:n]); err != nil {
			return err
		}
	}

	var ok uint256.Int
	if res.Err == nil {
		ok.SetOne()
	}
	return f.advance(f.stack.Push(&ok))
}

// callDelegate implements DELEGATECALL: code from codeAddr runs in the
// current contract's context, preserving the original caller and value.
func (vm *EVM) callDelegate(origCaller, contextAddr, codeAddr types.Address, input []byte, value *uint256.Int, gasLimit uint64, readOnly bool) *ExecResult {
	if vm.depth >= vm.Config.CallDepthLimit {
		return &ExecResult{Err: ErrCallDepth}
	}
	snap := vm.State.Snapshot()
	code := vm.State.Code(codeAddr)
	if len(code) == 0 {
		vm.State.DiscardSnapshot(snap)
		return &ExecResult{}
	}
	f := vm.newFrame(contextAddr, codeAddr, origCaller, value, code, input, gasLimit, readOnly,
		vm.codeAnalysis(codeAddr, code))
	res := vm.runFrame(f)
	if res.Err != nil {
		vm.State.RevertToSnapshot(snap)
	} else {
		vm.State.DiscardSnapshot(snap)
	}
	return res
}
