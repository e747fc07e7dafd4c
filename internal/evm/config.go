package evm

import (
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// Mode selects between the on-chain EVM and the customized TinyEVM.
type Mode uint8

const (
	// ModeFull is the standard on-chain EVM with gas metering and
	// blockchain opcodes.
	ModeFull Mode = iota + 1
	// ModeTiny is the paper's customized VM for off-chain execution on
	// the IoT device.
	ModeTiny
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "EVM"
	case ModeTiny:
		return "TinyEVM"
	default:
		return "unknown"
	}
}

// Device budget constants from the paper's experimental setup (§VI-A):
// "We implement EVM as a 256-bit word size machine with 3 KB of stack,
// 8 KB of random access memory, and 1 KB for off-chain storage. We
// support smart contract deployment up to 8 KB of bytecode."
const (
	// TinyStackBytes is the stack segment size (3 KB).
	TinyStackBytes = 3 * 1024
	// TinyStackWords is the stack depth limit in 32-byte words.
	TinyStackWords = TinyStackBytes / 32 // 96
	// TinyMemoryBytes is the random-access memory budget (8 KB).
	TinyMemoryBytes = 8 * 1024
	// TinyStorageBytes is the off-chain (side-chain) storage budget (1 KB).
	TinyStorageBytes = 1 * 1024
	// TinyStorageSlots is the number of 32-byte storage slots in 1 KB.
	TinyStorageSlots = TinyStorageBytes / 32 // 32
	// TinyCodeLimit is the deployment limit (8 KB of bytecode).
	TinyCodeLimit = 8 * 1024
	// TinyCallDepth bounds on-device call recursion; each frame costs
	// real RAM, so the device supports far fewer than Ethereum's 1024.
	TinyCallDepth = 8
	// TinyStepLimit bounds off-chain execution in place of gas; TinyEVM
	// charges no gas, but the device must still terminate.
	TinyStepLimit = 4_000_000
)

// Ethereum-side limits for ModeFull.
const (
	// FullStackWords is the yellow-paper stack limit.
	FullStackWords = 1024
	// FullCodeLimit is the EIP-170 deployed-code limit.
	FullCodeLimit = 24576
	// FullCallDepth is the yellow-paper call depth limit.
	FullCallDepth = 1024
)

// Parallel off-chain execution engine defaults (consumed by
// internal/engine). They live here, next to the other machine
// parameters, so every deployment surface (cmd, eval, benchmarks)
// shares one source of truth for the engine's shape.
const (
	// DefaultEngineWorkers is the worker-pool size; 0 means one worker
	// per available CPU (runtime.GOMAXPROCS).
	DefaultEngineWorkers = 0
	// DefaultEngineShards is the number of shards conflict groups are
	// partitioned into for scheduling; each shard's groups execute in
	// order on their own detached state views.
	DefaultEngineShards = 16
	// DefaultEngineMinBatch is the smallest batch worth parallelising;
	// below it the engine runs the serial path directly.
	DefaultEngineMinBatch = 2
)

// Config carries the static machine parameters for one EVM instance.
type Config struct {
	// Mode selects the opcode surface and resource policy.
	Mode Mode
	// StackLimit is the operand stack depth in words.
	StackLimit int
	// MemoryLimit caps random-access memory in bytes (0 = unlimited).
	MemoryLimit uint64
	// CodeSizeLimit caps deployed runtime code in bytes.
	CodeSizeLimit int
	// StorageKeyBits narrows storage keys; TinyEVM truncates keys to
	// 8 bits ("we utilize an 8-bit storage space"). 0 means full 256-bit
	// keys.
	StorageKeyBits int
	// StorageSlotLimit caps live storage slots per contract (0 =
	// unlimited); 32 slots = 1 KB on the device.
	StorageSlotLimit int
	// StepLimit bounds executed instructions when gas is off (0 =
	// unbounded).
	StepLimit uint64
	// CallDepthLimit bounds CALL/CREATE recursion.
	CallDepthLimit int
	// EnableSensorOpcode turns the 0x0C IoT opcode on.
	EnableSensorOpcode bool
}

// TinyConfig returns the TinyEVM machine configuration from Table I and
// §VI-A of the paper.
func TinyConfig() Config {
	return Config{
		Mode:               ModeTiny,
		StackLimit:         TinyStackWords,
		MemoryLimit:        TinyMemoryBytes,
		CodeSizeLimit:      TinyCodeLimit,
		StorageKeyBits:     8,
		StorageSlotLimit:   TinyStorageSlots,
		StepLimit:          TinyStepLimit,
		CallDepthLimit:     TinyCallDepth,
		EnableSensorOpcode: true,
	}
}

// FullConfig returns the on-chain EVM configuration.
func FullConfig() Config {
	return Config{
		Mode:           ModeFull,
		StackLimit:     FullStackWords,
		CodeSizeLimit:  FullCodeLimit,
		CallDepthLimit: FullCallDepth,
	}
}

// BlockContext supplies the blockchain opcodes in ModeFull. In ModeTiny
// these opcodes are removed and the context is never consulted.
type BlockContext struct {
	// Coinbase is the block's beneficiary address.
	Coinbase types.Address
	// Number is the block height.
	Number uint64
	// Timestamp is the block's Unix time in seconds.
	Timestamp uint64
	// Difficulty is the block difficulty.
	Difficulty uint64
	// GasLimit is the block gas limit.
	GasLimit uint64
	// BlockHash returns the hash of a recent block by number (nil =>
	// zero hashes).
	BlockHash func(number uint64) types.Hash
}

// TxContext supplies per-transaction information.
type TxContext struct {
	// Origin is the externally-owned account that started the
	// transaction (ORIGIN).
	Origin types.Address
	// GasPrice is the price per gas unit (GASPRICE, ModeFull only).
	GasPrice uint64
}

// SensorBus is the device interface behind the IoT opcode 0x0C. The
// opcode's first operand selects the sensor or actuator, the second is an
// argument (e.g. an actuation set-point); the returned value is pushed
// onto the stack.
type SensorBus interface {
	// Sense reads sensor id with the given parameter, or actuates and
	// returns an acknowledgement value.
	Sense(id uint64, param uint64) (uint64, error)
}

// Tracer observes execution; the device model implements it to charge
// MCU cycles and energy per instruction. The stack is the live operand
// stack before the instruction executes: tracers may Peek size operands
// (e.g. the length of a CODECOPY) but must not mutate it, and must not
// retain it past the callback — stacks are pooled and recycled when the
// frame retires.
type Tracer interface {
	// CaptureOp is called before each instruction executes.
	CaptureOp(pc uint64, op Opcode, stack *Stack, memBytes uint64)
}

// ExecStats aggregates per-execution counters used by the evaluation
// harness (Table II, Figure 3).
type ExecStats struct {
	// Steps is the number of instructions executed.
	Steps uint64
	// MaxStackDepth is the stack pointer high-water mark.
	MaxStackDepth int
	// PeakMemory is the RAM high-water mark in bytes.
	PeakMemory uint64
	// StorageWrites counts SSTORE operations.
	StorageWrites uint64
	// Keccaks counts KECCAK256 operations (the paper's software-hashed
	// hot spot).
	Keccaks uint64
	// SensorOps counts IoT opcode executions.
	SensorOps uint64
	// GasUsed is the consumed gas in ModeFull (0 in ModeTiny).
	GasUsed uint64
}

// merge folds the stats of a child frame into the parent's aggregate.
func (s *ExecStats) merge(child ExecStats) {
	s.Steps += child.Steps
	if child.MaxStackDepth > s.MaxStackDepth {
		s.MaxStackDepth = child.MaxStackDepth
	}
	if child.PeakMemory > s.PeakMemory {
		s.PeakMemory = child.PeakMemory
	}
	s.StorageWrites += child.StorageWrites
	s.Keccaks += child.Keccaks
	s.SensorOps += child.SensorOps
	s.GasUsed += child.GasUsed
}

// truncateStorageKey narrows key to the configured key width. With 8-bit
// keys, slot 0x1c0 aliases slot 0xc0 — contracts written for full EVM
// keep working as long as they use few distinct low slots, which the
// paper's corpus evaluation shows is the common case.
func (c *Config) truncateStorageKey(key *uint256.Int) uint256.Int {
	if c.StorageKeyBits == 0 || c.StorageKeyBits >= 256 {
		return *key
	}
	var mask uint256.Int
	mask.SetOne()
	mask.Lsh(&mask, uint(c.StorageKeyBits))
	mask.Sub(&mask, uint256.NewInt(1))
	var out uint256.Int
	out.And(key, &mask)
	return out
}
