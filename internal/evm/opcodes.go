// Package evm implements the Ethereum Virtual Machine at the core of
// TinyEVM: a 256-bit stack machine executing standard EVM bytecode.
//
// The interpreter runs in one of two modes (paper Table I):
//
//   - ModeFull: the on-chain EVM. Gas is metered, blockchain opcodes
//     (BLOCKHASH..GASLIMIT) consult the block context, storage uses full
//     256-bit keys.
//   - ModeTiny: the customized off-chain TinyEVM. No gas accounting
//     ("there is no charging for the off-chain computations"), blockchain
//     opcodes are removed, storage is 8-bit keyed and 1 KB bounded (the
//     side-chain log), memory and stack are capped to the device budget,
//     and the IoT opcode 0x0C is enabled for sensor/actuator access.
package evm

// Opcode is a single EVM instruction byte.
type Opcode byte

// Opcode values. The numbering follows the Ethereum yellow paper;
// OpSensor occupies the undefined slot 0x0C as described in §IV-B of the
// paper ("we use the 0x0c undefined opcode to represent the action of
// sensing or actuating on the device").
const (
	// 0x00 range - arithmetic and control.
	OpStop       Opcode = 0x00
	OpAdd        Opcode = 0x01
	OpMul        Opcode = 0x02
	OpSub        Opcode = 0x03
	OpDiv        Opcode = 0x04
	OpSDiv       Opcode = 0x05
	OpMod        Opcode = 0x06
	OpSMod       Opcode = 0x07
	OpAddMod     Opcode = 0x08
	OpMulMod     Opcode = 0x09
	OpExp        Opcode = 0x0A
	OpSignExtend Opcode = 0x0B
	// OpSensor is TinyEVM's IoT opcode in the otherwise-undefined 0x0C
	// slot. It pops (sensorID, param) and pushes the sensor reading, or
	// performs an actuation and pushes the acknowledgement.
	OpSensor Opcode = 0x0C

	// 0x10 range - comparison and bitwise logic.
	OpLt     Opcode = 0x10
	OpGt     Opcode = 0x11
	OpSlt    Opcode = 0x12
	OpSgt    Opcode = 0x13
	OpEq     Opcode = 0x14
	OpIsZero Opcode = 0x15
	OpAnd    Opcode = 0x16
	OpOr     Opcode = 0x17
	OpXor    Opcode = 0x18
	OpNot    Opcode = 0x19
	OpByte   Opcode = 0x1A
	OpShl    Opcode = 0x1B
	OpShr    Opcode = 0x1C
	OpSar    Opcode = 0x1D

	// 0x20 range - cryptographic.
	OpKeccak256 Opcode = 0x20

	// 0x30 range - environment / smart-contract information.
	OpAddress        Opcode = 0x30
	OpBalance        Opcode = 0x31
	OpOrigin         Opcode = 0x32
	OpCaller         Opcode = 0x33
	OpCallValue      Opcode = 0x34
	OpCallDataLoad   Opcode = 0x35
	OpCallDataSize   Opcode = 0x36
	OpCallDataCopy   Opcode = 0x37
	OpCodeSize       Opcode = 0x38
	OpCodeCopy       Opcode = 0x39
	OpGasPrice       Opcode = 0x3A
	OpExtCodeSize    Opcode = 0x3B
	OpExtCodeCopy    Opcode = 0x3C
	OpReturnDataSize Opcode = 0x3D
	OpReturnDataCopy Opcode = 0x3E
	OpExtCodeHash    Opcode = 0x3F

	// 0x40 range - blockchain information.
	OpBlockHash  Opcode = 0x40
	OpCoinbase   Opcode = 0x41
	OpTimestamp  Opcode = 0x42
	OpNumber     Opcode = 0x43
	OpDifficulty Opcode = 0x44
	OpGasLimit   Opcode = 0x45

	// 0x50 range - stack, memory, storage and flow.
	OpPop      Opcode = 0x50
	OpMLoad    Opcode = 0x51
	OpMStore   Opcode = 0x52
	OpMStore8  Opcode = 0x53
	OpSLoad    Opcode = 0x54
	OpSStore   Opcode = 0x55
	OpJump     Opcode = 0x56
	OpJumpI    Opcode = 0x57
	OpPC       Opcode = 0x58
	OpMSize    Opcode = 0x59
	OpGas      Opcode = 0x5A
	OpJumpDest Opcode = 0x5B

	// 0x60-0x7F - PUSH1..PUSH32.
	OpPush1  Opcode = 0x60
	OpPush32 Opcode = 0x7F

	// 0x80-0x8F - DUP1..DUP16.
	OpDup1  Opcode = 0x80
	OpDup16 Opcode = 0x8F

	// 0x90-0x9F - SWAP1..SWAP16.
	OpSwap1  Opcode = 0x90
	OpSwap16 Opcode = 0x9F

	// 0xA0 range - logging.
	OpLog0 Opcode = 0xA0
	OpLog1 Opcode = 0xA1
	OpLog2 Opcode = 0xA2
	OpLog3 Opcode = 0xA3
	OpLog4 Opcode = 0xA4

	// 0xF0 range - system operations.
	OpCreate       Opcode = 0xF0
	OpCall         Opcode = 0xF1
	OpCallCode     Opcode = 0xF2
	OpReturn       Opcode = 0xF3
	OpDelegateCall Opcode = 0xF4
	OpCreate2      Opcode = 0xF5
	OpStaticCall   Opcode = 0xFA
	OpRevert       Opcode = 0xFD
	OpInvalid      Opcode = 0xFE
	OpSelfDestruct Opcode = 0xFF
)

// Category is the Table I taxonomy of the paper. Opcode families
// (PUSH/DUP/SWAP/LOG) count as one discrete opcode each, which reproduces
// the paper's category sizes: 27 operation, 25 smart-contract, 13 memory,
// 6 blockchain, 1 IoT.
type Category uint8

// Categories per Table I of the paper. CategoryExtension marks opcodes
// added to Ethereum after the paper's taxonomy was fixed (EXTCODEHASH,
// CREATE2); they are implemented in ModeFull but not counted in Table I.
const (
	CategoryInvalid Category = iota
	// CategoryOperation covers arithmetic, comparison, bitwise and
	// Keccak-256 opcodes; "the operation opcodes define the necessary
	// computations".
	CategoryOperation
	// CategorySmartContract covers call/environment opcodes; "related to
	// smart contract execution like method calls, and returns".
	CategorySmartContract
	// CategoryMemory covers stack, memory, storage and jump opcodes.
	CategoryMemory
	// CategoryBlockchain covers block-information opcodes, removed in
	// TinyEVM ("there is no access to the blockchain during local
	// execution").
	CategoryBlockchain
	// CategoryIoT is the TinyEVM sensor/actuator opcode.
	CategoryIoT
	// CategoryExtension marks post-taxonomy additions (not in Table I).
	CategoryExtension
)

// String returns the human-readable category name.
func (c Category) String() string {
	switch c {
	case CategoryOperation:
		return "operation"
	case CategorySmartContract:
		return "smart contract"
	case CategoryMemory:
		return "memory"
	case CategoryBlockchain:
		return "blockchain"
	case CategoryIoT:
		return "IoT"
	case CategoryExtension:
		return "extension"
	default:
		return "invalid"
	}
}

// opInfo is the static metadata of one opcode.
type opInfo struct {
	name string
	// pops and pushes are the stack items consumed and produced.
	pops, pushes int
	// immediate is the number of in-line code bytes following the opcode
	// (only non-zero for the PUSH family).
	immediate int
	category  Category
	// tinyRemoved marks opcodes that TinyEVM removes: the 6 blockchain
	// opcodes plus the 4 gas/main-chain-state opcodes (GAS, GASPRICE,
	// EXTCODESIZE, EXTCODECOPY), taking the smart-contract category from
	// 25 to 21 as in Table I.
	tinyRemoved bool
	// terminal marks opcodes that end the current frame.
	terminal bool
}

// opInfoTable returns the static metadata of every defined opcode. The
// jump table (jumptable.go) folds it together with the gas schedule and
// the handlers into the [256]operation dispatch array.
func opInfoTable() map[Opcode]opInfo {
	t := map[Opcode]opInfo{
		OpStop:       {name: "STOP", category: CategoryOperation, terminal: true},
		OpAdd:        {name: "ADD", pops: 2, pushes: 1, category: CategoryOperation},
		OpMul:        {name: "MUL", pops: 2, pushes: 1, category: CategoryOperation},
		OpSub:        {name: "SUB", pops: 2, pushes: 1, category: CategoryOperation},
		OpDiv:        {name: "DIV", pops: 2, pushes: 1, category: CategoryOperation},
		OpSDiv:       {name: "SDIV", pops: 2, pushes: 1, category: CategoryOperation},
		OpMod:        {name: "MOD", pops: 2, pushes: 1, category: CategoryOperation},
		OpSMod:       {name: "SMOD", pops: 2, pushes: 1, category: CategoryOperation},
		OpAddMod:     {name: "ADDMOD", pops: 3, pushes: 1, category: CategoryOperation},
		OpMulMod:     {name: "MULMOD", pops: 3, pushes: 1, category: CategoryOperation},
		OpExp:        {name: "EXP", pops: 2, pushes: 1, category: CategoryOperation},
		OpSignExtend: {name: "SIGNEXTEND", pops: 2, pushes: 1, category: CategoryOperation},
		OpSensor:     {name: "SENSOR", pops: 2, pushes: 1, category: CategoryIoT},

		OpLt:     {name: "LT", pops: 2, pushes: 1, category: CategoryOperation},
		OpGt:     {name: "GT", pops: 2, pushes: 1, category: CategoryOperation},
		OpSlt:    {name: "SLT", pops: 2, pushes: 1, category: CategoryOperation},
		OpSgt:    {name: "SGT", pops: 2, pushes: 1, category: CategoryOperation},
		OpEq:     {name: "EQ", pops: 2, pushes: 1, category: CategoryOperation},
		OpIsZero: {name: "ISZERO", pops: 1, pushes: 1, category: CategoryOperation},
		OpAnd:    {name: "AND", pops: 2, pushes: 1, category: CategoryOperation},
		OpOr:     {name: "OR", pops: 2, pushes: 1, category: CategoryOperation},
		OpXor:    {name: "XOR", pops: 2, pushes: 1, category: CategoryOperation},
		OpNot:    {name: "NOT", pops: 1, pushes: 1, category: CategoryOperation},
		OpByte:   {name: "BYTE", pops: 2, pushes: 1, category: CategoryOperation},
		OpShl:    {name: "SHL", pops: 2, pushes: 1, category: CategoryOperation},
		OpShr:    {name: "SHR", pops: 2, pushes: 1, category: CategoryOperation},
		OpSar:    {name: "SAR", pops: 2, pushes: 1, category: CategoryOperation},

		OpKeccak256: {name: "KECCAK256", pops: 2, pushes: 1, category: CategoryOperation},

		OpAddress:        {name: "ADDRESS", pushes: 1, category: CategorySmartContract},
		OpBalance:        {name: "BALANCE", pops: 1, pushes: 1, category: CategorySmartContract},
		OpOrigin:         {name: "ORIGIN", pushes: 1, category: CategorySmartContract},
		OpCaller:         {name: "CALLER", pushes: 1, category: CategorySmartContract},
		OpCallValue:      {name: "CALLVALUE", pushes: 1, category: CategorySmartContract},
		OpCallDataLoad:   {name: "CALLDATALOAD", pops: 1, pushes: 1, category: CategorySmartContract},
		OpCallDataSize:   {name: "CALLDATASIZE", pushes: 1, category: CategorySmartContract},
		OpCallDataCopy:   {name: "CALLDATACOPY", pops: 3, category: CategorySmartContract},
		OpCodeSize:       {name: "CODESIZE", pushes: 1, category: CategorySmartContract},
		OpCodeCopy:       {name: "CODECOPY", pops: 3, category: CategorySmartContract},
		OpGasPrice:       {name: "GASPRICE", pushes: 1, category: CategorySmartContract, tinyRemoved: true},
		OpExtCodeSize:    {name: "EXTCODESIZE", pops: 1, pushes: 1, category: CategorySmartContract, tinyRemoved: true},
		OpExtCodeCopy:    {name: "EXTCODECOPY", pops: 4, category: CategorySmartContract, tinyRemoved: true},
		OpReturnDataSize: {name: "RETURNDATASIZE", pushes: 1, category: CategorySmartContract},
		OpReturnDataCopy: {name: "RETURNDATACOPY", pops: 3, category: CategorySmartContract},
		OpExtCodeHash:    {name: "EXTCODEHASH", pops: 1, pushes: 1, category: CategoryExtension, tinyRemoved: true},

		OpBlockHash:  {name: "BLOCKHASH", pops: 1, pushes: 1, category: CategoryBlockchain, tinyRemoved: true},
		OpCoinbase:   {name: "COINBASE", pushes: 1, category: CategoryBlockchain, tinyRemoved: true},
		OpTimestamp:  {name: "TIMESTAMP", pushes: 1, category: CategoryBlockchain, tinyRemoved: true},
		OpNumber:     {name: "NUMBER", pushes: 1, category: CategoryBlockchain, tinyRemoved: true},
		OpDifficulty: {name: "DIFFICULTY", pushes: 1, category: CategoryBlockchain, tinyRemoved: true},
		OpGasLimit:   {name: "GASLIMIT", pushes: 1, category: CategoryBlockchain, tinyRemoved: true},

		OpPop:      {name: "POP", pops: 1, category: CategoryMemory},
		OpMLoad:    {name: "MLOAD", pops: 1, pushes: 1, category: CategoryMemory},
		OpMStore:   {name: "MSTORE", pops: 2, category: CategoryMemory},
		OpMStore8:  {name: "MSTORE8", pops: 2, category: CategoryMemory},
		OpSLoad:    {name: "SLOAD", pops: 1, pushes: 1, category: CategoryMemory},
		OpSStore:   {name: "SSTORE", pops: 2, category: CategoryMemory},
		OpJump:     {name: "JUMP", pops: 1, category: CategoryMemory},
		OpJumpI:    {name: "JUMPI", pops: 2, category: CategoryMemory},
		OpPC:       {name: "PC", pushes: 1, category: CategoryMemory},
		OpMSize:    {name: "MSIZE", pushes: 1, category: CategoryMemory},
		OpGas:      {name: "GAS", pushes: 1, category: CategorySmartContract, tinyRemoved: true},
		OpJumpDest: {name: "JUMPDEST", category: CategoryMemory},

		OpLog0: {name: "LOG0", pops: 2, category: CategorySmartContract},
		OpLog1: {name: "LOG1", pops: 3, category: CategorySmartContract},
		OpLog2: {name: "LOG2", pops: 4, category: CategorySmartContract},
		OpLog3: {name: "LOG3", pops: 5, category: CategorySmartContract},
		OpLog4: {name: "LOG4", pops: 6, category: CategorySmartContract},

		OpCreate:       {name: "CREATE", pops: 3, pushes: 1, category: CategorySmartContract},
		OpCall:         {name: "CALL", pops: 7, pushes: 1, category: CategorySmartContract},
		OpCallCode:     {name: "CALLCODE", pops: 7, pushes: 1, category: CategorySmartContract},
		OpReturn:       {name: "RETURN", pops: 2, category: CategorySmartContract, terminal: true},
		OpDelegateCall: {name: "DELEGATECALL", pops: 6, pushes: 1, category: CategorySmartContract},
		OpCreate2:      {name: "CREATE2", pops: 4, pushes: 1, category: CategoryExtension},
		OpStaticCall:   {name: "STATICCALL", pops: 6, pushes: 1, category: CategorySmartContract},
		OpRevert:       {name: "REVERT", pops: 2, category: CategorySmartContract, terminal: true},
		OpInvalid:      {name: "INVALID", category: CategoryInvalid, terminal: true},
		OpSelfDestruct: {name: "SELFDESTRUCT", pops: 1, category: CategorySmartContract, terminal: true},
	}
	for i := 0; i < 32; i++ {
		op := Opcode(int(OpPush1) + i)
		t[op] = opInfo{
			name:      "PUSH" + itoa(i+1),
			pushes:    1,
			immediate: i + 1,
			category:  CategoryMemory,
		}
	}
	for i := 0; i < 16; i++ {
		op := Opcode(int(OpDup1) + i)
		t[op] = opInfo{
			name:     "DUP" + itoa(i+1),
			pops:     i + 1,
			pushes:   i + 2,
			category: CategoryMemory,
		}
	}
	for i := 0; i < 16; i++ {
		op := Opcode(int(OpSwap1) + i)
		t[op] = opInfo{
			name:     "SWAP" + itoa(i+1),
			pops:     i + 2,
			pushes:   i + 2,
			category: CategoryMemory,
		}
	}
	return t
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [3]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// IsPush reports whether op is in the PUSH1..PUSH32 family.
func (op Opcode) IsPush() bool { return op >= OpPush1 && op <= OpPush32 }

// PushBytes returns the number of immediate bytes for a PUSH opcode, or 0.
func (op Opcode) PushBytes() int {
	if !op.IsPush() {
		return 0
	}
	return int(op-OpPush1) + 1
}

// Defined reports whether op is a defined EVM (or TinyEVM) opcode.
func (op Opcode) Defined() bool {
	return opTable[op].defined
}

// String returns the mnemonic of op, or a hex form for undefined bytes.
func (op Opcode) String() string {
	if e := opTable[op]; e.defined {
		return e.name
	}
	const hexDigits = "0123456789abcdef"
	return "UNDEFINED(0x" + string([]byte{hexDigits[op>>4], hexDigits[op&0xf]}) + ")"
}

// familyRepresentatives maps each opcode-family member to its canonical
// representative so category counting treats PUSH/DUP/SWAP/LOG as single
// discrete opcodes, matching the paper's counting.
func familyRepresentative(op Opcode) Opcode {
	switch {
	case op.IsPush():
		return OpPush1
	case op >= OpDup1 && op <= OpDup16:
		return OpDup1
	case op >= OpSwap1 && op <= OpSwap16:
		return OpSwap1
	case op >= OpLog0 && op <= OpLog4:
		return OpLog0
	default:
		return op
	}
}

// CategoryCount holds the per-category discrete opcode counts for one
// machine specification, as displayed in Table I.
type CategoryCount struct {
	Operation     int
	SmartContract int
	Memory        int
	Blockchain    int
	IoT           int
}

// CountCategories computes the Table I row for the given mode by
// introspecting the live opcode table. Families count once; extension
// opcodes (post-paper additions) are excluded to match the published
// taxonomy.
func CountCategories(mode Mode) CategoryCount {
	seen := make(map[Opcode]bool, 256)
	var c CategoryCount
	for b := 0; b < 256; b++ {
		op := Opcode(b)
		info := opTable[b]
		if !info.defined {
			continue
		}
		rep := familyRepresentative(op)
		if seen[rep] {
			continue
		}
		seen[rep] = true
		if op == OpJumpDest {
			// JUMPDEST is a position marker rather than a discrete
			// operation; the paper's taxonomy does not count it.
			continue
		}
		if mode == ModeTiny && info.tinyRemoved {
			continue
		}
		if mode == ModeFull && info.category == CategoryIoT {
			continue
		}
		switch info.category {
		case CategoryOperation:
			c.Operation++
		case CategorySmartContract:
			c.SmartContract++
		case CategoryMemory:
			c.Memory++
		case CategoryBlockchain:
			c.Blockchain++
		case CategoryIoT:
			c.IoT++
		}
	}
	return c
}
