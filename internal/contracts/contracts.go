// Package contracts provides the smart contracts of the TinyEVM system
// as real EVM bytecode, assembled from scratch with internal/asm. They
// implement the behaviour of the paper's Listing 1 (the factory
// Template) and Listing 2 (the PaymentChannel whose constructor reads a
// sensor through the IoT opcode 0x0C and whose close() verifies an
// off-chain payment signature via ECRECOVER).
//
// ABI convention: Solidity-compatible 4-byte selectors
// (keccak256(signature)[:4]) followed by 32-byte word arguments.
// Constructor arguments are appended to the init code and read back with
// CODESIZE/CODECOPY, exactly as Solidity emits them.
package contracts

import (
	"encoding/binary"
	"fmt"

	"tinyevm/internal/asm"
	"tinyevm/internal/keccak"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// Selector returns the 4-byte function selector of a signature like
// "close(uint256,bytes32,bytes32,uint8)".
func Selector(sig string) [4]byte {
	h := keccak.Sum256([]byte(sig))
	var out [4]byte
	copy(out[:], h[:4])
	return out
}

// Function signatures of the PaymentChannel runtime.
const (
	SigSender     = "sender()"
	SigReceiver   = "receiver()"
	SigSensorData = "sensorData()"
	// SigRegister records a payment state (seq, cumulative) on the
	// channel's side-chain storage — the Figure 5 "register the payment
	// on the side-chain" step.
	SigRegister = "register(uint256,uint256)"
	SigSeq      = "seq()"
	SigTotal    = "total()"
	SigClose    = "close(uint256,bytes32,bytes32,uint8)"
)

// Function signatures of the Template runtime.
const (
	SigTemplateReceiver = "receiver()"
	SigLogicalClock     = "logicalClock()"
	SigCreateChannel    = "createPaymentChannel(uint256)"
	SigChannelAt        = "channelAt(uint256)"
)

// Storage layout shared by contract code and the Go helpers that inspect
// it.
const (
	// ChannelSlotSender holds the paying party.
	ChannelSlotSender = 0x00
	// ChannelSlotReceiver holds the paid party.
	ChannelSlotReceiver = 0x01
	// ChannelSlotSensor holds the constructor's sensor reading; the slot
	// number 0x0c mirrors the paper's Listing 2 ("sstore(0x0c)").
	ChannelSlotSensor = 0x0c
	// ChannelSlotSeq and ChannelSlotTotal hold the registered
	// side-chain state (sequence number and cumulative amount).
	ChannelSlotSeq   = 0x04
	ChannelSlotTotal = 0x05

	// TemplateSlotReceiver holds the service provider address.
	TemplateSlotReceiver = 0x00
	// TemplateSlotClock holds the logical clock (channel counter).
	TemplateSlotClock = 0x01
	// TemplateSlotChannelBase is the base of the 16-entry channel ring.
	TemplateSlotChannelBase = 0x10
	// TemplateChannelRing is the number of channel address slots.
	TemplateChannelRing = 16
)

func selHex(sig string) string {
	s := Selector(sig)
	return fmt.Sprintf("0x%02x%02x%02x%02x", s[0], s[1], s[2], s[3])
}

// returnWord is the assembly tail that returns the stack top as one word.
const returnWord = `
	PUSH1 0x00
	MSTORE
	PUSH1 0x20
	PUSH1 0x00
	RETURN
`

// revertTail reverts with no data.
const revertTail = `
	PUSH1 0x00
	PUSH1 0x00
	REVERT
`

// PaymentChannelRuntime assembles the channel's runtime bytecode.
func PaymentChannelRuntime() []byte {
	src := `
		; --- dispatch -------------------------------------------------
		CALLDATASIZE
		ISZERO
		PUSH :receive
		JUMPI
		PUSH1 0x00
		CALLDATALOAD
		PUSH1 0xe0
		SHR
		DUP1
		PUSH4 ` + selHex(SigSender) + `
		EQ
		PUSH :sender
		JUMPI
		DUP1
		PUSH4 ` + selHex(SigReceiver) + `
		EQ
		PUSH :receiver
		JUMPI
		DUP1
		PUSH4 ` + selHex(SigSensorData) + `
		EQ
		PUSH :sensor
		JUMPI
		DUP1
		PUSH4 ` + selHex(SigRegister) + `
		EQ
		PUSH :register
		JUMPI
		DUP1
		PUSH4 ` + selHex(SigSeq) + `
		EQ
		PUSH :seq
		JUMPI
		DUP1
		PUSH4 ` + selHex(SigTotal) + `
		EQ
		PUSH :total
		JUMPI
		DUP1
		PUSH4 ` + selHex(SigClose) + `
		EQ
		PUSH :close
		JUMPI
	` + revertTail + `

		:receive JUMPDEST    ; plain value transfers top up the channel
		STOP

		; --- register(seq, cumulative): extend the side-chain state ----
		; Only the channel parties may register; the sequence number must
		; strictly increase (the logical clock).
		:register JUMPDEST
		CALLER
		PUSH1 0x00
		SLOAD
		EQ
		CALLER
		PUSH1 0x01
		SLOAD
		EQ
		OR
		PUSH :regauth
		JUMPI
	` + revertTail + `
		:regauth JUMPDEST
		; require newSeq > storedSeq: GT pops the top as its left
		; operand, so push stored first and the new value last.
		PUSH1 0x04
		SLOAD          ; stored
		PUSH1 0x04
		CALLDATALOAD   ; new (top)
		GT             ; new > stored
		PUSH :regok
		JUMPI
	` + revertTail + `
		:regok JUMPDEST
		PUSH1 0x04
		CALLDATALOAD
		PUSH1 0x04
		SSTORE         ; seq
		PUSH1 0x24
		CALLDATALOAD
		PUSH1 0x05
		SSTORE         ; cumulative
		STOP

		:seq JUMPDEST
		PUSH1 0x04
		SLOAD
	` + returnWord + `

		:total JUMPDEST
		PUSH1 0x05
		SLOAD
	` + returnWord + `

		:sender JUMPDEST
		PUSH1 0x00
		SLOAD
	` + returnWord + `

		:receiver JUMPDEST
		PUSH1 0x01
		SLOAD
	` + returnWord + `

		:sensor JUMPDEST
		PUSH1 0x0c
		SLOAD
	` + returnWord + `

		; --- close(amount, r, s, v) ------------------------------------
		; "function close(uint amount, bytes memory signature) public
		;  payable { require(msg.sender == recipient); require(
		;  isValidSignature(amount, signature)); recipient.transfer(
		;  amount); selfdestruct(sender); }"            (Listing 2)
		:close JUMPDEST
		CALLER
		PUSH1 0x01
		SLOAD
		EQ
		PUSH :auth
		JUMPI
	` + revertTail + `
		:auth JUMPDEST
		; digest = keccak256(address(this) . amount)
		ADDRESS
		PUSH1 0x00
		MSTORE
		PUSH1 0x04
		CALLDATALOAD
		PUSH1 0x20
		MSTORE
		PUSH1 0x40
		PUSH1 0x00
		KECCAK256
		; ECRECOVER input: digest . v . r . s at mem[0..128)
		PUSH1 0x00
		MSTORE
		PUSH1 0x64
		CALLDATALOAD   ; v
		PUSH1 0x20
		MSTORE
		PUSH1 0x24
		CALLDATALOAD   ; r
		PUSH1 0x40
		MSTORE
		PUSH1 0x44
		CALLDATALOAD   ; s
		PUSH1 0x60
		MSTORE
		PUSH1 0x20     ; out size
		PUSH1 0x80     ; out offset
		PUSH1 0x80     ; in size
		PUSH1 0x00     ; in offset
		PUSH1 0x01     ; ECRECOVER precompile
		PUSH2 0xffff   ; gas
		STATICCALL
		POP
		PUSH1 0x80
		MLOAD          ; recovered signer
		PUSH1 0x00
		SLOAD          ; stored sender
		EQ
		PUSH :paysig
		JUMPI
	` + revertTail + `
		:paysig JUMPDEST
		; recipient.transfer(amount)
		PUSH1 0x00     ; out size
		PUSH1 0x00     ; out offset
		PUSH1 0x00     ; in size
		PUSH1 0x00     ; in offset
		PUSH1 0x04
		CALLDATALOAD   ; value = amount
		PUSH1 0x01
		SLOAD          ; to = receiver
		PUSH2 0xffff   ; gas
		CALL
		ISZERO
		PUSH :payfail
		JUMPI
		; selfdestruct(sender): refunds the remaining channel balance
		PUSH1 0x00
		SLOAD
		SELFDESTRUCT
		:payfail JUMPDEST
	` + revertTail
	return asm.MustAssemble(src)
}

// channelConstructorPrologue stores the constructor arguments and the
// sensor reading: "assembly { 0x0c // IoT sensor opcode; sstore(0x0c) }"
// (Listing 2). Args layout appended to init code:
// sender(32) . receiver(32) . sensorID(32) . sensorParam(32).
const channelConstructorPrologue = `
	; copy the 128 argument bytes from the end of the init code
	PUSH1 0x80
	CODESIZE
	PUSH1 0x80
	SWAP1
	SUB
	PUSH1 0x00
	CODECOPY
	; sender -> slot 0
	PUSH1 0x00
	MLOAD
	PUSH1 0x00
	SSTORE
	; receiver -> slot 1
	PUSH1 0x20
	MLOAD
	PUSH1 0x01
	SSTORE
	; SENSOR(id, param) -> slot 0x0c
	PUSH1 0x60
	MLOAD          ; param
	PUSH1 0x40
	MLOAD          ; id (popped first by SENSOR)
	SENSOR
	PUSH1 0x0c
	SSTORE
`

// PaymentChannelInitCode builds deployable init code for a channel with
// the given parties and sensor configuration.
func PaymentChannelInitCode(sender, receiver types.Address, sensorID, sensorParam uint64) []byte {
	args := make([]byte, 0, 128)
	args = append(args, addrWord(sender)...)
	args = append(args, addrWord(receiver)...)
	args = append(args, uintWord(sensorID)...)
	args = append(args, uintWord(sensorParam)...)
	return WrapDeploy(channelConstructorPrologue, PaymentChannelRuntime(), args)
}

// TemplateRuntime assembles the factory's runtime. The child channel
// init code (without its trailing args) is embedded as data; the factory
// appends fresh args on each create.
func TemplateRuntime() []byte {
	// The embedded child init code: channel constructor + channel
	// runtime, with args appended at create time.
	child := WrapDeploy(channelConstructorPrologue, PaymentChannelRuntime(), nil)
	childLen := len(child)

	src := fmt.Sprintf(`
		; --- dispatch -------------------------------------------------
		CALLDATASIZE
		ISZERO
		PUSH :receive
		JUMPI
		PUSH1 0x00
		CALLDATALOAD
		PUSH1 0xe0
		SHR
		DUP1
		PUSH4 %s
		EQ
		PUSH :recv
		JUMPI
		DUP1
		PUSH4 %s
		EQ
		PUSH :clock
		JUMPI
		DUP1
		PUSH4 %s
		EQ
		PUSH :create
		JUMPI
		DUP1
		PUSH4 %s
		EQ
		PUSH :chanat
		JUMPI
	`+revertTail+`

		:receive JUMPDEST   ; deposits lock money in the template
		STOP

		:recv JUMPDEST
		PUSH1 0x00
		SLOAD
	`+returnWord+`

		:clock JUMPDEST
		PUSH1 0x01
		SLOAD
	`+returnWord+`

		:chanat JUMPDEST
		PUSH1 0x04
		CALLDATALOAD
		PUSH1 0x0f
		AND
		PUSH1 0x10
		ADD
		SLOAD
	`+returnWord+`

		; --- createPaymentChannel(sensorParam) --------------------------
		; "newPaymentChannel = new PaymentChannel(receiver, Money);
		;  PaymentChannels.push(newPaymentChannel);
		;  Logical-Clock += 1;"                          (Listing 1)
		:create JUMPDEST
		; copy the embedded child init code to memory 0
		PUSH2 %#04x     ; child length
		PUSH :child
		PUSH1 0x00
		CODECOPY
		; arg 1: sender = the caller opening the channel
		CALLER
		PUSH2 %#04x     ; childLen
		MSTORE
		; arg 2: receiver from template storage
		PUSH1 0x00
		SLOAD
		PUSH2 %#04x     ; childLen + 32
		MSTORE
		; arg 3: sensor id = temperature by default
		PUSH1 0x01
		PUSH2 %#04x     ; childLen + 64
		MSTORE
		; arg 4: sensor param from calldata
		PUSH1 0x04
		CALLDATALOAD
		PUSH2 %#04x     ; childLen + 96
		MSTORE
		; CREATE(value=callvalue, offset=0, size=childLen+128)
		PUSH2 %#04x     ; childLen + 128
		PUSH1 0x00
		CALLVALUE
		CREATE
		DUP1
		ISZERO
		PUSH :createfail
		JUMPI
		; Logical-Clock += 1
		PUSH1 0x01
		SLOAD
		PUSH1 0x01
		ADD
		DUP1
		PUSH1 0x01
		SSTORE
		; channel ring slot = 0x10 + (clock & 0x0f)
		PUSH1 0x0f
		AND
		PUSH1 0x10
		ADD
		DUP2
		SWAP1
		SSTORE
		; return the channel address
	`+returnWord+`
		:createfail JUMPDEST
	`+revertTail+`
		:child JUMPDEST
	`,
		selHex(SigTemplateReceiver), selHex(SigLogicalClock),
		selHex(SigCreateChannel), selHex(SigChannelAt),
		childLen, childLen, childLen+32, childLen+64, childLen+96, childLen+128,
	)
	code := asm.MustAssemble(src)
	// Replace the trailing :child JUMPDEST marker with the child init
	// code itself.
	return append(code[:len(code)-1], child...)
}

// templateConstructorPrologue stores the receiver argument.
const templateConstructorPrologue = `
	PUSH1 0x20
	CODESIZE
	PUSH1 0x20
	SWAP1
	SUB
	PUSH1 0x00
	CODECOPY
	PUSH1 0x00
	MLOAD
	PUSH1 0x00
	SSTORE
`

// TemplateInitCode builds deployable init code for the factory template
// with the given service-provider (receiver) address.
func TemplateInitCode(receiver types.Address) []byte {
	return WrapDeploy(templateConstructorPrologue, TemplateRuntime(), addrWord(receiver))
}

// WrapDeploy builds init code: run prologue, then copy runtime to memory
// and return it, with args appended after the runtime (Solidity
// constructor-argument convention). Two-pass assembly keeps the
// label-free offsets exact: all size/offset literals use fixed-width
// PUSH2.
func WrapDeploy(prologue string, runtime, args []byte) []byte {
	build := func(rtOff int) []byte {
		src := fmt.Sprintf(`
			%s
			PUSH2 %#04x   ; runtime length
			PUSH2 %#04x   ; runtime offset
			PUSH1 0x00
			CODECOPY
			PUSH2 %#04x   ; runtime length
			PUSH1 0x00
			RETURN
		`, prologue, len(runtime), rtOff, len(runtime))
		return asm.MustAssemble(src)
	}
	ctor := build(0)
	ctor = build(len(ctor)) // second pass with the real offset
	out := make([]byte, 0, len(ctor)+len(runtime)+len(args))
	out = append(out, ctor...)
	out = append(out, runtime...)
	out = append(out, args...)
	return out
}

// --- calldata and digest helpers ------------------------------------

func addrWord(a types.Address) []byte {
	w := make([]byte, 32)
	copy(w[12:], a[:])
	return w
}

func uintWord(v uint64) []byte {
	w := make([]byte, 32)
	binary.BigEndian.PutUint64(w[24:], v)
	return w
}

// Calldata builds selector-prefixed calldata from 32-byte word args.
func Calldata(sig string, words ...[]byte) []byte {
	sel := Selector(sig)
	out := make([]byte, 0, 4+32*len(words))
	out = append(out, sel[:]...)
	for _, w := range words {
		if len(w) != 32 {
			padded := make([]byte, 32)
			copy(padded[32-len(w):], w)
			w = padded
		}
		out = append(out, w...)
	}
	return out
}

// CreateChannelCalldata builds calldata for
// createPaymentChannel(sensorParam).
func CreateChannelCalldata(sensorParam uint64) []byte {
	return Calldata(SigCreateChannel, uintWord(sensorParam))
}

// RegisterCalldata builds calldata for register(seq, cumulative).
func RegisterCalldata(seq, cumulative uint64) []byte {
	return Calldata(SigRegister, uintWord(seq), uintWord(cumulative))
}

// WordToAddress extracts an address from a 32-byte return word.
func WordToAddress(word []byte) types.Address {
	var w uint256.Int
	w.SetBytes(word)
	b := w.Bytes32()
	return types.BytesToAddress(b[12:])
}
