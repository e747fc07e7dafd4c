package eval

// The contract workload suite's contracts: small real contracts — an
// ERC-20-style token, an incrementing counter and a donate-with-feedback
// ledger — assembled from EVM mnemonics via internal/asm, ported from
// the wasp contract scenarios (erc20 / inccounter / donatewithfeedback);
// docs/SCENARIOS.md describes each one. The scenarios that drive them
// as signed transaction batches through the chain and the parallel
// engine, and check their invariants, are test code (scenarios_test.go):
// a correctness suite, not a benchmark.

import (
	"fmt"

	"tinyevm/internal/asm"
	"tinyevm/internal/keccak"
)

// Selector returns the 4-byte ABI function selector of a signature
// ("transfer(address,uint256)" -> 0xa9059cbb).
func Selector(sig string) [4]byte {
	h := keccak.Sum256([]byte(sig))
	return [4]byte{h[0], h[1], h[2], h[3]}
}

// CallData encodes a selector plus ABI words.
func CallData(sel [4]byte, words ...[32]byte) []byte {
	out := make([]byte, 0, 4+32*len(words))
	out = append(out, sel[:]...)
	for _, w := range words {
		out = append(out, w[:]...)
	}
	return out
}

// erc20Runtime is an ERC-20-style token: transfer(address,uint256) and
// balanceOf(address), with balances keyed by holder address in storage
// and the standard Ethereum selectors. Transfers exceeding the sender
// balance revert.
func erc20Runtime() []byte {
	return asm.MustAssemble(`
		; dispatch on the 4-byte selector
		PUSH 0
		CALLDATALOAD
		PUSH 224
		SHR
		DUP1
		PUSH4 0xa9059cbb      ; transfer(address,uint256)
		EQ
		PUSH :transfer
		JUMPI
		DUP1
		PUSH4 0x70a08231      ; balanceOf(address)
		EQ
		PUSH :balanceOf
		JUMPI
		PUSH 0
		PUSH 0
		REVERT

		:transfer JUMPDEST    ; [sel]
		POP
		PUSH 36
		CALLDATALOAD          ; [amt]
		CALLER
		SLOAD                 ; [amt bal]
		DUP1
		DUP3
		GT                    ; [amt bal amt>bal]
		PUSH :insufficient
		JUMPI                 ; [amt bal]
		DUP2
		SWAP1
		SUB                   ; [amt bal-amt]
		CALLER
		SSTORE                ; [amt]       balances[caller] -= amt
		PUSH 4
		CALLDATALOAD          ; [amt to]
		DUP1
		SLOAD                 ; [amt to balTo]
		DUP3
		ADD                   ; [amt to balTo+amt]
		SWAP1
		SSTORE                ; [amt]       balances[to] += amt
		POP
		PUSH 1
		PUSH 0
		MSTORE
		PUSH 32
		PUSH 0
		RETURN                ; return true

		:insufficient JUMPDEST
		PUSH 0
		PUSH 0
		REVERT

		:balanceOf JUMPDEST   ; [sel]
		POP
		PUSH 4
		CALLDATALOAD
		SLOAD
		PUSH 0
		MSTORE
		PUSH 32
		PUSH 0
		RETURN
	`)
}

// counterRuntime increments storage slot 0 on any call and returns the
// new count — the inccounter scenario's maximally contended single
// slot.
func counterRuntime() []byte {
	return asm.MustAssemble(`
		PUSH 0
		SLOAD
		PUSH 1
		ADD
		DUP1
		PUSH 0
		SSTORE
		PUSH 0
		MSTORE
		PUSH 32
		PUSH 0
		RETURN
	`)
}

// donateRuntime is the donate-with-feedback ledger: donate(bytes32)
// accumulates msg.value into slot 0, bumps the donation count in slot
// 1, records the donor's latest feedback word under their address and
// emits a LOG1; stats() returns (total, count).
func donateRuntime() []byte {
	donate := Selector("donate(bytes32)")
	statsSel := Selector("stats()")
	return asm.MustAssemble(fmt.Sprintf(`
		PUSH 0
		CALLDATALOAD
		PUSH 224
		SHR
		DUP1
		PUSH4 0x%x
		EQ
		PUSH :donate
		JUMPI
		DUP1
		PUSH4 0x%x
		EQ
		PUSH :stats
		JUMPI
		PUSH 0
		PUSH 0
		REVERT

		:donate JUMPDEST      ; [sel]
		POP
		PUSH 0
		SLOAD
		CALLVALUE
		ADD
		PUSH 0
		SSTORE                ; total += msg.value
		PUSH 1
		SLOAD
		PUSH 1
		ADD
		PUSH 1
		SSTORE                ; count += 1
		PUSH 4
		CALLDATALOAD
		CALLER
		SSTORE                ; feedback[caller] = arg
		PUSH 4
		CALLDATALOAD
		PUSH 0
		MSTORE
		CALLER
		PUSH 32
		PUSH 0
		LOG1                  ; log(feedback, topic=caller)
		STOP

		:stats JUMPDEST       ; [sel]
		POP
		PUSH 0
		SLOAD
		PUSH 0
		MSTORE
		PUSH 1
		SLOAD
		PUSH 32
		MSTORE
		PUSH 64
		PUSH 0
		RETURN
	`, donate, statsSel))
}

// WorkloadRuntimes returns the assembled runtime bytecode of each
// contract workload, keyed by workload name. Differential harnesses
// (the fused-vs-unfused fuzzer, interpreter benchmarks) use these as
// realistic code corpora without going through chain deployment.
func WorkloadRuntimes() map[string][]byte {
	return map[string][]byte{
		"erc20":      erc20Runtime(),
		"inccounter": counterRuntime(),
		"donate":     donateRuntime(),
	}
}
