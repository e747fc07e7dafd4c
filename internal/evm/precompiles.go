package evm

import (
	"crypto/sha256"

	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// Precompiled contracts at the standard Ethereum addresses. TinyEVM keeps
// them: on the device, ECRECOVER and SHA256 map onto the CC2538 crypto
// engine (the device cycle model charges engine time when it sees calls
// to these addresses), which is how the paper's off-chain contracts can
// verify payment signatures locally.
var (
	// PrecompileECRecover is the signature-recovery contract (0x01).
	PrecompileECRecover = types.BytesToAddress([]byte{0x01})
	// PrecompileSHA256 is the SHA-256 hash contract (0x02).
	PrecompileSHA256 = types.BytesToAddress([]byte{0x02})
	// PrecompileIdentity is the memcpy contract (0x04).
	PrecompileIdentity = types.BytesToAddress([]byte{0x04})
)

// precompileGas returns the ModeFull gas cost of a precompile call.
func precompileGas(addr types.Address, inputLen int) uint64 {
	words := uint64((inputLen + 31) / 32)
	switch addr {
	case PrecompileECRecover:
		return 3000
	case PrecompileSHA256:
		return 60 + 12*words
	case PrecompileIdentity:
		return 15 + 3*words
	default:
		return 0
	}
}

// isPrecompile reports whether addr hosts a precompiled contract.
func isPrecompile(addr types.Address) bool {
	switch addr {
	case PrecompileECRecover, PrecompileSHA256, PrecompileIdentity:
		return true
	default:
		return false
	}
}

// runPrecompile executes the precompile at addr. Failures follow
// Ethereum semantics: ECRECOVER returns empty output on any invalid
// input rather than erroring.
func runPrecompile(addr types.Address, input []byte) []byte {
	switch addr {
	case PrecompileECRecover:
		return ecrecover(input)
	case PrecompileSHA256:
		h := sha256.Sum256(input)
		return h[:]
	case PrecompileIdentity:
		out := make([]byte, len(input))
		copy(out, input)
		return out
	default:
		return nil
	}
}

// ecrecover implements the 0x01 precompile: input is
// hash(32) || v(32) || r(32) || s(32), output the recovered address
// left-padded to 32 bytes, or empty on failure. v is accepted as
// 0/1 or 27/28.
func ecrecover(input []byte) []byte {
	padded := make([]byte, 128)
	copy(padded, input)

	var hash types.Hash
	copy(hash[:], padded[0:32])

	var vWord uint256.Int
	vWord.SetBytes(padded[32:64])
	if !vWord.IsUint64() {
		return nil
	}
	v := vWord.Uint64()
	if v >= 27 {
		v -= 27
	}
	if v > 1 {
		return nil
	}
	// r and s go to the curve as the calldata words they are: it
	// range-checks them and, like Ethereum's precompile, accepts high-s.
	sig := &secp256k1.Signature{R: [32]byte(padded[64:96]), S: [32]byte(padded[96:128]), V: byte(v)}
	addr, err := secp256k1.RecoverAddress(hash, sig)
	if err != nil {
		return nil
	}
	out := make([]byte, 32)
	copy(out[12:], addr[:])
	return out
}
