package contracts

import (
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
)

// Calldata for the views and the close path the protocol never calls
// but the tests drive the contracts' bytecode through.

// ChannelAtCalldata builds calldata for channelAt(index).
func ChannelAtCalldata(index uint64) []byte {
	return Calldata(SigChannelAt, uintWord(index))
}

// PaymentDigest is the message a payment signature covers:
// keccak256(channelAddress_word . amount_word). The contract's close()
// recomputes exactly this.
func PaymentDigest(channel types.Address, amount uint64) types.Hash {
	return types.HashConcat(addrWord(channel), uintWord(amount))
}

// CloseCalldata builds calldata for close(amount, r, s, v) from a
// serialized 65-byte signature.
func CloseCalldata(amount uint64, sig *secp256k1.Signature) []byte {
	raw := sig.Serialize()
	r := raw[0:32]
	s := raw[32:64]
	v := []byte{raw[64]}
	return Calldata(SigClose, uintWord(amount), r, s, v)
}
