// Package types holds the primitive Ethereum-style value types shared by
// every layer of the repository: 32-byte hashes, 20-byte addresses and
// wei amounts. It sits below all other internal packages and has no
// dependencies besides the standard library and the local keccak package.
package types

import (
	"encoding/hex"
	"errors"
	"fmt"

	"tinyevm/internal/keccak"
)

// HashLength is the byte length of a Hash.
const HashLength = 32

// AddressLength is the byte length of an Address.
const AddressLength = 20

// Hash is a 32-byte Keccak-256 digest.
type Hash [HashLength]byte

// Address is a 20-byte Ethereum-style account address: the low 20 bytes
// of the Keccak-256 hash of the uncompressed public key.
type Address [AddressLength]byte

// ErrBadLength indicates a hex string of the wrong size for the target
// type.
var ErrBadLength = errors.New("types: wrong byte length")

// BytesToHash converts b to a Hash, left-padding with zeros if b is
// shorter than 32 bytes and keeping the rightmost 32 bytes if longer.
func BytesToHash(b []byte) Hash {
	var h Hash
	if len(b) > HashLength {
		b = b[len(b)-HashLength:]
	}
	copy(h[HashLength-len(b):], b)
	return h
}

// HashData returns the Keccak-256 hash of data as a Hash.
func HashData(data []byte) Hash {
	return Hash(keccak.Sum256(data))
}

// HashConcat returns the Keccak-256 hash of the concatenation of parts.
func HashConcat(parts ...[]byte) Hash {
	return Hash(keccak.Sum256Concat(parts...))
}

// Hex returns the 0x-prefixed hexadecimal form of h.
func (h Hash) Hex() string { return "0x" + hex.EncodeToString(h[:]) }

// String implements fmt.Stringer.
func (h Hash) String() string { return h.Hex() }

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool { return h == Hash{} }

// HexToHash parses a 0x-prefixed or bare 64-digit hex string.
func HexToHash(s string) (Hash, error) {
	var h Hash
	b, err := parseHex(s, HashLength)
	if err != nil {
		return h, err
	}
	copy(h[:], b)
	return h, nil
}

// BytesToAddress converts b to an Address, left-padding with zeros if b
// is shorter than 20 bytes and keeping the rightmost 20 bytes if longer.
func BytesToAddress(b []byte) Address {
	var a Address
	if len(b) > AddressLength {
		b = b[len(b)-AddressLength:]
	}
	copy(a[AddressLength-len(b):], b)
	return a
}

// Hex returns the 0x-prefixed hexadecimal form of a.
func (a Address) Hex() string { return "0x" + hex.EncodeToString(a[:]) }

// String implements fmt.Stringer.
func (a Address) String() string { return a.Hex() }

// IsZero reports whether a is the zero address.
func (a Address) IsZero() bool { return a == Address{} }

// HexToAddress parses a 0x-prefixed or bare 40-digit hex string.
func HexToAddress(s string) (Address, error) {
	var a Address
	b, err := parseHex(s, AddressLength)
	if err != nil {
		return a, err
	}
	copy(a[:], b)
	return a, nil
}

// MustHexToAddress parses s and panics on error; for tests and constants.
func MustHexToAddress(s string) Address {
	a, err := HexToAddress(s)
	if err != nil {
		panic(err)
	}
	return a
}

func parseHex(s string, want int) ([]byte, error) {
	if len(s) >= 2 && (s[:2] == "0x" || s[:2] == "0X") {
		s = s[2:]
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("types: %w", err)
	}
	if len(b) != want {
		return nil, fmt.Errorf("%w: got %d bytes, want %d", ErrBadLength, len(b), want)
	}
	return b, nil
}

// ContractAddress derives the address of a contract created by sender
// with the given account nonce. Mainline Ethereum RLP-encodes
// (sender, nonce); this repository uses the simpler but equally
// collision-resistant keccak256(sender || nonce-be8)[12:].
func ContractAddress(sender Address, nonce uint64) Address {
	var nb [8]byte
	for i := 0; i < 8; i++ {
		nb[7-i] = byte(nonce >> (8 * i))
	}
	h := keccak.Sum256Concat(sender[:], nb[:])
	return BytesToAddress(h[12:])
}
