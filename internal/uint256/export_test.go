package uint256

import (
	"errors"
	"fmt"
)

// Test helpers: hex in and out, for fixtures and failure messages.

// Errors returned by the hex parser.
var (
	ErrSyntax   = errors.New("uint256: invalid syntax")
	ErrTooLarge = errors.New("uint256: value exceeds 256 bits")
)

// SetFromHex parses a hex string, with optional 0x prefix, into z.
func (z *Int) SetFromHex(s string) error {
	if len(s) >= 2 && (s[0:2] == "0x" || s[0:2] == "0X") {
		s = s[2:]
	}
	if len(s) == 0 {
		return fmt.Errorf("%w: empty hex", ErrSyntax)
	}
	if len(s) > 64 {
		return ErrTooLarge
	}
	z.Clear()
	for i := 0; i < len(s); i++ {
		c := s[i]
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint64(c-'A') + 10
		default:
			return fmt.Errorf("%w: bad hex digit %q", ErrSyntax, c)
		}
		z.Lsh(z, 4)
		z[0] |= v
	}
	return nil
}

// FromHex parses a hex string into a new Int.
func FromHex(s string) (*Int, error) {
	z := new(Int)
	if err := z.SetFromHex(s); err != nil {
		return nil, err
	}
	return z, nil
}

// MustFromHex parses a hex string into a new Int and panics on error.
func MustFromHex(s string) *Int {
	z, err := FromHex(s)
	if err != nil {
		panic(err)
	}
	return z
}

// Hex returns the minimal 0x-prefixed hexadecimal representation of z.
func (z *Int) Hex() string { return "0x" + z.ToBig().Text(16) }

// Bytes returns the minimal big-endian byte representation of z. Zero is
// returned as an empty slice.
func (z *Int) Bytes() []byte {
	full := z.Bytes32()
	n := z.ByteLen()
	return full[32-n:]
}
