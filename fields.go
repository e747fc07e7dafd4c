package tinyevm

// Field types of the journal and checkpoint records. In memory they are
// plain bytes; the MarshalText/UnmarshalText pairs below are the only
// place the service writes or parses hex, so a record built by the live
// path is never encoded unless a store is attached, and a record read
// back from a store has had every address, hash and blob checked by the
// time json.Unmarshal returns.
//
// They are slices, not arrays, so `omitempty` drops an unset field, and
// they stay private to this package: types.Address and types.Hash have
// no text form of their own and other JSON that embeds them must not
// silently change.

import (
	"encoding/hex"
	"errors"
	"fmt"

	"tinyevm/internal/protocol"
	"tinyevm/internal/types"
)

// errBadRecord marks a record field that holds well-formed hex of the
// wrong shape (a 31-byte secret, an undecodable final state): the live
// path cannot have written it, so replay refuses the store.
var errBadRecord = errors.New("tinyevm: malformed record")

// addrField is a 20-byte address, written as 0x-prefixed hex.
type addrField []byte

func addrOf(a Address) addrField { return a[:] }

func (f addrField) addr() Address { return types.BytesToAddress(f) }

func (f addrField) MarshalText() ([]byte, error) {
	a := f.addr()
	return hex.AppendEncode([]byte("0x"), a[:]), nil
}

func (f *addrField) UnmarshalText(text []byte) error {
	a, err := types.HexToAddress(string(text))
	*f = a[:]
	return err
}

// hashField is a 32-byte hash, written as 0x-prefixed hex.
type hashField []byte

func hashOf(h Hash) hashField { return h[:] }

func (f hashField) hash() Hash { return types.BytesToHash(f) }

func (f hashField) MarshalText() ([]byte, error) {
	h := f.hash()
	return hex.AppendEncode([]byte("0x"), h[:]), nil
}

func (f *hashField) UnmarshalText(text []byte) error {
	h, err := types.HexToHash(string(text))
	*f = h[:]
	return err
}

// blobField is a byte string written as bare hex: EVM code and
// calldata, hash-lock preimages, and protocol wire encodings (which
// round-trip signatures exactly) of payments and final states.
type blobField []byte

func (f blobField) MarshalText() ([]byte, error) {
	return hex.AppendEncode(nil, f), nil
}

func (f *blobField) UnmarshalText(text []byte) (err error) {
	*f, err = hex.AppendDecode(nil, text)
	return err
}

func secretOf(sec Secret) blobField { return sec[:] }

func (f blobField) secret() (sec Secret, err error) {
	if len(f) != len(sec) {
		return sec, fmt.Errorf("%w: secret of %d bytes", errBadRecord, len(f))
	}
	copy(sec[:], f)
	return sec, nil
}

func finalStateOf(fs *FinalState) blobField {
	return protocol.EncodeFinalState(protocol.MsgCloseRequest, fs)
}

func (f blobField) finalState() (*FinalState, error) {
	_, fs, err := protocol.DecodeFinalState(f)
	if err != nil {
		return nil, fmt.Errorf("%w: final state: %w", errBadRecord, err)
	}
	return fs, nil
}

// paymentOf and payment map a nil payment to an absent field.
func paymentOf(p *Payment) blobField {
	if p == nil {
		return nil
	}
	return protocol.EncodePayment(p)
}

func (f blobField) payment() (*Payment, error) {
	if len(f) == 0 {
		return nil, nil
	}
	p, err := protocol.DecodePayment(f)
	if err != nil {
		return nil, fmt.Errorf("%w: payment: %w", errBadRecord, err)
	}
	return p, nil
}
