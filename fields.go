package tinyevm

// Field types of the journal record: plain bytes in memory, raw
// fixed-width or length-prefixed bytes on disk (oplog.go). They are
// slices, not arrays, so an unset field is an empty one — which is what
// the record's presence bitmap keys on — and a decoded field can be a
// view into the record it came from.
//
// blobField also carries the nested protocol objects of the journal and
// the checkpoint (checkpoint.go): payments and final states as their
// protocol wire encodings, preimages as raw bytes. Their decoders
// refuse any bytes but the ones the encoder writes for the decoded
// value, so a nested object, like the record around it, has exactly one
// disk form.

import (
	"bytes"
	"errors"
	"fmt"

	"tinyevm/internal/protocol"
	"tinyevm/internal/types"
)

// errBadRecord marks a record that does not decode, or a field of the
// wrong shape inside one that does (a 31-byte secret, an undecodable
// final state): the live path cannot have written it, so replay refuses
// the store.
var errBadRecord = errors.New("tinyevm: malformed record")

// addrField is a 20-byte address.
type addrField []byte

func addrOf(a Address) addrField { return a[:] }

func (f addrField) addr() Address { return types.BytesToAddress(f) }

// hashField is a 32-byte hash.
type hashField []byte

func hashOf(h Hash) hashField { return h[:] }

func (f hashField) hash() Hash { return types.BytesToHash(f) }

// blobField is a byte string: EVM code and calldata, hash-lock
// preimages, and protocol wire encodings (which round-trip signatures
// exactly) of payments and final states.
type blobField []byte

func secretOf(sec Secret) blobField { return sec[:] }

func (f blobField) secret() (sec Secret, err error) {
	if len(f) != len(sec) {
		return sec, fmt.Errorf("%w: secret of %d bytes", errBadRecord, len(f))
	}
	copy(sec[:], f)
	return sec, nil
}

// preimageOf and preimage map the zero secret to an absent field.
func preimageOf(sec Secret) blobField {
	if sec == (Secret{}) {
		return nil
	}
	return secretOf(sec)
}

func (f blobField) preimage() (sec Secret, err error) {
	if len(f) == 0 {
		return sec, nil
	}
	if sec, err = f.secret(); err == nil && sec == (Secret{}) {
		err = fmt.Errorf("%w: zero preimage spelled out", errBadRecord)
	}
	return sec, err
}

func finalStateOf(fs *FinalState) blobField {
	return protocol.EncodeFinalState(protocol.MsgCloseRequest, fs)
}

func (f blobField) finalState() (*FinalState, error) {
	_, fs, err := protocol.DecodeFinalState(f)
	if err == nil {
		err = f.exact(finalStateOf(fs))
	}
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
	if err == nil {
		err = f.exact(protocol.EncodePayment(p))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: payment: %w", errBadRecord, err)
	}
	return p, nil
}

// exact refuses f unless it is the encoding the decoded value re-encodes
// to (the wire decoders ignore trailing bytes and read any non-zero
// signature flag as present).
func (f blobField) exact(encoded []byte) error {
	if !bytes.Equal(f, encoded) {
		return fmt.Errorf("%d bytes re-encode to %d different ones", len(f), len(encoded))
	}
	return nil
}
