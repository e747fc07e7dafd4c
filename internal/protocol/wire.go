// Package protocol implements TinyEVM's off-chain payment-channel
// protocol (paper §IV): the three-phase lifecycle of on-chain template,
// off-chain channel with logical-clock sequence numbers, and on-chain
// commit with challenge period and fraud detection.
//
// The package composes the lower layers: channels are real TinyEVM
// contracts on internal/device nodes, messages travel over
// internal/radio TSCH links, signatures come from the device crypto
// engine, local histories live in hash-linked side-chain logs, and
// commits land in an internal/chain native contract that verifies
// signatures, sequence numbers and Merkle-sum audit bounds.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tinyevm/internal/codec"
	"tinyevm/internal/keccak"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
)

// MsgType tags a wire message.
type MsgType byte

// Wire message types exchanged over the low-power radio.
const (
	// MsgSensorData carries sensor readings between the parties
	// ("The nodes exchange their sensor data and transactions via a
	// short-range protocol").
	MsgSensorData MsgType = iota + 1
	// MsgChannelOpen announces a freshly created off-chain channel.
	MsgChannelOpen
	// MsgPayment is one signed off-chain payment.
	MsgPayment
	// MsgCloseRequest carries the sender-signed final state.
	MsgCloseRequest
	// MsgCloseAck carries the fully-signed final state back.
	MsgCloseAck
	// MsgHTLCClaim reveals a hash-lock preimage to claim a conditional
	// payment (multi-hop routing).
	MsgHTLCClaim
)

// Wire encoding errors.
var (
	ErrBadMessage = errors.New("protocol: malformed message")
	ErrBadMsgType = errors.New("protocol: unexpected message type")
)

// SensorReading is one (sensor id, value) pair.
type SensorReading struct {
	ID    uint64
	Value uint64
}

// SensorData is the payload of MsgSensorData.
type SensorData struct {
	From     types.Address
	Readings []SensorReading
}

// ChannelOpen is the payload of MsgChannelOpen.
type ChannelOpen struct {
	// Template is the on-chain template this channel settles against.
	Template types.Address
	// Channel is the on-device contract address of the channel.
	Channel types.Address
	// ChannelID is the template's logical-clock value for this channel:
	// "a unique monotonic counter (logical clock) as an identifier".
	ChannelID uint64
	// Deposit is the amount locked into the channel.
	Deposit uint64
	// SensorValue is the constructor's sensor reading (price context).
	SensorValue uint64
}

// Payment is one signed off-chain payment. Cumulative amounts make every
// payment a standalone claim: "The signed off-chain payments are
// stand-alone artifacts that can claim money from the main-chain."
type Payment struct {
	Template  types.Address
	Channel   types.Address
	ChannelID uint64
	// Seq is the channel's sequence number: "Each device maintains a
	// sequence number that uniquely identifies each of its transactions
	// by simply incrementing a counter".
	Seq uint64
	// Cumulative is the total paid over the channel's lifetime.
	Cumulative uint64
	// SensorValue carries the reading the price was derived from.
	SensorValue uint64
	// HashLock, when non-zero, makes the payment conditional: it only
	// becomes claimable against the preimage of this hash ("A hash-lock
	// requires the revealing of the pre-image of a secret hash value to
	// consider a payment as valid"). Zero for ordinary payments.
	HashLock types.Hash
	// Sig is the payer's signature over Digest().
	Sig *secp256k1.Signature
}

// Digest returns the signed message hash of the payment.
func (p *Payment) Digest() types.Hash {
	var h keccak.Hasher
	h.Write([]byte{byte(MsgPayment)})
	h.Write(p.Template[:])
	h.Write(p.Channel[:])
	writeU64(&h, p.ChannelID)
	writeU64(&h, p.Seq)
	writeU64(&h, p.Cumulative)
	writeU64(&h, p.SensorValue)
	h.Write(p.HashLock[:])
	return types.Hash(h.Digest())
}

// FinalState is the channel's closing state, signed by both parties:
// "they close the off-chain channel and sign the final state". Its
// digest is defined to be identical to the digest of the equivalent
// Payment, so a sender's existing payment signature doubles as the
// sender half of the close — the paper's "a node can report either the
// payment or the final state of the channel, which aggregates all other
// previous payments". The sender/receiver identities are bound through
// signature recovery, not the digest.
type FinalState struct {
	Template  types.Address
	Channel   types.Address
	Sender    types.Address
	Receiver  types.Address
	ChannelID uint64
	Seq       uint64
	// Cumulative is the final total the receiver may claim.
	Cumulative uint64
	// SensorValue mirrors the underlying payment's sensor context.
	SensorValue uint64
	// SigSender and SigReceiver sign Digest().
	SigSender   *secp256k1.Signature
	SigReceiver *secp256k1.Signature
}

// Digest returns the signed message hash, shared with Payment.Digest.
func (f *FinalState) Digest() types.Hash {
	p := Payment{
		Template:    f.Template,
		Channel:     f.Channel,
		ChannelID:   f.ChannelID,
		Seq:         f.Seq,
		Cumulative:  f.Cumulative,
		SensorValue: f.SensorValue,
	}
	return p.Digest()
}

// FinalStateFromPayment lifts a signed payment into a final state
// awaiting the receiver's countersignature.
func FinalStateFromPayment(p *Payment, sender, receiver types.Address) *FinalState {
	return &FinalState{
		Template:    p.Template,
		Channel:     p.Channel,
		Sender:      sender,
		Receiver:    receiver,
		ChannelID:   p.ChannelID,
		Seq:         p.Seq,
		Cumulative:  p.Cumulative,
		SensorValue: p.SensorValue,
		SigSender:   p.Sig,
	}
}

// VerifySignatures checks both parties' signatures against the declared
// addresses.
func (f *FinalState) VerifySignatures() error {
	digest := f.Digest()
	if f.SigSender == nil || f.SigReceiver == nil {
		return fmt.Errorf("%w: missing signature", ErrBadMessage)
	}
	if got, err := secp256k1.RecoverAddress(digest, f.SigSender); err != nil || got != f.Sender {
		return fmt.Errorf("%w: sender signature invalid", ErrBadMessage)
	}
	if got, err := secp256k1.RecoverAddress(digest, f.SigReceiver); err != nil || got != f.Receiver {
		return fmt.Errorf("%w: receiver signature invalid", ErrBadMessage)
	}
	return nil
}

// --- binary encoding -------------------------------------------------

func writeU64(h *keccak.Hasher, v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	h.Write(buf[:]) //nolint:errcheck
}

// putSig appends a presence flag and, when s is set, its 65 bytes.
func putSig(w *codec.Writer, s *secp256k1.Signature) {
	if s == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	w.Raw(s.Serialize())
}

// readSig reads what putSig wrote; any non-zero flag means present.
func readSig(r *codec.Reader) *secp256k1.Signature {
	if r.U8() == 0 {
		return nil
	}
	// A short read has already latched its own error; Fail keeps the first.
	s, err := secp256k1.ParseSignature(r.Fixed(secp256k1.SignatureLength))
	if err != nil {
		r.Fail("%v", err)
		return nil
	}
	return s
}

// Every Encode* below writes the type byte and then the fields in
// struct order through internal/codec. Every Decode* checks the type
// before reading any field and ignores bytes after the last one, so it
// ends on the reader's Err, not Done.

// EncodeSensorData serializes a MsgSensorData payload.
func EncodeSensorData(s *SensorData) []byte {
	var w codec.Writer
	w.U8(byte(MsgSensorData))
	w.Addr(s.From)
	w.U8(byte(len(s.Readings)))
	for _, r := range s.Readings {
		w.U64(r.ID)
		w.U64(r.Value)
	}
	return w.Buf
}

// EncodeChannelOpen serializes a MsgChannelOpen payload.
func EncodeChannelOpen(c *ChannelOpen) []byte {
	var w codec.Writer
	w.U8(byte(MsgChannelOpen))
	w.Addr(c.Template)
	w.Addr(c.Channel)
	w.U64(c.ChannelID)
	w.U64(c.Deposit)
	w.U64(c.SensorValue)
	return w.Buf
}

// EncodePayment serializes a MsgPayment payload.
func EncodePayment(p *Payment) []byte {
	var w codec.Writer
	w.U8(byte(MsgPayment))
	w.Addr(p.Template)
	w.Addr(p.Channel)
	w.U64(p.ChannelID)
	w.U64(p.Seq)
	w.U64(p.Cumulative)
	w.U64(p.SensorValue)
	w.Hash(p.HashLock)
	putSig(&w, p.Sig)
	return w.Buf
}

// EncodeFinalState serializes a final state with the given message type
// (MsgCloseRequest or MsgCloseAck).
func EncodeFinalState(t MsgType, f *FinalState) []byte {
	var w codec.Writer
	w.U8(byte(t))
	w.Addr(f.Template)
	w.Addr(f.Channel)
	w.Addr(f.Sender)
	w.Addr(f.Receiver)
	w.U64(f.ChannelID)
	w.U64(f.Seq)
	w.U64(f.Cumulative)
	w.U64(f.SensorValue)
	putSig(&w, f.SigSender)
	putSig(&w, f.SigReceiver)
	return w.Buf
}

// PeekType returns the message type of an encoded payload.
func PeekType(buf []byte) (MsgType, error) {
	if len(buf) == 0 {
		return 0, ErrBadMessage
	}
	return MsgType(buf[0]), nil
}

// DecodeSensorData parses a MsgSensorData payload.
func DecodeSensorData(buf []byte) (*SensorData, error) {
	r := codec.NewReader(buf, ErrBadMessage)
	if MsgType(r.U8()) != MsgSensorData {
		return nil, ErrBadMsgType
	}
	out := &SensorData{From: r.Addr()}
	n := int(r.U8())
	for i := 0; i < n; i++ {
		out.Readings = append(out.Readings, SensorReading{ID: r.U64(), Value: r.U64()})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeChannelOpen parses a MsgChannelOpen payload.
func DecodeChannelOpen(buf []byte) (*ChannelOpen, error) {
	r := codec.NewReader(buf, ErrBadMessage)
	if MsgType(r.U8()) != MsgChannelOpen {
		return nil, ErrBadMsgType
	}
	out := &ChannelOpen{
		Template:    r.Addr(),
		Channel:     r.Addr(),
		ChannelID:   r.U64(),
		Deposit:     r.U64(),
		SensorValue: r.U64(),
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodePayment parses a MsgPayment payload.
func DecodePayment(buf []byte) (*Payment, error) {
	r := codec.NewReader(buf, ErrBadMessage)
	if MsgType(r.U8()) != MsgPayment {
		return nil, ErrBadMsgType
	}
	out := &Payment{
		Template:    r.Addr(),
		Channel:     r.Addr(),
		ChannelID:   r.U64(),
		Seq:         r.U64(),
		Cumulative:  r.U64(),
		SensorValue: r.U64(),
		HashLock:    r.Hash(),
		Sig:         readSig(r),
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeFinalState parses a MsgCloseRequest/MsgCloseAck payload.
func DecodeFinalState(buf []byte) (MsgType, *FinalState, error) {
	r := codec.NewReader(buf, ErrBadMessage)
	t := MsgType(r.U8())
	if t != MsgCloseRequest && t != MsgCloseAck {
		return 0, nil, ErrBadMsgType
	}
	out := &FinalState{
		Template:    r.Addr(),
		Channel:     r.Addr(),
		Sender:      r.Addr(),
		Receiver:    r.Addr(),
		ChannelID:   r.U64(),
		Seq:         r.U64(),
		Cumulative:  r.U64(),
		SensorValue: r.U64(),
		SigSender:   readSig(r),
		SigReceiver: readSig(r),
	}
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	return t, out, nil
}
