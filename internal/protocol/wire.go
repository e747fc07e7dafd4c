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

type encoder struct{ buf []byte }

func (e *encoder) u8(v byte) { e.buf = append(e.buf, v) }
func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}
func (e *encoder) addr(a types.Address) { e.buf = append(e.buf, a[:]...) }
func (e *encoder) sig(s *secp256k1.Signature) {
	if s == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.buf = append(e.buf, s.Serialize()...)
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil || d.off+n > len(d.buf) {
		d.err = ErrBadMessage
		return false
	}
	return true
}

func (d *decoder) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) addr() types.Address {
	var a types.Address
	if !d.need(types.AddressLength) {
		return a
	}
	copy(a[:], d.buf[d.off:])
	d.off += types.AddressLength
	return a
}

func (d *decoder) sig() *secp256k1.Signature {
	if d.u8() == 0 {
		return nil
	}
	if !d.need(secp256k1.SignatureLength) {
		return nil
	}
	s, err := secp256k1.ParseSignature(d.buf[d.off : d.off+secp256k1.SignatureLength])
	if err != nil {
		d.err = fmt.Errorf("%w: %v", ErrBadMessage, err)
		return nil
	}
	d.off += secp256k1.SignatureLength
	return s
}

// EncodeSensorData serializes a MsgSensorData payload.
func EncodeSensorData(s *SensorData) []byte {
	e := &encoder{}
	e.u8(byte(MsgSensorData))
	e.addr(s.From)
	e.u8(byte(len(s.Readings)))
	for _, r := range s.Readings {
		e.u64(r.ID)
		e.u64(r.Value)
	}
	return e.buf
}

// EncodeChannelOpen serializes a MsgChannelOpen payload.
func EncodeChannelOpen(c *ChannelOpen) []byte {
	e := &encoder{}
	e.u8(byte(MsgChannelOpen))
	e.addr(c.Template)
	e.addr(c.Channel)
	e.u64(c.ChannelID)
	e.u64(c.Deposit)
	e.u64(c.SensorValue)
	return e.buf
}

// EncodePayment serializes a MsgPayment payload.
func EncodePayment(p *Payment) []byte {
	e := &encoder{}
	e.u8(byte(MsgPayment))
	e.addr(p.Template)
	e.addr(p.Channel)
	e.u64(p.ChannelID)
	e.u64(p.Seq)
	e.u64(p.Cumulative)
	e.u64(p.SensorValue)
	e.buf = append(e.buf, p.HashLock[:]...)
	e.sig(p.Sig)
	return e.buf
}

// EncodeFinalState serializes a final state with the given message type
// (MsgCloseRequest or MsgCloseAck).
func EncodeFinalState(t MsgType, f *FinalState) []byte {
	e := &encoder{}
	e.u8(byte(t))
	e.addr(f.Template)
	e.addr(f.Channel)
	e.addr(f.Sender)
	e.addr(f.Receiver)
	e.u64(f.ChannelID)
	e.u64(f.Seq)
	e.u64(f.Cumulative)
	e.u64(f.SensorValue)
	e.sig(f.SigSender)
	e.sig(f.SigReceiver)
	return e.buf
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
	d := &decoder{buf: buf}
	if MsgType(d.u8()) != MsgSensorData {
		return nil, ErrBadMsgType
	}
	out := &SensorData{From: d.addr()}
	n := int(d.u8())
	for i := 0; i < n; i++ {
		out.Readings = append(out.Readings, SensorReading{ID: d.u64(), Value: d.u64()})
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// DecodeChannelOpen parses a MsgChannelOpen payload.
func DecodeChannelOpen(buf []byte) (*ChannelOpen, error) {
	d := &decoder{buf: buf}
	if MsgType(d.u8()) != MsgChannelOpen {
		return nil, ErrBadMsgType
	}
	out := &ChannelOpen{
		Template:    d.addr(),
		Channel:     d.addr(),
		ChannelID:   d.u64(),
		Deposit:     d.u64(),
		SensorValue: d.u64(),
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// DecodePayment parses a MsgPayment payload.
func DecodePayment(buf []byte) (*Payment, error) {
	d := &decoder{buf: buf}
	if MsgType(d.u8()) != MsgPayment {
		return nil, ErrBadMsgType
	}
	out := &Payment{
		Template:  d.addr(),
		Channel:   d.addr(),
		ChannelID: d.u64(),
		Seq:       d.u64(),
	}
	out.Cumulative = d.u64()
	out.SensorValue = d.u64()
	if !d.need(types.HashLength) {
		return nil, ErrBadMessage
	}
	copy(out.HashLock[:], d.buf[d.off:])
	d.off += types.HashLength
	out.Sig = d.sig()
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// DecodeFinalState parses a MsgCloseRequest/MsgCloseAck payload.
func DecodeFinalState(buf []byte) (MsgType, *FinalState, error) {
	d := &decoder{buf: buf}
	t := MsgType(d.u8())
	if t != MsgCloseRequest && t != MsgCloseAck {
		return 0, nil, ErrBadMsgType
	}
	out := &FinalState{
		Template: d.addr(),
		Channel:  d.addr(),
		Sender:   d.addr(),
		Receiver: d.addr(),
	}
	out.ChannelID = d.u64()
	out.Seq = d.u64()
	out.Cumulative = d.u64()
	out.SensorValue = d.u64()
	out.SigSender = d.sig()
	out.SigReceiver = d.sig()
	if d.err != nil {
		return 0, nil, d.err
	}
	return t, out, nil
}
