package protocol

import (
	"crypto/rand"
	"errors"
	"fmt"

	"tinyevm/internal/codec"
	"tinyevm/internal/contracts"
	"tinyevm/internal/types"
)

// Multi-hop payment routing — the paper's stated future work ("we will
// investigate the feasibility of payment networks and payment routing
// algorithms on low-power IoT devices") built from the hash-lock
// primitive its background section describes: "A hash-lock requires the
// revealing of the pre-image of a secret hash value to consider a
// payment as valid."
//
// The construction is the classic HTLC route: for a payment A -> B -> C,
// the final receiver C generates a secret and publishes its hash H. A
// sends B a conditional payment locked on H (amount + B's forwarding
// fee), B sends C a conditional payment locked on the same H, C claims
// from B by revealing the secret, and B uses the now-public secret to
// claim from A. Either every hop settles or none does.

// HTLC errors.
var (
	ErrNoPendingHTLC   = errors.New("protocol: no pending conditional payment")
	ErrWrongPreimage   = errors.New("protocol: preimage does not match hash lock")
	ErrHTLCOutstanding = errors.New("protocol: channel has an outstanding conditional payment")
	ErrRouteTooShort   = errors.New("protocol: route needs at least two hops")
	ErrRouteChannels   = errors.New("protocol: route/channel count mismatch")
)

// Secret is a hash-lock preimage.
type Secret [32]byte

// NewSecret draws a random preimage and returns it with its hash lock.
func NewSecret() (Secret, types.Hash, error) {
	var s Secret
	if _, err := rand.Read(s[:]); err != nil {
		return s, types.Hash{}, fmt.Errorf("protocol: generating secret: %w", err)
	}
	return s, types.HashData(s[:]), nil
}

// Lock returns the hash lock of a secret.
func (s Secret) Lock() types.Hash { return types.HashData(s[:]) }

// PayConditional sends a hash-locked payment: the state advance only
// becomes claimable when the receiver presents the preimage of lock.
// The sender's cumulative/seq do not advance until the claim.
func (p *Party) PayConditional(channelID, amount uint64, lock types.Hash) (*Payment, error) {
	cs, ok := p.channels[channelID]
	if !ok {
		return nil, chanErr("pay conditional", channelID, ErrUnknownChannel)
	}
	if cs.Closed() {
		return nil, chanErr("pay conditional", channelID, ErrChannelClosed)
	}
	if cs.PendingHTLC != nil {
		return nil, chanErr("pay conditional", channelID, ErrHTLCOutstanding)
	}
	if cs.Cumulative+amount > cs.Deposit {
		return nil, chanErrf("pay conditional", channelID, "%w: %d + %d > %d",
			ErrInsufficientChannelBalance, cs.Cumulative, amount, cs.Deposit)
	}

	pay := &Payment{
		Template:    cs.Template,
		Channel:     cs.Addr,
		ChannelID:   cs.WireID,
		Seq:         cs.Seq + 1,
		Cumulative:  cs.Cumulative + amount,
		SensorValue: cs.SensorValue,
		HashLock:    lock,
	}
	p.Dev.SetPhase("sign conditional payment")
	p.chargeKeccak(1, "payment digest")
	sig, err := p.Dev.Crypto.Sign(pay.Digest())
	p.Dev.SetPhase("")
	if err != nil {
		return nil, err
	}
	pay.Sig = sig
	cs.PendingHTLC = pay
	cs.PendingInbound = false

	if _, err := p.Radio.Send(cs.Peer, EncodePayment(pay)); err != nil {
		return nil, err
	}
	return pay, nil
}

// ReceiveConditional delivers a pending hash-locked MsgPayment. The
// channel state does not advance until ClaimConditional.
func (p *Party) ReceiveConditional() (*Payment, error) {
	d, err := p.deliver(MsgPayment, true)
	return d.Payment, err
}

// ClaimConditional resolves a pending inbound hash-locked payment by
// revealing the preimage to the sender, and finalizes the state locally.
// channelID is this party's local handle.
func (p *Party) ClaimConditional(channelID uint64, secret Secret) (*Payment, error) {
	cs, ok := p.channels[channelID]
	if !ok {
		return nil, chanErr("claim conditional", channelID, ErrUnknownChannel)
	}
	return p.claimOn(cs, secret)
}

// claimOn reveals secret for the inbound HTLC pending on cs and
// finalizes it.
func (p *Party) claimOn(cs *ChannelState, secret Secret) (*Payment, error) {
	if cs.Closed() {
		return nil, chanErr("claim conditional", cs.ID, ErrChannelClosed)
	}
	pay := cs.PendingHTLC
	if pay == nil || !cs.PendingInbound {
		return nil, ErrNoPendingHTLC
	}
	p.chargeKeccak(1, "hash lock check")
	if secret.Lock() != pay.HashLock {
		return nil, ErrWrongPreimage
	}

	claim := &HTLCClaim{Template: cs.Template, ChannelID: cs.WireID, Seq: pay.Seq, Preimage: secret}
	if _, err := p.Radio.Send(cs.Peer, EncodeHTLCClaim(claim)); err != nil {
		return nil, err
	}

	p.finalizeHTLC(cs, pay, secret)
	return pay, nil
}

// AcceptClaim delivers a pending MsgHTLCClaim.
func (p *Party) AcceptClaim() (*Payment, error) {
	d, err := p.deliver(MsgHTLCClaim, false)
	return d.Payment, err
}

// acceptClaim handles a preimage revelation on the sender side and
// finalizes the conditional payment. Claims travel receiver -> payer,
// so of the two channels the wire identity can name (opened by the
// claimant or by this party) only one holding an OUTBOUND pending HTLC
// at the claimed sequence number matches — a routing intermediary also
// holds the inbound HTLC with the same hash lock, possibly under a
// colliding wire id, and must not finalize that one.
func (p *Party) acceptClaim(from types.Address, claim *HTLCClaim) (*ChannelState, *Payment, error) {
	p.chargeKeccak(1, "hash lock check")
	var cs *ChannelState
	for _, opener := range [2]types.Address{from, p.Address()} {
		c, ok := p.ChannelByOpener(claim.Template, claim.ChannelID, opener)
		if ok && c.PendingHTLC != nil && !c.PendingInbound && c.PendingHTLC.Seq == claim.Seq {
			cs = c
			break
		}
	}
	if cs == nil {
		return nil, nil, chanErr("accept claim", claim.ChannelID, ErrNoPendingHTLC)
	}
	if cs.Closed() {
		return nil, nil, chanErr("accept claim", cs.ID, ErrChannelClosed)
	}
	pay := cs.PendingHTLC
	if claim.Preimage.Lock() != pay.HashLock {
		return nil, nil, ErrWrongPreimage
	}
	p.finalizeHTLC(cs, pay, claim.Preimage)
	return cs, pay, nil
}

// CancelConditional drops a pending HTLC by mutual bookkeeping (e.g.
// after a route failed downstream). Both sides call it locally.
func (p *Party) CancelConditional(channelID uint64) error {
	cs, ok := p.channels[channelID]
	if !ok {
		return chanErr("cancel conditional", channelID, ErrUnknownChannel)
	}
	if cs.PendingHTLC == nil {
		return ErrNoPendingHTLC
	}
	cs.PendingHTLC = nil
	return nil
}

// finalizeHTLC converts a pending conditional payment into accepted
// channel state and records it (contract register + side-chain log).
func (p *Party) finalizeHTLC(cs *ChannelState, pay *Payment, secret Secret) {
	p.Dev.SetPhase("register payment")
	reg := p.Dev.Call(cs.Addr, contracts.RegisterCalldata(pay.Seq, pay.Cumulative), 0)
	_ = reg // registration failure on the mirror contract is non-fatal
	p.chargeKeccak(1, "side-chain log link")
	p.Log.Append(LogPayment, pay.ChannelID, pay.Seq, pay.Cumulative)
	p.Dev.SetPhase("")

	cs.Seq = pay.Seq
	cs.Cumulative = pay.Cumulative
	cs.LastPayment = pay
	cs.PendingHTLC = nil
	cs.PendingInbound = false
	cs.LastPreimage = secret
}

// --- routing ------------------------------------------------------------

// RouteHop pairs a party with the channel it uses toward the next hop.
type RouteHop struct {
	// From pays over ChannelID to the next party in the route.
	From      *Party
	ChannelID uint64
}

// RoutePayment executes an atomic multi-hop payment along the route:
// route[i] pays route[i+1]'s party over route[i].ChannelID. The final
// receiver generates the secret; conditional payments propagate forward
// carrying (amount + remaining hops * hopFee), then the preimage
// propagates backward, claiming each hop. Intermediaries earn hopFee
// each.
func RoutePayment(route []RouteHop, receiver *Party, amount, hopFee uint64) (types.Hash, error) {
	secret, _, err := NewSecret()
	if err != nil {
		return types.Hash{}, err
	}
	return RoutePaymentWithSecret(route, receiver, amount, hopFee, secret)
}

// RoutePaymentWithSecret is RoutePayment with a caller-chosen secret —
// the deterministic entry point the durable service layer uses: the
// secret is the route's only random input, so recording it in the
// operation log makes the whole exchange replayable.
func RoutePaymentWithSecret(route []RouteHop, receiver *Party, amount, hopFee uint64, secret Secret) (types.Hash, error) {
	if len(route) < 1 {
		return types.Hash{}, ErrRouteTooShort
	}
	lock := secret.Lock()

	// Forward pass: lock conditional payments. The first sender carries
	// every intermediary's fee.
	parties := make([]*Party, 0, len(route)+1)
	for _, h := range route {
		parties = append(parties, h.From)
	}
	parties = append(parties, receiver)

	received := make([]*ChannelState, len(route))
	for i, hop := range route {
		hopAmount := amount + uint64(len(route)-1-i)*hopFee
		if _, err := hop.From.PayConditional(hop.ChannelID, hopAmount, lock); err != nil {
			return lock, fmt.Errorf("hop %d lock: %w", i, err)
		}
		d, err := parties[i+1].deliver(MsgPayment, true)
		if err != nil {
			return lock, fmt.Errorf("hop %d receive: %w", i, err)
		}
		received[i] = d.Channel
	}

	// Backward pass: reveal the preimage, claiming hop by hop on the
	// channel each payee received on.
	for i := len(route) - 1; i >= 0; i-- {
		if _, err := parties[i+1].claimOn(received[i], secret); err != nil {
			return lock, fmt.Errorf("hop %d claim: %w", i, err)
		}
		if _, err := route[i].From.AcceptClaim(); err != nil {
			return lock, fmt.Errorf("hop %d accept: %w", i, err)
		}
	}
	return lock, nil
}

// HTLCClaim is the preimage revelation message.
type HTLCClaim struct {
	// Template and ChannelID form the channel's wire identity.
	Template  types.Address
	ChannelID uint64
	Seq       uint64
	Preimage  Secret
}

// EncodeHTLCClaim serializes a MsgHTLCClaim payload.
func EncodeHTLCClaim(c *HTLCClaim) []byte {
	var w codec.Writer
	w.U8(byte(MsgHTLCClaim))
	w.Addr(c.Template)
	w.U64(c.ChannelID)
	w.U64(c.Seq)
	w.Raw(c.Preimage[:])
	return w.Buf
}

// DecodeHTLCClaim parses a MsgHTLCClaim payload.
func DecodeHTLCClaim(buf []byte) (*HTLCClaim, error) {
	r := codec.NewReader(buf, ErrBadMessage)
	if MsgType(r.U8()) != MsgHTLCClaim {
		return nil, ErrBadMsgType
	}
	out := &HTLCClaim{Template: r.Addr(), ChannelID: r.U64(), Seq: r.U64()}
	copy(out.Preimage[:], r.Fixed(len(out.Preimage)))
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
