package protocol

import (
	"fmt"
	"sort"
	"time"

	"tinyevm/internal/chain"
	"tinyevm/internal/contracts"
	"tinyevm/internal/device"
	"tinyevm/internal/radio"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// Role distinguishes the paying and the paid side of a channel.
type Role uint8

// Channel roles.
const (
	// RoleSender pays (the smart car).
	RoleSender Role = iota + 1
	// RoleReceiver is paid (the parking sensor).
	RoleReceiver
)

// ChannelKey is a channel's globally unique wire identity: the on-chain
// template it settles against, the address of the party that opened it,
// and the opener's logical-clock value. Logical clocks live on each
// device's LOCAL template copy, so they are only unique per opener —
// two cars opening their first channel against the same provider both
// call it "channel 1" — and receivers serving many peers must key their
// tables by the full triple.
type ChannelKey struct {
	Template types.Address
	Opener   types.Address
	ID       uint64
}

// ChannelState is one party's local view of an off-chain channel.
type ChannelState struct {
	// ID is this party's local handle for the channel (what the Party
	// methods take). It usually equals WireID but is remapped when two
	// templates' logical clocks collide.
	ID uint64
	// WireID is the template's logical-clock identifier carried in
	// every message and used for on-chain commits.
	WireID uint64
	// Template is the on-chain template this channel settles against.
	Template types.Address
	// Addr is the on-device channel contract address.
	Addr types.Address
	// Peer is the counterparty's address.
	Peer types.Address
	// Opener is the address of the party that created the channel (the
	// sender side); together with Template and WireID it forms the
	// channel's collision-free wire identity.
	Opener types.Address
	// Role is this party's side.
	Role Role
	// Deposit is the channel's locked amount.
	Deposit uint64
	// Seq is the latest sequence number seen.
	Seq uint64
	// Cumulative is the latest cumulative amount.
	Cumulative uint64
	// LastPayment is the most recent signed payment.
	LastPayment *Payment
	// PendingHTLC is an outstanding conditional (hash-locked) payment.
	PendingHTLC *Payment
	// PendingInbound records the direction of PendingHTLC: true when it
	// was received (awaiting our claim), false when we sent it (awaiting
	// the peer's preimage). Routing intermediaries hold one of each,
	// possibly under colliding wire ids, so claims must not guess.
	PendingInbound bool
	// LastPreimage is the most recently revealed hash-lock preimage.
	LastPreimage Secret
	// Final is the doubly-signed close state, once closed.
	Final *FinalState
	// SensorValue is the constructor's sensor reading.
	SensorValue uint64
}

// Closed reports whether the channel has a signed final state.
func (cs *ChannelState) Closed() bool { return cs.Final != nil }

// Party is one protocol participant: a device plus its radio endpoint,
// local template copy, side-chain log and channel table.
type Party struct {
	// Dev is the underlying simulated node.
	Dev *device.Device
	// Radio is the TSCH endpoint.
	Radio *radio.Endpoint
	// OnChainTemplate is the address of the chain-side template.
	OnChainTemplate types.Address
	// LocalTemplate is the device-side template contract copy
	// ("Smart Contract Local Copy", Figure 2).
	LocalTemplate types.Address
	// Log is the local side-chain log.
	Log *SideChain

	channels  map[uint64]*ChannelState
	wireIndex map[ChannelKey]uint64
}

// NewParty wires a device into the protocol: it deploys the local
// template copy on the device and anchors the side-chain log at the
// on-chain template address.
func NewParty(dev *device.Device, ep *radio.Endpoint, onChainTemplate types.Address, provider types.Address) (*Party, error) {
	res := dev.Deploy(contracts.TemplateInitCode(provider), 0)
	if res.Err != nil {
		return nil, fmt.Errorf("protocol: deploying local template: %w", res.Err)
	}
	anchor := types.HashConcat([]byte("tinyevm-template-anchor"), onChainTemplate[:])
	return &Party{
		Dev:             dev,
		Radio:           ep,
		OnChainTemplate: onChainTemplate,
		LocalTemplate:   res.Address,
		Log:             NewSideChain(anchor),
		channels:        make(map[uint64]*ChannelState),
		wireIndex:       make(map[ChannelKey]uint64),
	}, nil
}

// NewRestoredParty wires a device into the protocol WITHOUT deploying
// anything: the recovery path pours the device's EVM state (local
// template copy and channel contracts included) back from a checkpoint,
// so a deploy would corrupt the restored state. It does not read that
// state, so the state may be poured in before or after.
// localTemplate is the checkpointed on-device template address; the
// channel table and side-chain log start empty — install them with
// RestoreProtocolState.
func NewRestoredParty(dev *device.Device, ep *radio.Endpoint, onChainTemplate, localTemplate types.Address) *Party {
	anchor := types.HashConcat([]byte("tinyevm-template-anchor"), onChainTemplate[:])
	return &Party{
		Dev:             dev,
		Radio:           ep,
		OnChainTemplate: onChainTemplate,
		LocalTemplate:   localTemplate,
		Log:             NewSideChain(anchor),
		channels:        make(map[uint64]*ChannelState),
		wireIndex:       make(map[ChannelKey]uint64),
	}
}

// RestoreProtocolState replaces the party's channel table and
// side-chain log with checkpointed state. The log entries are verified
// against the party's anchor; channels install under their recorded
// local handles (collision remapping already happened when they were
// first registered).
func (p *Party) RestoreProtocolState(channels []*ChannelState, log []LogEntry) error {
	anchor := types.HashConcat([]byte("tinyevm-template-anchor"), p.OnChainTemplate[:])
	sc, err := RestoreSideChain(anchor, log)
	if err != nil {
		return err
	}
	p.Log = sc
	p.channels = make(map[uint64]*ChannelState, len(channels))
	p.wireIndex = make(map[ChannelKey]uint64, len(channels))
	for _, cs := range channels {
		p.channels[cs.ID] = cs
		p.wireIndex[ChannelKey{Template: cs.Template, Opener: cs.Opener, ID: cs.WireID}] = cs.ID
	}
	return nil
}

// registerChannel stores a channel under a collision-free local handle
// and indexes its wire identity. It returns the handle.
func (p *Party) registerChannel(cs *ChannelState) uint64 {
	handle := cs.WireID
	for {
		if _, taken := p.channels[handle]; !taken {
			break
		}
		handle += 1 << 32 // move collisions far out of the wire-id range
	}
	cs.ID = handle
	p.channels[handle] = cs
	p.wireIndex[ChannelKey{Template: cs.Template, Opener: cs.Opener, ID: cs.WireID}] = handle
	return handle
}

// channelByWire resolves a wire identity to the local channel state.
// from is the transmitting peer: the channel was opened either by that
// peer or by this party, so both opener candidates are tried.
func (p *Party) channelByWire(template types.Address, wireID uint64, from types.Address) (*ChannelState, bool) {
	for _, opener := range [2]types.Address{from, p.Address()} {
		if cs, ok := p.ChannelByOpener(template, wireID, opener); ok {
			return cs, true
		}
	}
	return nil, false
}

// Address returns the party's device address.
func (p *Party) Address() types.Address { return p.Dev.Address() }

// chargeKeccak books the software Keccak-256 time for protocol digest
// and side-chain log hashing: the host computes the hashes, the device
// clock pays the Table V latency (5 ms each).
func (p *Party) chargeKeccak(n int, label string) {
	p.Dev.SpendCPU(time.Duration(n)*device.KeccakSoftwareTime, label)
}

// Channel returns the local state of a channel.
func (p *Party) Channel(id uint64) (*ChannelState, bool) {
	cs, ok := p.channels[id]
	return cs, ok
}

// ChannelByOpener resolves a channel by its exact wire identity; close
// messages carry the opener explicitly (FinalState.Sender), so no
// guessing is involved.
func (p *Party) ChannelByOpener(template types.Address, wireID uint64, opener types.Address) (*ChannelState, bool) {
	handle, ok := p.wireIndex[ChannelKey{Template: template, Opener: opener, ID: wireID}]
	if !ok {
		return nil, false
	}
	cs, ok := p.channels[handle]
	return cs, ok
}

// ChannelList returns every channel, sorted by local handle for
// deterministic iteration.
func (p *Party) ChannelList() []*ChannelState {
	out := make([]*ChannelState, 0, len(p.channels))
	for _, cs := range p.channels {
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SendSensorData reads the given sensors and transmits the readings to
// the peer, hashing the payload on the crypto engine (SHA-256, 1 ms).
func (p *Party) SendSensorData(peer types.Address, sensorIDs ...uint64) (*SensorData, error) {
	var readings []SensorReading
	for _, id := range sensorIDs {
		v, err := p.Dev.Sensors.Sense(id, 0)
		if err != nil {
			return nil, fmt.Errorf("protocol: reading sensor 0x%x: %w", id, err)
		}
		readings = append(readings, SensorReading{ID: id, Value: v})
	}
	return p.SendSensorReadings(peer, readings)
}

// SendSensorReadings transmits pre-collected readings to the peer.
// Sensor values are nondeterministic inputs, so the durable service
// layer records them in its operation log and replays through this
// entry point — reproducing the exact frames without touching the
// sensor bus (whose Go handlers are not persisted).
func (p *Party) SendSensorReadings(peer types.Address, readings []SensorReading) (*SensorData, error) {
	data := &SensorData{From: p.Address(), Readings: readings}
	payload := EncodeSensorData(data)
	p.Dev.Crypto.SHA256(payload) // integrity digest, HW engine
	if _, err := p.Radio.Send(peer, payload); err != nil {
		return nil, err
	}
	return data, nil
}

// --- receive path ---------------------------------------------------------

// Delivery is what Deliver did with one radio frame.
type Delivery struct {
	// Type is the frame's message type.
	Type MsgType
	// Channel is the channel the frame opened, paid, closed or claimed
	// on; nil for sensor data.
	Channel *ChannelState
	// Payment is the payment received (MsgPayment) or the conditional
	// payment a claim settled (MsgHTLCClaim).
	Payment *Payment
	// Final is the final state a close frame recorded.
	Final *FinalState
	// Sensor is a sensor-data frame's payload.
	Sensor *SensorData
	// Added is what a plain payment added to the channel's cumulative
	// amount; zero for every other frame.
	Added uint64
}

// Deliver pops the oldest pending frame, reads its type, decodes it
// once and runs its handler. The frame is consumed either way. A
// handler refuses a frame before it changes any channel or side-chain
// log entry; only a close ack the radio fails to send is reported after
// the close was recorded.
func (p *Party) Deliver() (Delivery, error) { return p.deliver(0, false) }

// deliver is Deliver for the lockstep wrappers: a non-zero want refuses
// a frame of any other type — or a payment whose hash lock is not what
// locked asks for — with ErrBadMsgType before any handler runs.
func (p *Party) deliver(want MsgType, locked bool) (d Delivery, err error) {
	msg, ok := p.Radio.Receive()
	if !ok {
		return d, fmt.Errorf("%w: inbox empty", ErrBadMessage)
	}
	if d.Type, err = PeekType(msg.Payload); err != nil {
		return Delivery{}, err
	}
	if want != 0 && d.Type != want {
		return Delivery{}, ErrBadMsgType
	}
	switch d.Type {
	case MsgChannelOpen:
		var open *ChannelOpen
		if open, err = DecodeChannelOpen(msg.Payload); err == nil {
			d.Channel, err = p.acceptChannel(msg.From, open)
		}
	case MsgPayment:
		if d.Payment, err = DecodePayment(msg.Payload); err == nil {
			if want != 0 && d.Payment.HashLock.IsZero() == locked {
				return Delivery{}, ErrBadMsgType
			}
			d.Channel, d.Added, err = p.receivePayment(msg.From, d.Payment)
		}
	case MsgCloseRequest, MsgCloseAck:
		if _, d.Final, err = DecodeFinalState(msg.Payload); err == nil {
			handle := p.acceptClose // countersign an incoming close
			if d.Type == MsgCloseAck {
				handle = p.finishClose // record the ack on the initiator
			}
			d.Channel, err = handle(d.Final)
		}
	case MsgHTLCClaim:
		var claim *HTLCClaim
		if claim, err = DecodeHTLCClaim(msg.Payload); err == nil {
			d.Channel, d.Payment, err = p.acceptClaim(msg.From, claim)
		}
	case MsgSensorData:
		d.Sensor, err = DecodeSensorData(msg.Payload)
	default:
		err = fmt.Errorf("%w: %d", ErrBadMsgType, d.Type)
	}
	if err != nil {
		return Delivery{}, err
	}
	return d, nil
}

// The lockstep wrappers below each take one frame of their type off the
// inbox through deliver; measurement harnesses pump a round with them.

// ReceiveSensorData delivers a pending sensor-data message.
func (p *Party) ReceiveSensorData() (*SensorData, error) {
	d, err := p.deliver(MsgSensorData, false)
	return d.Sensor, err
}

// AcceptChannel delivers a pending MsgChannelOpen.
func (p *Party) AcceptChannel() (*ChannelState, error) {
	d, err := p.deliver(MsgChannelOpen, false)
	return d.Channel, err
}

// ReceivePayment delivers a pending plain MsgPayment.
func (p *Party) ReceivePayment() (*Payment, error) {
	d, err := p.deliver(MsgPayment, false)
	return d.Payment, err
}

// AcceptClose delivers a pending MsgCloseRequest.
func (p *Party) AcceptClose() (*FinalState, error) {
	d, err := p.deliver(MsgCloseRequest, false)
	return d.Final, err
}

// FinishClose delivers a pending MsgCloseAck.
func (p *Party) FinishClose() (*FinalState, error) {
	d, err := p.deliver(MsgCloseAck, false)
	return d.Final, err
}

// OpenChannel executes the local template to create an off-chain payment
// channel funded with deposit, then announces it to the peer. This is
// the sender-side (smart car) operation of phase 2.
func (p *Party) OpenChannel(peer types.Address, deposit uint64, sensorParam uint64) (*ChannelState, error) {
	p.Dev.SetPhase("create channel")
	defer p.Dev.SetPhase("")

	res := p.Dev.Call(p.LocalTemplate, contracts.CreateChannelCalldata(sensorParam), deposit)
	if res.Err != nil {
		return nil, fmt.Errorf("protocol: createPaymentChannel: %w", res.Err)
	}
	chAddr := contracts.WordToAddress(res.ReturnData)

	// The channel id is the template's logical clock after creation.
	clk := p.Dev.Call(p.LocalTemplate, contracts.Calldata(contracts.SigLogicalClock), 0)
	if clk.Err != nil {
		return nil, clk.Err
	}
	var w uint256.Int
	w.SetBytes(clk.ReturnData)
	id := w.Uint64()

	// Read back the constructor's sensor value.
	sv := p.Dev.Call(chAddr, contracts.Calldata(contracts.SigSensorData), 0)
	if sv.Err != nil {
		return nil, sv.Err
	}
	w.SetBytes(sv.ReturnData)

	cs := &ChannelState{
		WireID:      id,
		Template:    p.OnChainTemplate,
		Addr:        chAddr,
		Peer:        peer,
		Opener:      p.Address(),
		Role:        RoleSender,
		Deposit:     deposit,
		SensorValue: w.Uint64(),
	}
	p.registerChannel(cs)
	p.Log.Append(LogOpen, id, 0, 0)

	open := &ChannelOpen{
		Template:    p.OnChainTemplate,
		Channel:     chAddr,
		ChannelID:   id,
		Deposit:     deposit,
		SensorValue: cs.SensorValue,
	}
	if _, err := p.Radio.Send(peer, EncodeChannelOpen(open)); err != nil {
		return nil, err
	}
	return cs, nil
}

// acceptChannel handles a MsgChannelOpen from the opener: the receiver
// replicates the channel by executing its own local template copy
// ("Both entities execute the bytecode of the template to generate an
// off-chain payment channel").
func (p *Party) acceptChannel(from types.Address, open *ChannelOpen) (*ChannelState, error) {
	p.Dev.SetPhase("create channel")
	res := p.Dev.Call(p.LocalTemplate, contracts.CreateChannelCalldata(open.SensorValue), 0)
	p.Dev.SetPhase("")
	if res.Err != nil {
		return nil, fmt.Errorf("protocol: replicating channel: %w", res.Err)
	}

	cs := &ChannelState{
		WireID:      open.ChannelID,
		Template:    open.Template,
		Addr:        contracts.WordToAddress(res.ReturnData),
		Peer:        from,
		Opener:      from,
		Role:        RoleReceiver,
		Deposit:     open.Deposit,
		SensorValue: open.SensorValue,
	}
	p.registerChannel(cs)
	p.Log.Append(LogOpen, open.ChannelID, 0, 0)
	return cs, nil
}

// Pay sends an off-chain payment of `amount` over the channel: it bumps
// the sequence number, signs the cumulative state on the crypto engine,
// registers the state on the local channel contract (the side-chain
// register step of Figure 5) and transmits the signed payment.
func (p *Party) Pay(channelID uint64, amount uint64) (*Payment, error) {
	cs, ok := p.channels[channelID]
	if !ok {
		return nil, chanErr("pay", channelID, ErrUnknownChannel)
	}
	if cs.Closed() {
		return nil, chanErr("pay", channelID, ErrChannelClosed)
	}
	if cs.Cumulative+amount > cs.Deposit {
		return nil, chanErrf("pay", channelID, "%w: %d + %d > %d",
			ErrInsufficientChannelBalance, cs.Cumulative, amount, cs.Deposit)
	}

	pay := &Payment{
		Template:    cs.Template,
		Channel:     cs.Addr,
		ChannelID:   cs.WireID,
		Seq:         cs.Seq + 1,
		Cumulative:  cs.Cumulative + amount,
		SensorValue: cs.SensorValue,
	}
	p.Dev.SetPhase("sign payment")
	p.chargeKeccak(1, "payment digest")
	sig, err := p.Dev.Crypto.Sign(pay.Digest())
	p.Dev.SetPhase("")
	if err != nil {
		return nil, err
	}
	pay.Sig = sig

	// Register the state on the local channel contract and extend the
	// hash-linked side-chain log (Figure 5's "register the payment on
	// the side-chain" step).
	p.Dev.SetPhase("register payment")
	reg := p.Dev.Call(cs.Addr, contracts.RegisterCalldata(pay.Seq, pay.Cumulative), 0)
	if reg.Err != nil {
		p.Dev.SetPhase("")
		return nil, fmt.Errorf("protocol: registering payment: %w", reg.Err)
	}
	p.chargeKeccak(1, "side-chain log link")
	p.Log.Append(LogPayment, cs.WireID, pay.Seq, pay.Cumulative)
	p.Dev.SetPhase("")

	if _, err := p.Radio.Send(cs.Peer, EncodePayment(pay)); err != nil {
		return nil, err
	}
	cs.Seq = pay.Seq
	cs.Cumulative = pay.Cumulative
	cs.LastPayment = pay
	return pay, nil
}

// receivePayment handles a MsgPayment from the peer. Plain and
// conditional payments pass one validation — channel, closed, sequence
// ("the sequence number ... ensures that no device skips reporting any
// transactions"), cumulative bounds and the signature, checked on the
// crypto engine — and a conditional one must find no HTLC outstanding.
// A plain payment is then registered on the channel contract and the
// side-chain log; a conditional one is held until its claim. It returns
// the channel and what a plain payment added to its cumulative amount.
func (p *Party) receivePayment(from types.Address, pay *Payment) (*ChannelState, uint64, error) {
	op, locked := "receive payment", !pay.HashLock.IsZero()
	if locked {
		op = "receive conditional"
	}
	cs, ok := p.channelByWire(pay.Template, pay.ChannelID, from)
	if !ok {
		return nil, 0, chanErr(op, pay.ChannelID, ErrUnknownChannel)
	}
	if cs.Closed() {
		return nil, 0, chanErr(op, cs.ID, ErrChannelClosed)
	}
	if locked && cs.PendingHTLC != nil {
		return nil, 0, chanErr(op, cs.ID, ErrHTLCOutstanding)
	}
	if pay.Seq != cs.Seq+1 {
		return nil, 0, chanErrf(op, cs.ID, "%w: got %d, want %d",
			ErrStaleSequence, pay.Seq, cs.Seq+1)
	}
	if pay.Cumulative < cs.Cumulative {
		return nil, 0, chanErrf(op, cs.ID, "%w: %d < %d",
			ErrDecreasingCumulative, pay.Cumulative, cs.Cumulative)
	}
	if pay.Cumulative > cs.Deposit {
		return nil, 0, chanErrf(op, cs.ID, "%w: %d > %d",
			ErrInsufficientChannelBalance, pay.Cumulative, cs.Deposit)
	}
	p.chargeKeccak(1, "payment digest")
	if pay.Sig == nil || !p.Dev.Crypto.Verify(pay.Digest(), pay.Sig, cs.Peer) {
		return nil, 0, chanErr(op, cs.ID, ErrSignature)
	}
	if locked {
		cs.PendingHTLC, cs.PendingInbound = pay, true
		return cs, 0, nil
	}

	// Mirror the state into the local channel contract and log.
	p.Dev.SetPhase("register payment")
	reg := p.Dev.Call(cs.Addr, contracts.RegisterCalldata(pay.Seq, pay.Cumulative), 0)
	if reg.Err != nil {
		p.Dev.SetPhase("")
		return nil, 0, fmt.Errorf("protocol: registering payment: %w", reg.Err)
	}
	p.chargeKeccak(1, "side-chain log link")
	p.Log.Append(LogPayment, pay.ChannelID, pay.Seq, pay.Cumulative)
	p.Dev.SetPhase("")

	added := pay.Cumulative - cs.Cumulative
	cs.Seq = pay.Seq
	cs.Cumulative = pay.Cumulative
	cs.LastPayment = pay
	return cs, added, nil
}

// CloseChannel builds the final state and sends it to the peer for
// countersigning. When the caller is the sender and payments exist, the
// final state IS the last signed payment ("A node can report either the
// payment or the final state of the channel, which aggregates all other
// previous payments"), so no additional signature is produced — the
// paper's round signs once. A party closing with no payments signs a
// fresh zero-cumulative state.
func (p *Party) CloseChannel(channelID uint64) (*FinalState, error) {
	cs, ok := p.channels[channelID]
	if !ok {
		return nil, chanErr("close", channelID, ErrUnknownChannel)
	}
	if cs.Closed() {
		return nil, chanErr("close", channelID, ErrChannelClosed)
	}

	var fs *FinalState
	if cs.Role == RoleSender && cs.LastPayment != nil {
		fs = FinalStateFromPayment(cs.LastPayment, p.Address(), cs.Peer)
	} else {
		fs = &FinalState{
			Template:    cs.Template,
			Channel:     cs.Addr,
			Sender:      p.Address(),
			Receiver:    cs.Peer,
			ChannelID:   cs.WireID,
			Seq:         cs.Seq + 1,
			Cumulative:  cs.Cumulative,
			SensorValue: cs.SensorValue,
		}
		if cs.Role == RoleReceiver {
			fs.Sender, fs.Receiver = cs.Peer, p.Address()
		}
		p.Dev.SetPhase("sign final state")
		p.chargeKeccak(1, "final state digest")
		sig, err := p.Dev.Crypto.Sign(fs.Digest())
		p.Dev.SetPhase("")
		if err != nil {
			return nil, err
		}
		if cs.Role == RoleSender {
			fs.SigSender = sig
		} else {
			fs.SigReceiver = sig
		}
	}
	if _, err := p.Radio.Send(cs.Peer, EncodeFinalState(MsgCloseRequest, fs)); err != nil {
		return nil, err
	}
	return fs, nil
}

// acceptClose handles a MsgCloseRequest: it verifies the peer's
// signature and the state against local history, countersigns and
// replies with MsgCloseAck. The channel is then closed on this side.
func (p *Party) acceptClose(fs *FinalState) (*ChannelState, error) {
	// The final state names the channel opener (its sender side), so the
	// lookup is exact even when two peers' logical clocks collide.
	cs, ok := p.ChannelByOpener(fs.Template, fs.ChannelID, fs.Sender)
	if !ok {
		return nil, chanErr("accept close", fs.ChannelID, ErrUnknownChannel)
	}
	if cs.Closed() {
		return nil, chanErr("accept close", cs.ID, ErrChannelClosed)
	}
	if fs.Cumulative != cs.Cumulative {
		return nil, chanErrf("accept close", cs.ID, "%w: final %d != local %d",
			ErrDecreasingCumulative, fs.Cumulative, cs.Cumulative)
	}
	// The close either references the last accepted payment state
	// (same sequence number) or a fresh signed state beyond it.
	if fs.Seq < cs.Seq {
		return nil, chanErrf("accept close", cs.ID, "%w: final seq %d < %d",
			ErrStaleSequence, fs.Seq, cs.Seq)
	}

	digest := fs.Digest()
	// Verify the peer's signature (whichever side they are) — unless
	// the close IS the last payment, whose signature this device
	// already verified on its crypto engine.
	alreadyVerified := cs.LastPayment != nil && cs.LastPayment.Sig != nil &&
		digest == cs.LastPayment.Digest()
	peerSig := fs.SigSender
	if cs.Role == RoleSender {
		peerSig = fs.SigReceiver
	}
	if peerSig == nil {
		return nil, chanErr("accept close", cs.ID, ErrSignature)
	}
	if !alreadyVerified && !p.Dev.Crypto.Verify(digest, peerSig, cs.Peer) {
		return nil, chanErr("accept close", cs.ID, ErrSignature)
	}

	p.Dev.SetPhase("sign final state")
	sig, err := p.Dev.Crypto.Sign(digest)
	p.Dev.SetPhase("")
	if err != nil {
		return nil, err
	}
	if cs.Role == RoleSender {
		fs.SigSender = sig
	} else {
		fs.SigReceiver = sig
	}

	if err := fs.VerifySignatures(); err != nil {
		return nil, err
	}
	cs.Final = fs
	cs.Seq = fs.Seq
	p.chargeKeccak(1, "side-chain log link")
	p.Log.Append(LogClose, fs.ChannelID, fs.Seq, fs.Cumulative)

	if _, err := p.Radio.Send(cs.Peer, EncodeFinalState(MsgCloseAck, fs)); err != nil {
		return nil, err
	}
	return cs, nil
}

// finishClose handles the MsgCloseAck on the initiating side and
// records the fully signed final state.
func (p *Party) finishClose(fs *FinalState) (*ChannelState, error) {
	cs, ok := p.ChannelByOpener(fs.Template, fs.ChannelID, fs.Sender)
	if !ok {
		return nil, chanErr("finish close", fs.ChannelID, ErrUnknownChannel)
	}
	if err := fs.VerifySignatures(); err != nil {
		return nil, err
	}
	cs.Final = fs
	cs.Seq = fs.Seq
	p.chargeKeccak(1, "side-chain log link")
	p.Log.Append(LogClose, fs.ChannelID, fs.Seq, fs.Cumulative)
	return cs, nil
}

// Reopen clears a channel's closed state so payments can continue,
// keeping the sequence number and cumulative amount. Combined with
// CloseChannel this implements countersigned checkpoints — the paper's
// "the channel allows the owner to send messages to update the status or
// extend the lock-period". Both parties must reopen for the channel to
// continue.
func (p *Party) Reopen(channelID uint64) error {
	cs, ok := p.channels[channelID]
	if !ok {
		return chanErr("reopen", channelID, ErrUnknownChannel)
	}
	if !cs.Closed() {
		return nil
	}
	cs.Final = nil
	return nil
}

// TxSender is the slice of main-chain behaviour the party's phase-3
// operations need: nonce lookup and submit-and-mine. *chain.Chain
// satisfies it directly (serial block production); a clustered service
// substitutes clusterTxSender, which seals only on the consensus
// schedule.
type TxSender interface {
	NonceOf(types.Address) uint64
	SendTransaction(*chain.Transaction) (*chain.Receipt, error)
}

// CommitOnChain submits a final state to the on-chain template as a
// signed main-chain transaction (phase 3). The party must hold chain
// funds for gas.
func (p *Party) CommitOnChain(c TxSender, fs *FinalState) (*chain.Receipt, error) {
	p.Log.Append(LogCommit, fs.ChannelID, fs.Seq, fs.Cumulative)
	target := fs.Template
	tx := chain.NewTx(c.NonceOf(p.Address()), &target, 0, CommitTx(fs))
	if err := tx.Sign(p.Dev.Key()); err != nil {
		return nil, err
	}
	return c.SendTransaction(tx)
}

// DepositOnChain locks funds into the on-chain template.
func (p *Party) DepositOnChain(c TxSender, amount uint64) (*chain.Receipt, error) {
	tx := chain.NewTx(c.NonceOf(p.Address()), &p.OnChainTemplate, amount, DepositTx())
	if err := tx.Sign(p.Dev.Key()); err != nil {
		return nil, err
	}
	return c.SendTransaction(tx)
}

// ExitOnChain starts the exit / challenge period.
func (p *Party) ExitOnChain(c TxSender) (*chain.Receipt, error) {
	tx := chain.NewTx(c.NonceOf(p.Address()), &p.OnChainTemplate, 0, ExitTx())
	if err := tx.Sign(p.Dev.Key()); err != nil {
		return nil, err
	}
	return c.SendTransaction(tx)
}

// SettleOnChain dissolves the template after the challenge period.
func (p *Party) SettleOnChain(c TxSender) (*chain.Receipt, error) {
	tx := chain.NewTx(c.NonceOf(p.Address()), &p.OnChainTemplate, 0, SettleTx())
	if err := tx.Sign(p.Dev.Key()); err != nil {
		return nil, err
	}
	return c.SendTransaction(tx)
}
