// Package radio simulates the low-power wireless link between TinyEVM
// nodes: an IEEE 802.15.4 radio driven by a TSCH (Time-Slotted Channel
// Hopping) schedule, the stack the paper uses through Contiki-NG.
//
// The model is at the granularity that matters for the paper's latency
// and energy results: slotted medium access (a frame waits for the next
// scheduled cell), per-byte airtime at 250 kbit/s, link-layer
// fragmentation at the 127-byte PHY limit, acknowledgements, receive
// guard windows, and optional probabilistic loss with retransmission.
// Channel hopping itself is not modelled — it affects robustness, not
// the timing/energy shape under the paper's single-link evaluation.
package radio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"tinyevm/internal/device"
	"tinyevm/internal/types"
)

// Config holds the TSCH and PHY parameters.
type Config struct {
	// SlotDuration is the TSCH timeslot length (Contiki-NG default
	// 10 ms).
	SlotDuration time.Duration
	// SlotframeLength is the number of timeslots per slotframe.
	SlotframeLength int
	// ByteTime is the airtime of one byte (32 us at 250 kbit/s).
	ByteTime time.Duration
	// MaxFrame is the PHY frame limit (127 bytes).
	MaxFrame int
	// FrameOverhead is the MAC+fragmentation header plus FCS per frame.
	FrameOverhead int
	// AckBytes is the acknowledgement frame size.
	AckBytes int
	// RxGuard is the receiver's early wake listening window per cell
	// (Contiki-NG's TSCH_CONF_RX_WAIT default is 2200 us).
	RxGuard time.Duration
	// LossRate is the independent per-frame loss probability.
	LossRate float64
	// MaxRetries is the number of retransmissions before giving up.
	MaxRetries int
}

// DefaultConfig returns the parameters of the paper's testbed stack.
func DefaultConfig() Config {
	return Config{
		SlotDuration:    10 * time.Millisecond,
		SlotframeLength: 7,
		ByteTime:        32 * time.Microsecond,
		MaxFrame:        127,
		FrameOverhead:   23,
		AckBytes:        19,
		RxGuard:         2200 * time.Microsecond,
		LossRate:        0,
		MaxRetries:      4,
	}
}

// Errors returned by the link layer.
var (
	ErrNotJoined    = errors.New("radio: destination not on this network")
	ErrLinkFailure  = errors.New("radio: retries exhausted")
	ErrEmptyPayload = errors.New("radio: empty payload")
)

// Message is one delivered upper-layer payload.
type Message struct {
	// From and To are device addresses.
	From, To types.Address
	// Payload is the reassembled upper-layer data.
	Payload []byte
	// ArrivedAt is the receiver's clock at reassembly completion.
	ArrivedAt time.Duration
	// Frames is the number of link frames the payload needed.
	Frames int
}

// Network is a single TSCH broadcast domain joining two or more nodes.
// Disjoint node pairs may transmit concurrently under the service's
// sharded hot path, so the shared network object holds no mutable
// transmit state. The loss process keeps none either: whether a frame
// is lost is a pure function of the seed, the sender and how many
// frames that sender has drawn for (Endpoint.lost), so it does not
// depend on how transmissions of different senders interleave.
type Network struct {
	cfg   Config
	seed  uint64
	nodes map[types.Address]*Endpoint
}

// NewNetwork creates a network with the given config; seed fixes the loss
// process for reproducibility.
func NewNetwork(cfg Config, seed int64) *Network {
	return &Network{
		cfg:   cfg,
		seed:  uint64(seed),
		nodes: make(map[types.Address]*Endpoint),
	}
}

// Endpoint is one device's attachment to the network.
type Endpoint struct {
	net   *Network
	dev   *device.Device
	inbox []Message
	// txSlot is the node's dedicated transmit cell in the slotframe.
	txSlot int
	// lossDraws counts the frames this node has sent under a non-zero
	// LossRate — its position in its own loss stream.
	lossDraws uint64
}

// Join attaches a device to the network and assigns it a transmit cell.
func (n *Network) Join(dev *device.Device) *Endpoint {
	ep := &Endpoint{
		net:    n,
		dev:    dev,
		txSlot: len(n.nodes) % n.cfg.SlotframeLength,
	}
	n.nodes[dev.Address()] = ep
	return ep
}

// Address returns the endpoint's device address.
func (ep *Endpoint) Address() types.Address { return ep.dev.Address() }

// nextTxCell returns the start of the node's next transmit cell at or
// after t.
func (ep *Endpoint) nextTxCell(t time.Duration) time.Duration {
	cfg := ep.net.cfg
	frame := cfg.SlotDuration * time.Duration(cfg.SlotframeLength)
	slotStart := cfg.SlotDuration * time.Duration(ep.txSlot)
	// First slotframe boundary at or before t.
	base := (t / frame) * frame
	cell := base + slotStart
	for cell < t {
		cell += frame
	}
	return cell
}

// frameAirtime returns the airtime of a frame carrying chunk payload
// bytes.
func (n *Network) frameAirtime(chunk int) time.Duration {
	return time.Duration(chunk+n.cfg.FrameOverhead) * n.cfg.ByteTime
}

// Send transmits payload to the destination address, fragmenting over as
// many TSCH cells as needed. Both devices' clocks advance coherently:
// the receiver sleeps in LPM until each frame's cell, listens for the
// guard plus airtime, and acknowledges. The sender sleeps between cells.
func (ep *Endpoint) Send(to types.Address, payload []byte) (*Message, error) {
	if len(payload) == 0 {
		return nil, ErrEmptyPayload
	}
	dst, ok := ep.net.nodes[to]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotJoined, to)
	}
	cfg := ep.net.cfg
	chunkSize := cfg.MaxFrame - cfg.FrameOverhead

	frames := 0
	for off := 0; off < len(payload); off += chunkSize {
		end := off + chunkSize
		if end > len(payload) {
			end = len(payload)
		}
		if err := ep.sendFrame(dst, end-off); err != nil {
			return nil, err
		}
		frames++
	}

	msg := Message{
		From:      ep.Address(),
		To:        to,
		Payload:   append([]byte(nil), payload...),
		ArrivedAt: dst.dev.Now(),
		Frames:    frames,
	}
	dst.inbox = append(dst.inbox, msg)
	return &msg, nil
}

// sendFrame transmits one fragment, handling loss and retries.
func (ep *Endpoint) sendFrame(dst *Endpoint, chunk int) error {
	cfg := ep.net.cfg
	air := ep.net.frameAirtime(chunk)
	ackAir := time.Duration(cfg.AckBytes) * cfg.ByteTime

	for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
		// Wait for the sender's next TX cell; both nodes share the
		// schedule, so the receiver wakes for the same cell.
		syncTime := ep.dev.Now()
		if dst.dev.Now() > syncTime {
			syncTime = dst.dev.Now()
		}
		cell := ep.nextTxCell(syncTime)
		ep.dev.SleepUntil(cell)
		dst.dev.SleepUntil(cell)

		// Receiver wakes early for the guard window; sender transmits.
		dst.dev.SpendRX(cfg.RxGuard, "rx guard")
		ep.dev.SpendTX(air, "frame tx")
		dst.dev.SpendRX(air, "frame rx")

		if ep.lost() {
			// Sender listens for the ACK that never comes.
			ep.dev.SpendRX(cfg.RxGuard+ackAir, "ack timeout")
			continue
		}

		// Acknowledgement: receiver transmits, sender listens.
		dst.dev.SpendTX(ackAir, "ack tx")
		ep.dev.SpendRX(ackAir, "ack rx")
		return nil
	}
	return fmt.Errorf("%w after %d attempts", ErrLinkFailure, cfg.MaxRetries+1)
}

// lost draws the fate of the sender's next frame: a 53-bit uniform
// hashed (splitmix64) from the network seed, the sender's address and
// its draw counter, compared against LossRate. Loss-free networks draw
// nothing, so their counters stay zero.
func (ep *Endpoint) lost() bool {
	rate := ep.net.cfg.LossRate
	if rate <= 0 {
		return false
	}
	addr := ep.dev.Address()
	x := ep.net.seed
	for i := 0; i < len(addr); i += 4 {
		x = mix64(x ^ uint64(binary.BigEndian.Uint32(addr[i:])))
	}
	x = mix64(x ^ ep.lossDraws)
	ep.lossDraws++
	return float64(x>>11)/(1<<53) < rate
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// LossDraws returns the endpoint's position in its loss stream; a
// checkpoint records it and SetLossDraws puts a restored node back at it.
func (ep *Endpoint) LossDraws() uint64 { return ep.lossDraws }

// SetLossDraws restores the position LossDraws reported.
func (ep *Endpoint) SetLossDraws(n uint64) { ep.lossDraws = n }

// Receive pops the oldest pending message, if any.
func (ep *Endpoint) Receive() (Message, bool) {
	if len(ep.inbox) == 0 {
		return Message{}, false
	}
	msg := ep.inbox[0]
	ep.inbox = ep.inbox[1:]
	return msg, true
}

// Pending returns the number of undelivered messages.
func (ep *Endpoint) Pending() int { return len(ep.inbox) }
