package tinyevm

import (
	"fmt"
	"time"
)

// EventType classifies service events delivered on Subscribe streams.
type EventType int

// Event types.
const (
	// EventChannelOpened: a channel is live on the observing node —
	// emitted on the opener when OpenChannel returns and on the peer
	// when the announcement is replicated.
	EventChannelOpened EventType = iota + 1
	// EventPaymentReceived: an incoming off-chain payment was verified
	// and registered on the observing node. Conditional (hash-locked)
	// payments carry a non-zero Payment.HashLock and do not advance the
	// channel state until claimed.
	EventPaymentReceived
	// EventChannelClosed: a doubly-signed final state is recorded on the
	// observing node (both the close acceptor and the initiator see it).
	EventChannelClosed
	// EventClaimSettled: the preimage of an outstanding conditional
	// payment arrived; the payment this node previously sent is final.
	EventClaimSettled
	// EventSensorData: the peer pushed sensor readings.
	EventSensorData
	// EventDispute: the on-chain template recorded fraud — a committed
	// channel state was superseded by a higher-sequence state submitted
	// by the counterparty. Broadcast to every subscriber.
	EventDispute
	// EventBlockSealed: the main chain sealed a block. Broadcast to
	// every subscriber.
	EventBlockSealed
	// EventError: an incoming wire message failed verification or
	// dispatch on the observing node; Err carries the typed cause.
	EventError
)

// String returns the kebab-case name used on the JSON-RPC wire.
func (t EventType) String() string {
	switch t {
	case EventChannelOpened:
		return "channel-opened"
	case EventPaymentReceived:
		return "payment-received"
	case EventChannelClosed:
		return "channel-closed"
	case EventClaimSettled:
		return "claim-settled"
	case EventSensorData:
		return "sensor-data"
	case EventDispute:
		return "dispute"
	case EventBlockSealed:
		return "block-sealed"
	case EventError:
		return "error"
	default:
		return fmt.Sprintf("event-%d", int(t))
	}
}

// Event is one observation delivered to a Subscribe stream. Fields
// beyond Type, Node and Time are populated per type; pointers reference
// immutable protocol artifacts and must not be mutated.
type Event struct {
	// Type discriminates the payload.
	Type EventType
	// Node is the name of the observing node ("" for broadcast events).
	Node string
	// Time is the service wall-clock timestamp.
	Time time.Time

	// Channel is the observing node's local channel handle.
	Channel uint64
	// Peer is the counterparty (channel events), the cheating address
	// (disputes) or the data source (sensor data).
	Peer Address
	// Seq and Amount summarize payment/close events: Seq is the channel
	// sequence number, Amount the incremental wei of a payment.
	Seq    uint64
	Amount uint64

	// Payment is the verified payment (payment-received, claim-settled).
	Payment *Payment
	// Final is the doubly-signed close state (channel-closed).
	Final *FinalState
	// Readings are the pushed sensor values (sensor-data).
	Readings []SensorReading

	// Block is the sealed block number (block-sealed) or the commit
	// height (dispute).
	Block uint64
	// Err is the dispatch failure (error events).
	Err error
}
