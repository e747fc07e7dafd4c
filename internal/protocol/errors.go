package protocol

import (
	"errors"
	"fmt"
)

// Canonical protocol error taxonomy. Every failure surfaced by the
// off-chain channel protocol wraps one of these sentinels, so callers —
// including remote ones on the far side of the JSON-RPC gateway — can
// branch with errors.Is/errors.As instead of string matching:
//
//	if errors.Is(err, protocol.ErrStaleSequence) { ... }
//
//	var cerr *protocol.ChannelError
//	if errors.As(err, &cerr) { log.Printf("op %s on channel %d", cerr.Op, cerr.Channel) }
var (
	// ErrUnknownChannel: the channel id is not in this party's table.
	ErrUnknownChannel = errors.New("protocol: unknown channel")
	// ErrStaleSequence: a payment or final state carries a sequence
	// number that is not the successor of (or is behind) the last
	// accepted one — the replay/withholding guard of the paper's
	// logical-clock scheme.
	ErrStaleSequence = errors.New("protocol: stale or out-of-order sequence number")
	// ErrSignature: a signature is missing, malformed, or was produced
	// by the wrong party.
	ErrSignature = errors.New("protocol: bad signature")
	// ErrDecreasingCumulative: the cumulative amount went backwards.
	ErrDecreasingCumulative = errors.New("protocol: cumulative amount decreased")
	// ErrChannelClosed: the channel already holds a doubly-signed final
	// state.
	ErrChannelClosed = errors.New("protocol: channel already closed")
	// ErrInsufficientChannelBalance: a payment would push the cumulative
	// amount past the channel deposit.
	ErrInsufficientChannelBalance = errors.New("protocol: payment exceeds channel deposit")
)

// Sentinel pairs an error sentinel with its stable kebab-case wire kind.
type Sentinel struct {
	Err  error
	Kind string
}

// Sentinels is the complete taxonomy of exported protocol error
// sentinels with their wire kinds, in the order the RPC layer matches
// them. It is the source of truth for exhaustiveness checks: a test
// built on go/parser fails when a new exported Err* is declared without
// a row here.
var Sentinels = []Sentinel{
	{ErrStaleSequence, "stale-sequence"},
	{ErrInsufficientChannelBalance, "insufficient-channel-balance"},
	{ErrChannelClosed, "channel-closed"},
	{ErrSignature, "bad-signature"},
	{ErrDecreasingCumulative, "decreasing-cumulative"},
	{ErrUnknownChannel, "unknown-channel"},
	{ErrNoPendingHTLC, "no-pending-htlc"},
	{ErrWrongPreimage, "wrong-preimage"},
	{ErrHTLCOutstanding, "htlc-outstanding"},
	{ErrStaleState, "stale-state"},
	{ErrOverspend, "overspend"},
	{ErrChallengeOpen, "challenge-open"},
	{ErrChallengeClosed, "challenge-closed"},
	{ErrExitActive, "exit-active"},
	{ErrNoExit, "no-exit"},
	{ErrSettled, "settled"},
	{ErrBadMessage, "bad-message"},
	{ErrBadMsgType, "bad-message-type"},
	{ErrWrongTemplate, "wrong-template"},
	{ErrWrongReceiver, "wrong-receiver"},
	{ErrUnknownOp, "unknown-op"},
	{ErrNotParticipant, "not-participant"},
	{ErrRouteTooShort, "route-too-short"},
	{ErrRouteChannels, "route-channels"},
	{ErrLogCorrupt, "log-corrupt"},
}

// ChannelError carries the structured context of a channel-protocol
// failure: which operation failed, on which channel, and the canonical
// sentinel underneath. It is the errors.As counterpart of the sentinel
// taxonomy.
type ChannelError struct {
	// Op is the failing operation ("pay", "receive payment", "close", ...).
	Op string
	// Channel is the local channel handle (or wire id for messages whose
	// channel is not in the local table).
	Channel uint64
	// Err is the underlying cause, wrapping one of the sentinels.
	Err error
}

// Error implements error.
func (e *ChannelError) Error() string {
	return fmt.Sprintf("protocol: %s (channel %d): %v", e.Op, e.Channel, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *ChannelError) Unwrap() error { return e.Err }

// errors.Is and errors.As reach Unwrap through this interface: the RPC
// gateway maps a wrapped sentinel to its error kind that way.
var _ interface{ Unwrap() error } = (*ChannelError)(nil)

// chanErr wraps err with channel context, passing nil through.
func chanErr(op string, channel uint64, err error) error {
	if err == nil {
		return nil
	}
	return &ChannelError{Op: op, Channel: channel, Err: err}
}

// chanErrf wraps a formatted cause (which must itself wrap a sentinel
// via %w) with channel context.
func chanErrf(op string, channel uint64, format string, args ...any) error {
	return &ChannelError{Op: op, Channel: channel, Err: fmt.Errorf(format, args...)}
}
