package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tinyevm/internal/types"
)

// Side-chain log entry kinds.
const (
	// LogOpen records a channel opening.
	LogOpen byte = iota + 1
	// LogPayment records one off-chain payment.
	LogPayment
	// LogClose records a channel close (final state signed).
	LogClose
	// LogCommit records an on-chain commit submission.
	LogCommit
)

// ErrLogCorrupt indicates a broken hash link in a side-chain log.
var ErrLogCorrupt = errors.New("protocol: side-chain log corrupt")

// LogEntry is one element of a node's local side-chain log. Entries are
// hash-linked: "Each execution of the payment channel extends the local
// (side-chain) log of the node, which links each state with the
// previous."
type LogEntry struct {
	// Index is the entry's position, starting at 0.
	Index uint64
	// Kind is one of the Log* constants.
	Kind byte
	// ChannelID, Seq and Amount describe the recorded event; Amount is
	// the cumulative channel total at that point.
	ChannelID uint64
	Seq       uint64
	Amount    uint64
	// Prev is the previous entry's hash (or the anchor root for index 0).
	Prev types.Hash
	// Hash authenticates this entry: keccak over all fields above.
	Hash types.Hash
}

func (e *LogEntry) computeHash() types.Hash {
	var buf [1 + 8 + 8 + 8 + 8 + 32]byte
	buf[0] = e.Kind
	binary.BigEndian.PutUint64(buf[1:9], e.Index)
	binary.BigEndian.PutUint64(buf[9:17], e.ChannelID)
	binary.BigEndian.PutUint64(buf[17:25], e.Seq)
	binary.BigEndian.PutUint64(buf[25:33], e.Amount)
	copy(buf[33:], e.Prev[:])
	return types.HashData(buf[:])
}

// SideChain is a node's local, hash-linked history of channel events.
// Its genesis anchor is "the root published on the main-chain smart
// contract, which allows verification of the logical order of the
// executions and ensures that no transactions are omitted."
type SideChain struct {
	anchor  types.Hash
	entries []LogEntry
}

// NewSideChain creates a log anchored at the given main-chain root.
func NewSideChain(anchor types.Hash) *SideChain {
	return &SideChain{anchor: anchor}
}

// RestoreSideChain rebuilds a log from checkpointed entries, verifying
// every hash link against the anchor before accepting them — a
// snapshot that was tampered with (or belongs to another template)
// fails here instead of poisoning later dispute proofs.
func RestoreSideChain(anchor types.Hash, entries []LogEntry) (*SideChain, error) {
	s := &SideChain{anchor: anchor, entries: append([]LogEntry(nil), entries...)}
	if err := s.Verify(); err != nil {
		return nil, err
	}
	return s, nil
}

// Append records a new event and returns the entry.
func (s *SideChain) Append(kind byte, channelID, seq, amount uint64) LogEntry {
	prev := s.anchor
	if n := len(s.entries); n > 0 {
		prev = s.entries[n-1].Hash
	}
	e := LogEntry{
		Index:     uint64(len(s.entries)),
		Kind:      kind,
		ChannelID: channelID,
		Seq:       seq,
		Amount:    amount,
		Prev:      prev,
	}
	e.Hash = e.computeHash()
	s.entries = append(s.entries, e)
	return e
}

// Entries returns a copy of the log.
func (s *SideChain) Entries() []LogEntry {
	out := make([]LogEntry, len(s.entries))
	copy(out, s.entries)
	return out
}

// Verify re-walks the hash links; any tampering breaks the chain.
func (s *SideChain) Verify() error {
	prev := s.anchor
	for i, e := range s.entries {
		if e.Index != uint64(i) {
			return fmt.Errorf("%w: index %d out of order", ErrLogCorrupt, i)
		}
		if e.Prev != prev {
			return fmt.Errorf("%w: broken link at %d", ErrLogCorrupt, i)
		}
		if e.Hash != e.computeHash() {
			return fmt.Errorf("%w: bad hash at %d", ErrLogCorrupt, i)
		}
		prev = e.Hash
	}
	return nil
}
