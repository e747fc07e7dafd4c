package evm

import (
	"sync"

	"tinyevm/internal/uint256"
)

// Memory is the byte-addressed EVM random-access memory. It grows in
// 32-byte words up to an optional hard cap (8 KB in TinyEVM mode, the
// device's RAM budget from Table I/III) and records its high-water mark,
// which feeds the paper's Figure 3a/3b memory-usage measurements.
type Memory struct {
	data []byte
	// cap is the hard byte limit; 0 means unlimited (on-chain mode,
	// where quadratic gas is the limiter instead).
	cap uint64
	// peak is the largest size ever reached.
	peak uint64
}

// NewMemory returns a memory with the given hard cap (0 = unlimited).
func NewMemory(cap uint64) *Memory {
	return &Memory{cap: cap}
}

// memoryPool recycles memories across frame executions. Released
// memories are zeroed up to their previous length (see release), so
// Expand can reuse retained capacity without exposing stale bytes.
var memoryPool = sync.Pool{New: func() any { return new(Memory) }}

// newPooledMemory returns a reset memory from the pool with the given
// hard cap. Release it with release when the frame retires.
func newPooledMemory(cap uint64) *Memory {
	m := memoryPool.Get().(*Memory)
	m.cap = cap
	return m
}

// release zeroes the memory's contents, resets the peak-usage
// instrumentation, and returns it to the pool. The backing array is
// retained — Expand relies on the invariant that bytes between the
// logical length and the capacity are always zero.
func (m *Memory) release() {
	d := m.data
	for i := range d {
		d[i] = 0
	}
	m.data = m.data[:0]
	m.peak = 0
	m.cap = 0
	memoryPool.Put(m)
}

// Len returns the current memory size in bytes.
func (m *Memory) Len() uint64 { return uint64(len(m.data)) }

// Peak returns the high-water mark in bytes.
func (m *Memory) Peak() uint64 { return m.peak }

// Expand grows memory to cover [offset, offset+size), rounded up to a
// 32-byte word boundary. A zero size never expands. It returns
// ErrMemoryLimit when the cap would be exceeded.
func (m *Memory) Expand(offset, size uint64) error {
	if size == 0 {
		return nil
	}
	end := offset + size
	if end < offset { // overflow
		return ErrMemoryLimit
	}
	// Round up to word boundary.
	words := (end + 31) / 32
	need := words * 32
	if m.cap != 0 && need > m.cap {
		return ErrMemoryLimit
	}
	if need > uint64(len(m.data)) {
		if need <= uint64(cap(m.data)) {
			// Reuse pooled capacity: the region past the logical length
			// is kept zero (see release), so extending is safe.
			m.data = m.data[:need]
		} else {
			grown := make([]byte, need)
			copy(grown, m.data)
			m.data = grown
		}
	}
	if need > m.peak {
		m.peak = need
	}
	return nil
}

// Set writes value to [offset, offset+len(value)), expanding as needed.
func (m *Memory) Set(offset uint64, value []byte) error {
	if len(value) == 0 {
		return nil
	}
	if err := m.Expand(offset, uint64(len(value))); err != nil {
		return err
	}
	copy(m.data[offset:], value)
	return nil
}

// SetByte writes a single byte at offset.
func (m *Memory) SetByte(offset uint64, b byte) error {
	if err := m.Expand(offset, 1); err != nil {
		return err
	}
	m.data[offset] = b
	return nil
}

// SetWord writes a 32-byte big-endian word at offset.
func (m *Memory) SetWord(offset uint64, w *uint256.Int) error {
	if err := m.Expand(offset, 32); err != nil {
		return err
	}
	w.PutBytes32(m.data[offset : offset+32])
	return nil
}

// GetWord reads the 32-byte word at offset, expanding as needed (reads
// expand memory in the EVM).
func (m *Memory) GetWord(offset uint64, out *uint256.Int) error {
	if err := m.Expand(offset, 32); err != nil {
		return err
	}
	out.SetBytes(m.data[offset : offset+32])
	return nil
}

// GetCopy returns a copy of [offset, offset+size), expanding as needed.
func (m *Memory) GetCopy(offset, size uint64) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	if err := m.Expand(offset, size); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, m.data[offset:offset+size])
	return out, nil
}

// View returns a read-only view of [offset, offset+size) without copying.
// The view is invalidated by the next expansion.
func (m *Memory) View(offset, size uint64) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	if err := m.Expand(offset, size); err != nil {
		return nil, err
	}
	return m.data[offset : offset+size], nil
}
