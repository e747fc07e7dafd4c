package evm

import (
	"sync"

	"tinyevm/internal/uint256"
)

// Stack is the EVM operand stack: a LIFO of 256-bit words with a
// configurable depth limit and a high-water mark. The high-water mark
// feeds the paper's Figure 3c (maximum stack pointer per contract).
type Stack struct {
	data  []uint256.Int
	limit int
	// maxDepth records the highest length the stack ever reached.
	maxDepth int
}

// stackPool recycles stacks across frame executions. Stacks are
// released with their used words zeroed (see release), so a pooled
// stack is indistinguishable from a fresh one.
var stackPool = sync.Pool{
	New: func() any { return &Stack{data: make([]uint256.Int, 0, 64)} },
}

// newPooledStack returns a reset stack from the pool, bounded to limit
// words. Release it with release when the frame retires.
func newPooledStack(limit int) *Stack {
	s := stackPool.Get().(*Stack)
	s.limit = limit
	return s
}

// release zeroes every word the stack ever held (the high-water mark
// bounds them), resets the depth and high-water instrumentation, and
// returns the stack to the pool. No stale operand survives into the
// next execution.
func (s *Stack) release() {
	used := s.data[:s.maxDepth]
	for i := range used {
		used[i].Clear()
	}
	s.data = s.data[:0]
	s.maxDepth = 0
	s.limit = 0
	stackPool.Put(s)
}

// Len returns the current depth.
func (s *Stack) Len() int { return len(s.data) }

// MaxDepth returns the high-water mark of the stack depth.
func (s *Stack) MaxDepth() int { return s.maxDepth }

// Push appends v to the stack, copying the value.
func (s *Stack) Push(v *uint256.Int) error {
	if len(s.data) >= s.limit {
		return ErrStackOverflow
	}
	s.data = append(s.data, *v)
	if len(s.data) > s.maxDepth {
		s.maxDepth = len(s.data)
	}
	return nil
}

// PushUint64 pushes a 64-bit value.
func (s *Stack) PushUint64(v uint64) error {
	var w uint256.Int
	w.SetUint64(v)
	return s.Push(&w)
}

// Pop removes and returns the top word.
func (s *Stack) Pop() (uint256.Int, error) {
	if len(s.data) == 0 {
		return uint256.Int{}, ErrStackUnderflow
	}
	v := s.data[len(s.data)-1]
	s.data = s.data[:len(s.data)-1]
	return v, nil
}

// Peek returns a pointer to the n-th word from the top (0 = top) for
// in-place mutation.
func (s *Stack) Peek(n int) (*uint256.Int, error) {
	if n < 0 || n >= len(s.data) {
		return nil, ErrStackUnderflow
	}
	return &s.data[len(s.data)-1-n], nil
}

// Require returns ErrStackUnderflow unless at least n items are present.
func (s *Stack) Require(n int) error {
	if len(s.data) < n {
		return ErrStackUnderflow
	}
	return nil
}

// Dup duplicates the n-th item from the top (1-based, DUP1 duplicates the
// top) onto the stack.
func (s *Stack) Dup(n int) error {
	if err := s.Require(n); err != nil {
		return err
	}
	v := s.data[len(s.data)-n]
	return s.Push(&v)
}

// Swap exchanges the top with the (n+1)-th item (1-based, SWAP1 swaps the
// top two).
func (s *Stack) Swap(n int) error {
	if err := s.Require(n + 1); err != nil {
		return err
	}
	top := len(s.data) - 1
	s.data[top], s.data[top-n] = s.data[top-n], s.data[top]
	return nil
}
