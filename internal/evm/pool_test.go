package evm

// White-box tests for the pooled hot paths introduced with the
// jump-table interpreter: frame/stack/memory reuse must be leak-proof
// (high-water marks reset, no stale words readable), and the
// code-hash-keyed JUMPDEST analysis cache must be correct and safe
// under concurrent access.

import (
	"bytes"
	"sync"
	"testing"

	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// TestPooledStackReleaseLeakProof proves release wipes everything a
// prior execution could have left behind: depth, the max-stack-depth
// instrumentation, and the word contents of the backing array.
func TestPooledStackReleaseLeakProof(t *testing.T) {
	s := newPooledStack(16)
	var sentinel uint256.Int
	sentinel.SetAllOnes()
	for i := 0; i < 10; i++ {
		if err := s.Push(&sentinel); err != nil {
			t.Fatal(err)
		}
	}
	s.Pop()
	s.Pop()
	if s.MaxDepth() != 10 {
		t.Fatalf("high water %d, want 10", s.MaxDepth())
	}

	s.release()

	if s.Len() != 0 {
		t.Fatalf("released stack has depth %d", s.Len())
	}
	if s.MaxDepth() != 0 {
		t.Fatalf("released stack has high water %d", s.MaxDepth())
	}
	backing := s.data[:cap(s.data)]
	for i := range backing {
		if !backing[i].IsZero() {
			t.Fatalf("stale word at slot %d survived release", i)
		}
	}
}

// TestPooledMemoryReleaseLeakProof proves release wipes memory contents
// and the peak-usage instrumentation while retaining capacity for
// reuse, and that reuse within retained capacity reads back zeros.
func TestPooledMemoryReleaseLeakProof(t *testing.T) {
	m := newPooledMemory(1024)
	if err := m.Set(0, bytes.Repeat([]byte{0xAB}, 100)); err != nil {
		t.Fatal(err)
	}
	if m.Peak() == 0 {
		t.Fatal("peak not recorded")
	}

	m.release()

	if m.Len() != 0 || m.Peak() != 0 {
		t.Fatalf("released memory len=%d peak=%d", m.Len(), m.Peak())
	}
	backing := m.data[:cap(m.data)]
	for i, b := range backing {
		if b != 0 {
			t.Fatalf("stale byte %#x at offset %d survived release", b, i)
		}
	}

	// Reacquire and expand within the retained capacity: every byte
	// must read as zero.
	m2 := newPooledMemory(1024)
	if err := m2.Expand(0, 96); err != nil {
		t.Fatal(err)
	}
	var w uint256.Int
	if err := m2.GetWord(0, &w); err != nil {
		t.Fatal(err)
	}
	if !w.IsZero() {
		t.Fatalf("reused memory leaked %s", &w)
	}
	m2.release()
}

// TestPooledExecutionNoStateLeak drives the leak-proofness through the
// public VM API: a first contract fills memory with a sentinel and
// grows the stack, then a second execution on the same VM (which reuses
// the pooled frame, stack and memory) must observe a pristine machine —
// zeroed memory and its own high-water marks.
func TestPooledExecutionNoStateLeak(t *testing.T) {
	caller := types.MustHexToAddress("0x00000000000000000000000000000000000000d1")
	dirty := types.MustHexToAddress("0x00000000000000000000000000000000000000d2")
	probe := types.MustHexToAddress("0x00000000000000000000000000000000000000d3")

	// dirty: PUSH32 <ff..ff>, PUSH1 0, MSTORE, then grow the stack with
	// five more sentinels, STOP.
	dirtyCode := []byte{byte(OpPush32)}
	dirtyCode = append(dirtyCode, bytes.Repeat([]byte{0xFF}, 32)...)
	dirtyCode = append(dirtyCode, byte(OpPush1), 0x00, byte(OpMStore))
	for i := 0; i < 8; i++ {
		dirtyCode = append(dirtyCode, byte(OpPush1), 0xEE)
	}
	dirtyCode = append(dirtyCode, byte(OpStop))

	// probe: MLOAD the word the dirty contract wrote, store it at 0 and
	// return it — a fresh machine must return 32 zero bytes.
	probeCode := []byte{
		byte(OpPush1), 0x00, byte(OpMLoad),
		byte(OpPush1), 0x00, byte(OpMStore),
		byte(OpPush1), 0x20, byte(OpPush1), 0x00, byte(OpReturn),
	}

	state := NewMemState()
	state.SetCode(dirty, dirtyCode)
	state.SetCode(probe, probeCode)
	vm := New(TinyConfig(), state)

	res := vm.Call(caller, dirty, nil, uint256.NewInt(0), 0)
	if res.Err != nil {
		t.Fatalf("dirty run: %v", res.Err)
	}
	if res.Stats.MaxStackDepth < 6 {
		t.Fatalf("dirty run stack high water %d, want >= 6", res.Stats.MaxStackDepth)
	}

	res = vm.Call(caller, probe, nil, uint256.NewInt(0), 0)
	if res.Err != nil {
		t.Fatalf("probe run: %v", res.Err)
	}
	if len(res.ReturnData) != 32 || !bytes.Equal(res.ReturnData, make([]byte, 32)) {
		t.Fatalf("probe read stale memory: %x", res.ReturnData)
	}
	if res.Stats.MaxStackDepth != 2 {
		t.Fatalf("probe stack high water %d leaked from prior run, want 2", res.Stats.MaxStackDepth)
	}
	if res.Stats.PeakMemory != 32 {
		t.Fatalf("probe peak memory %d leaked from prior run, want 32", res.Stats.PeakMemory)
	}
}

// cacheTestCode builds a distinct code blob with real JUMPDESTs at
// positions 0..n and a PUSH-shadowed fake JUMPDEST after them.
func cacheTestCode(n int) []byte {
	code := bytes.Repeat([]byte{byte(OpJumpDest)}, n+1)
	code = append(code, byte(OpPush1), byte(OpJumpDest), byte(OpStop))
	return code
}

// TestJumpDestCacheCorrectness checks cached analyses mark real
// JUMPDESTs, skip PUSH immediates, and reject positions past the code.
func TestJumpDestCacheCorrectness(t *testing.T) {
	st := NewMemState()
	for n := 0; n < 8; n++ {
		code := cacheTestCode(n)
		for pass := 0; pass < 2; pass++ { // second pass hits the cache
			b := st.JumpDestAnalysis(types.HashData(code), code)
			for i := 0; i <= n; i++ {
				if !b.Has(uint64(i)) {
					t.Fatalf("n=%d pass=%d: JUMPDEST at %d not marked", n, pass, i)
				}
			}
			if b.Has(uint64(n + 2)) {
				t.Fatalf("n=%d pass=%d: PUSH immediate marked as JUMPDEST", n, pass)
			}
			if b.Has(uint64(len(code))) || b.Has(1<<30) {
				t.Fatalf("n=%d pass=%d: position past code marked", n, pass)
			}
		}
	}
}

// TestJumpDestCacheConcurrent hammers one MemState's analysis cache
// from many goroutines — the access pattern of parallel engine workers
// whose overlay views forward to the shared base cache. Run with -race.
func TestJumpDestCacheConcurrent(t *testing.T) {
	st := NewMemState()
	codes := make([][]byte, 32)
	hashes := make([]types.Hash, 32)
	for i := range codes {
		codes[i] = cacheTestCode(i)
		hashes[i] = types.HashData(codes[i])
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j := (i + seed) % len(codes)
				b := st.JumpDestAnalysis(hashes[j], codes[j])
				if !b.Has(0) {
					t.Errorf("worker %d: JUMPDEST at 0 missing for code %d", seed, j)
					return
				}
				if b.Has(uint64(j + 3)) {
					t.Errorf("worker %d: immediate marked for code %d", seed, j)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestJumpDestCacheBounded proves the cache cannot grow without bound:
// inserting more distinct code blobs than maxAnalysisEntries keeps the
// map at or below the ceiling, and evicted entries still resolve
// correctly when recomputed.
func TestJumpDestCacheBounded(t *testing.T) {
	st := NewMemState()
	code := make([]byte, 9)
	for i := 0; i < maxAnalysisEntries+64; i++ {
		code[0] = byte(OpJumpDest)
		code[1], code[2], code[3], code[4] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		st.JumpDestAnalysis(types.HashData(code), code)
	}
	st.analysisMu.Lock()
	n := st.analysis.len()
	st.analysisMu.Unlock()
	if n > maxAnalysisEntries {
		t.Fatalf("cache grew to %d entries (ceiling %d)", n, maxAnalysisEntries)
	}
	// A (possibly evicted) early entry still analyzes correctly.
	code[0] = byte(OpJumpDest)
	code[1], code[2], code[3], code[4] = 0, 0, 0, 0
	if !st.JumpDestAnalysis(types.HashData(code), code).Has(0) {
		t.Fatal("re-analysis after eviction lost the JUMPDEST")
	}
}
