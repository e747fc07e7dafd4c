package evm

// White-box tests for the interpreter's building blocks: stack, memory,
// state snapshots, gas accounting and precompiles.

import (
	"encoding/hex"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// --- stack ---------------------------------------------------------------

func TestStackPushPopOrder(t *testing.T) {
	s := newPooledStack(16)
	for i := uint64(1); i <= 5; i++ {
		if err := s.PushUint64(i); err != nil {
			t.Fatal(err)
		}
	}
	for want := uint64(5); want >= 1; want-- {
		v, err := s.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if v.Uint64() != want {
			t.Fatalf("popped %d, want %d", v.Uint64(), want)
		}
	}
	if _, err := s.Pop(); !errors.Is(err, ErrStackUnderflow) {
		t.Fatal("empty pop succeeded")
	}
}

func TestStackLimitAndHighWater(t *testing.T) {
	s := newPooledStack(3)
	for i := 0; i < 3; i++ {
		if err := s.PushUint64(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PushUint64(99); !errors.Is(err, ErrStackOverflow) {
		t.Fatal("overflow not detected")
	}
	s.Pop()
	s.Pop()
	if s.MaxDepth() != 3 {
		t.Fatalf("high water %d, want 3", s.MaxDepth())
	}
	if s.Len() != 1 {
		t.Fatalf("len %d", s.Len())
	}
}

func TestStackDupSwap(t *testing.T) {
	s := newPooledStack(16)
	s.PushUint64(1)
	s.PushUint64(2)
	s.PushUint64(3)
	if err := s.Dup(3); err != nil { // duplicates the 1
		t.Fatal(err)
	}
	top, _ := s.Peek(0)
	if top.Uint64() != 1 {
		t.Fatalf("DUP3 got %d", top.Uint64())
	}
	if err := s.Swap(3); err != nil { // swaps top (1) with 4th (1->...)
		t.Fatal(err)
	}
	if err := s.Dup(99); !errors.Is(err, ErrStackUnderflow) {
		t.Fatal("deep dup succeeded")
	}
	if err := s.Swap(99); !errors.Is(err, ErrStackUnderflow) {
		t.Fatal("deep swap succeeded")
	}
}

func TestStackPushCopiesValue(t *testing.T) {
	s := newPooledStack(4)
	v := uint256.NewInt(7)
	s.Push(v)
	v.SetUint64(99) // mutate after push
	got, _ := s.Pop()
	if got.Uint64() != 7 {
		t.Fatal("push aliased the caller's value")
	}
}

func TestStackPeekOutOfRange(t *testing.T) {
	s := newPooledStack(4)
	s.PushUint64(1)
	if _, err := s.Peek(1); !errors.Is(err, ErrStackUnderflow) {
		t.Fatal("peek past depth succeeded")
	}
	if _, err := s.Peek(-1); !errors.Is(err, ErrStackUnderflow) {
		t.Fatal("negative peek succeeded")
	}
}

// --- memory ----------------------------------------------------------------

func TestMemoryWordAlignment(t *testing.T) {
	m := newPooledMemory(0)
	if err := m.Expand(0, 1); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 32 {
		t.Fatalf("len %d, want 32 (word aligned)", m.Len())
	}
	if err := m.Expand(33, 1); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 64 {
		t.Fatalf("len %d, want 64", m.Len())
	}
}

func TestMemoryCap(t *testing.T) {
	m := newPooledMemory(64)
	if err := m.Expand(0, 64); err != nil {
		t.Fatal(err)
	}
	if err := m.Expand(64, 1); !errors.Is(err, ErrMemoryLimit) {
		t.Fatal("cap not enforced")
	}
	// Overflowing offset+size must not wrap.
	if err := m.Expand(^uint64(0), 2); !errors.Is(err, ErrMemoryLimit) {
		t.Fatal("offset overflow not detected")
	}
}

func TestMemorySetGetWord(t *testing.T) {
	m := newPooledMemory(0)
	w := mustHex("0xdeadbeefcafebabe")
	if err := m.SetWord(32, w); err != nil {
		t.Fatal(err)
	}
	var got uint256.Int
	if err := m.GetWord(32, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Eq(w) {
		t.Fatalf("got %s", &got)
	}
	// Zero-size reads/copies don't expand.
	before := m.Len()
	if _, err := m.GetCopy(1000, 0); err != nil {
		t.Fatal(err)
	}
	if m.Len() != before {
		t.Fatal("zero-size op expanded memory")
	}
}

func TestMemoryPeakTracking(t *testing.T) {
	m := newPooledMemory(0)
	m.Expand(0, 100)
	m.Expand(0, 10) // smaller: no change
	if m.Peak() != 128 {
		t.Fatalf("peak %d, want 128", m.Peak())
	}
}

func TestMemoryViewAliasesUntilExpand(t *testing.T) {
	m := newPooledMemory(0)
	m.Set(0, []byte{1, 2, 3})
	view, err := m.View(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if view[0] != 1 {
		t.Fatal("view wrong")
	}
	cp, _ := m.GetCopy(0, 3)
	cp[0] = 99
	v2, _ := m.View(0, 3)
	if v2[0] == 99 {
		t.Fatal("GetCopy aliased memory")
	}
}

// --- state snapshots --------------------------------------------------------

func TestMemStateSnapshotRevert(t *testing.T) {
	s := NewMemState()
	a := types.MustHexToAddress("0x00000000000000000000000000000000000000a1")
	s.AddBalance(a, uint256.NewInt(100))
	s.SetState(a, uint256.NewInt(1), uint256.NewInt(11))

	snap := s.Snapshot()
	s.AddBalance(a, uint256.NewInt(900))
	s.SetState(a, uint256.NewInt(1), uint256.NewInt(22))
	s.SetCode(a, []byte{1, 2, 3})
	s.AddLog(Log{Address: a})

	s.RevertToSnapshot(snap)
	if got := s.Balance(a); got.Uint64() != 100 {
		t.Fatalf("balance %s", got.Dec())
	}
	if got := s.GetState(a, uint256.NewInt(1)); got.Uint64() != 11 {
		t.Fatalf("storage %s", got.Dec())
	}
	if len(s.Code(a)) != 0 {
		t.Fatal("code survived revert")
	}
	if len(s.Logs()) != 0 {
		t.Fatal("logs survived revert")
	}
}

func TestMemStateNestedSnapshots(t *testing.T) {
	s := NewMemState()
	a := types.MustHexToAddress("0x00000000000000000000000000000000000000a2")

	s.AddBalance(a, uint256.NewInt(1))
	s1 := s.Snapshot()
	s.AddBalance(a, uint256.NewInt(10))
	s2 := s.Snapshot()
	s.AddBalance(a, uint256.NewInt(100))

	s.RevertToSnapshot(s2)
	if got := s.Balance(a); got.Uint64() != 11 {
		t.Fatalf("after inner revert: %s", got.Dec())
	}
	s.RevertToSnapshot(s1)
	if got := s.Balance(a); got.Uint64() != 1 {
		t.Fatalf("after outer revert: %s", got.Dec())
	}
}

func TestMemStateDiscardSnapshot(t *testing.T) {
	s := NewMemState()
	a := types.MustHexToAddress("0x00000000000000000000000000000000000000a3")
	id := s.Snapshot()
	s.AddBalance(a, uint256.NewInt(5))
	s.DiscardSnapshot(id)
	if got := s.Balance(a); got.Uint64() != 5 {
		t.Fatalf("discard lost changes: %s", got.Dec())
	}
	// Reverting to a discarded snapshot is a snapshot-discipline bug
	// and panics under the strict journal semantics.
	assertPanics(t, func() { s.RevertToSnapshot(id) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestMemStateSelfDestructAndRecreate(t *testing.T) {
	s := NewMemState()
	a := types.MustHexToAddress("0x00000000000000000000000000000000000000a4")
	b := types.MustHexToAddress("0x00000000000000000000000000000000000000a5")
	s.AddBalance(a, uint256.NewInt(500))
	s.SetCode(a, []byte{0xfe})
	s.SetState(a, uint256.NewInt(0), uint256.NewInt(9))

	s.SelfDestruct(a, b)
	if got := s.Balance(b); got.Uint64() != 500 {
		t.Fatalf("beneficiary %s", got.Dec())
	}
	if s.Exists(a) {
		t.Fatal("dead account exists")
	}
	if got := s.GetState(a, uint256.NewInt(0)); !got.IsZero() {
		t.Fatal("dead account storage visible")
	}
	// Re-created account starts fresh.
	s.AddBalance(a, uint256.NewInt(1))
	if got := s.GetState(a, uint256.NewInt(0)); !got.IsZero() {
		t.Fatal("recreated account inherited storage")
	}
}

func TestMemStateSelfDestructToSelfBurns(t *testing.T) {
	s := NewMemState()
	a := types.MustHexToAddress("0x00000000000000000000000000000000000000a6")
	s.AddBalance(a, uint256.NewInt(500))
	s.SelfDestruct(a, a)
	if got := s.Balance(a); !got.IsZero() {
		t.Fatalf("self-beneficiary kept %s", got.Dec())
	}
}

func TestStorageSlotsCountsLiveOnly(t *testing.T) {
	s := NewMemState()
	a := types.MustHexToAddress("0x00000000000000000000000000000000000000a7")
	s.SetState(a, uint256.NewInt(1), uint256.NewInt(1))
	s.SetState(a, uint256.NewInt(2), uint256.NewInt(1))
	if s.StorageSlots(a) != 2 {
		t.Fatalf("slots %d", s.StorageSlots(a))
	}
	// Zeroing deletes.
	s.SetState(a, uint256.NewInt(1), uint256.NewInt(0))
	if s.StorageSlots(a) != 1 {
		t.Fatalf("slots after delete %d", s.StorageSlots(a))
	}
	keys := s.StorageKeys(a)
	if len(keys) != 1 || keys[0].Uint64() != 2 {
		t.Fatalf("keys %v", keys)
	}
}

// --- gas pool ---------------------------------------------------------------

func TestGasPoolMetering(t *testing.T) {
	g := newGasPool(100, true)
	if err := g.consume(60); err != nil {
		t.Fatal(err)
	}
	if err := g.consume(50); !errors.Is(err, ErrOutOfGas) {
		t.Fatal("over-consumption allowed")
	}
	if g.used != 60 {
		t.Fatalf("used %d", g.used)
	}
}

func TestGasPoolUnmetered(t *testing.T) {
	g := newGasPool(0, false)
	for i := 0; i < 100; i++ {
		if err := g.consume(1 << 40); err != nil {
			t.Fatal("unmetered pool errored")
		}
	}
}

func TestGasMemoryQuadratic(t *testing.T) {
	g := newGasPool(1_000_000, true)
	if err := g.chargeMemory(0, 32); err != nil {
		t.Fatal(err)
	}
	small := g.used
	g2 := newGasPool(10_000_000, true)
	if err := g2.chargeMemory(0, 32*1024); err != nil {
		t.Fatal(err)
	}
	big := g2.used
	// 1024 words costs much more than 1024x one word's fee (quadratic
	// term kicks in).
	if big <= small*1024 {
		t.Fatalf("memory gas not superlinear: %d vs %d", big, small)
	}
	// Re-charging a covered range is free.
	used := g2.used
	if err := g2.chargeMemory(0, 1024); err != nil {
		t.Fatal(err)
	}
	if g2.used != used {
		t.Fatal("covered range re-charged")
	}
}

// --- precompiles --------------------------------------------------------------

func TestECRecoverPrecompile(t *testing.T) {
	key := secp256k1.DeterministicKey("precompile")
	digest := types.HashData([]byte("input"))
	sig, err := key.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	raw := sig.Serialize()

	input := make([]byte, 128)
	copy(input[0:32], digest[:])
	input[63] = raw[64] + 27 // v as 27/28
	copy(input[64:96], raw[0:32])
	copy(input[96:128], raw[32:64])

	out := runPrecompile(PrecompileECRecover, input)
	if len(out) != 32 {
		t.Fatalf("output %d bytes", len(out))
	}
	want := key.PublicKey.Address()
	if types.BytesToAddress(out[12:]) != want {
		t.Fatalf("recovered %x, want %s", out[12:], want)
	}

	// v in {0,1} form works too.
	input[63] = raw[64]
	out = runPrecompile(PrecompileECRecover, input)
	if types.BytesToAddress(out[12:]) != want {
		t.Fatal("v=0/1 form failed")
	}

	// Garbage v yields empty output, not an error.
	input[63] = 9
	if out := runPrecompile(PrecompileECRecover, input); len(out) != 0 {
		t.Fatal("bad v recovered something")
	}
	// Truncated input is zero-padded, failing recovery gracefully.
	if out := runPrecompile(PrecompileECRecover, input[:40]); len(out) != 0 {
		t.Fatal("truncated input recovered something")
	}
}

// TestHighSTwin pins the one high-s rule (secp256k1 package comment):
// low-s is enforced where signatures enter — ParseSignature — and nowhere
// in the math, because ECRECOVER must accept high-s as Ethereum's does.
// The twin (r, N-s, v^1) of a valid signature is the same authorisation.
func TestHighSTwin(t *testing.T) {
	key := secp256k1.DeterministicKey("high-s twin")
	want := key.PublicKey.Address()
	digest := types.HashData([]byte("one authorisation, two encodings"))
	sig, err := key.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	var s uint256.Int
	s.SetBytes(sig.S[:])
	n := mustHex("0xfffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
	twin := &secp256k1.Signature{R: sig.R, S: s.Sub(n, &s).Bytes32(), V: sig.V ^ 1}

	if got, err := secp256k1.RecoverAddress(digest, twin); err != nil || got != want {
		t.Fatalf("twin recovered %s, %v; want %s", got, err, want)
	}
	if !secp256k1.Verify(&key.PublicKey, digest, twin) {
		t.Fatal("twin does not verify")
	}
	input := make([]byte, 128)
	copy(input[0:32], digest[:])
	input[63] = twin.V + 27
	copy(input[64:96], twin.R[:])
	copy(input[96:128], twin.S[:])
	if out := runPrecompile(PrecompileECRecover, input); len(out) != 32 || types.BytesToAddress(out[12:]) != want {
		t.Fatalf("precompile returned %x for the twin, want %s", out, want)
	}
	if _, err := secp256k1.ParseSignature(twin.Serialize()); !errors.Is(err, secp256k1.ErrInvalidSignature) {
		t.Fatalf("ParseSignature accepted the high-s twin: %v", err)
	}
	if _, err := secp256k1.ParseSignature(sig.Serialize()); err != nil {
		t.Fatalf("ParseSignature refused the low-s original: %v", err)
	}
}

func TestSHA256AndIdentityPrecompiles(t *testing.T) {
	out := runPrecompile(PrecompileSHA256, []byte("abc"))
	// SHA-256("abc") well-known vector.
	if out[0] != 0xba || out[1] != 0x78 {
		t.Fatalf("sha256 wrong: %x", out[:4])
	}
	data := []byte{1, 2, 3, 4}
	id := runPrecompile(PrecompileIdentity, data)
	if string(id) != string(data) {
		t.Fatal("identity mangled data")
	}
	data[0] = 9
	if id[0] == 9 {
		t.Fatal("identity aliased input")
	}
}

func TestPrecompileGasSchedule(t *testing.T) {
	if precompileGas(PrecompileECRecover, 128) != 3000 {
		t.Fatal("ecrecover gas")
	}
	if precompileGas(PrecompileSHA256, 64) != 60+12*2 {
		t.Fatal("sha256 gas")
	}
	if precompileGas(PrecompileIdentity, 32) != 15+3 {
		t.Fatal("identity gas")
	}
}

// --- interpreter invariants ---------------------------------------------------

// TestStackNeverExceedsLimitQuick executes random bytecode and asserts
// the stack high-water mark never exceeds the configured limit,
// whatever garbage runs.
func TestStackNeverExceedsLimitQuick(t *testing.T) {
	caller := types.MustHexToAddress("0x00000000000000000000000000000000000000c1")
	target := types.MustHexToAddress("0x00000000000000000000000000000000000000c2")
	f := func(code []byte) bool {
		if len(code) > 512 {
			code = code[:512]
		}
		state := NewMemState()
		state.SetCode(target, code)
		cfg := TinyConfig()
		cfg.StepLimit = 20_000
		vm := New(cfg, state)
		res := vm.Call(caller, target, nil, uint256.NewInt(0), 0)
		return res.Stats.MaxStackDepth <= cfg.StackLimit &&
			res.Stats.PeakMemory <= cfg.MemoryLimit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomBytecodeDeterministic runs random code twice and asserts
// identical outcomes (the simulation's reproducibility invariant).
func TestRandomBytecodeDeterministic(t *testing.T) {
	caller := types.MustHexToAddress("0x00000000000000000000000000000000000000c3")
	target := types.MustHexToAddress("0x00000000000000000000000000000000000000c4")
	f := func(code []byte) bool {
		if len(code) > 256 {
			code = code[:256]
		}
		run := func() (*ExecResult, int) {
			state := NewMemState()
			state.SetCode(target, code)
			cfg := TinyConfig()
			cfg.StepLimit = 10_000
			vm := New(cfg, state)
			r := vm.Call(caller, target, nil, uint256.NewInt(0), 0)
			return r, state.StorageSlots(target)
		}
		r1, s1 := run()
		r2, s2 := run()
		if (r1.Err == nil) != (r2.Err == nil) {
			return false
		}
		if r1.Stats.Steps != r2.Stats.Steps || s1 != s2 {
			return false
		}
		return string(r1.ReturnData) == string(r2.ReturnData)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// mustHex parses a hex fixture.
func mustHex(s string) *uint256.Int {
	b, err := hex.DecodeString(strings.TrimPrefix(s, "0x"))
	if err != nil {
		panic(err)
	}
	return new(uint256.Int).SetBytes(b)
}
