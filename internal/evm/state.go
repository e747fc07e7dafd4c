package evm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"tinyevm/internal/keccak"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// Log is one LOG0..LOG4 emission.
type Log struct {
	// Address is the contract that emitted the log.
	Address types.Address
	// Topics are the indexed LOG topics (0 to 4).
	Topics []types.Hash
	// Data is the unindexed payload.
	Data []byte
}

// StateDB is the account/state backend the interpreter mutates. Both the
// simulated main chain and the on-device state (side-chain storage)
// implement it through MemState.
type StateDB interface {
	// Exists reports whether the account exists (has balance, code or
	// storage).
	Exists(addr types.Address) bool
	// CreateAccount ensures the account exists.
	CreateAccount(addr types.Address)

	// Balance returns the account balance in wei.
	Balance(addr types.Address) *uint256.Int
	// AddBalance credits the account.
	AddBalance(addr types.Address, amount *uint256.Int)
	// SubBalance debits the account; it returns ErrInsufficientBalance
	// when the balance is too small.
	SubBalance(addr types.Address, amount *uint256.Int) error

	// Nonce returns the account nonce (used for CREATE addressing).
	Nonce(addr types.Address) uint64
	// SetNonce sets the account nonce.
	SetNonce(addr types.Address, nonce uint64)

	// Code returns the account's runtime bytecode.
	Code(addr types.Address) []byte
	// SetCode installs runtime bytecode on the account.
	SetCode(addr types.Address, code []byte)
	// CodeHash returns the Keccak-256 of the account code.
	CodeHash(addr types.Address) types.Hash

	// GetState reads one storage slot.
	GetState(addr types.Address, key *uint256.Int) uint256.Int
	// SetState writes one storage slot.
	SetState(addr types.Address, key, val *uint256.Int)
	// StorageSlots returns the number of live (non-zero) storage slots
	// of the account; TinyEVM uses it to enforce its 1 KB storage cap.
	StorageSlots(addr types.Address) int

	// SelfDestruct removes the contract and credits the beneficiary.
	SelfDestruct(addr, beneficiary types.Address)

	// AddLog records a LOG emission.
	AddLog(log Log)
	// Logs returns all recorded logs.
	Logs() []Log

	// Snapshot captures the current state; RevertToSnapshot rolls back
	// to it and DiscardSnapshot releases it while keeping all changes.
	// Both are strict: passing an id that is not outstanding (never
	// issued, already reverted or already discarded) panics.
	Snapshot() int
	RevertToSnapshot(id int)
	DiscardSnapshot(id int)
}

// account is one account record inside MemState.
type account struct {
	balance uint256.Int
	nonce   uint64
	code    []byte
	storage map[uint256.Int]uint256.Int
	// dead marks accounts removed by SELFDESTRUCT.
	dead bool
	// codeHash memoizes Keccak-256(code); it is computed eagerly in
	// SetCode so concurrent readers (engine views) never race on it.
	codeHash   types.Hash
	codeHashed bool
}

// MemState is an in-memory StateDB with journaled snapshots: while a
// snapshot is outstanding every mutation appends one reverting entry,
// so RevertToSnapshot costs O(writes-since-snapshot) instead of the
// deep-copy O(state) the previous implementation paid on every call
// frame. It is used both as the simulated main-chain state and as the
// on-device local state holding the template copy and payment-channel
// contracts.
//
// MemState is not safe for concurrent use; the simulation is
// single-threaded per chain/device, with any cross-device concurrency
// handled above this layer.
type MemState struct {
	accounts map[types.Address]*account
	logs     []Log

	// journal holds one reverting entry per mutation made while a
	// snapshot is outstanding; ledger maps snapshot ids to journal
	// watermarks (see journal.go).
	journal []journalEntry
	ledger  SnapshotLedger

	// dirty, when non-nil, accumulates every address whose account
	// record was mutated since the last TakeDirty — the per-block delta
	// the chain's MST commitment folds in at seal time. Nil (the
	// default) disables tracking entirely.
	dirty map[types.Address]struct{}

	// analysisMu guards the code-hash-keyed JUMPDEST cache below, the
	// deliberately concurrency-safe piece of MemState: the parallel
	// engine's workers execute on detached overlay views but share the
	// cache through them, so repeated executions of the same contract —
	// from any worker — stop re-scanning its bytecode.
	analysisMu sync.Mutex
	// analysis is the JUMPDEST bitmap cache, size-capped LRU.
	analysis *lruCache
}

// maxAnalysisEntries bounds the JUMPDEST cache; one entry per distinct
// code blob, far above any realistic hot contract population, but a
// hard ceiling so a daemon serving millions of distinct contracts
// cannot grow the cache without bound.
const maxAnalysisEntries = 4096

var (
	_ StateDB       = (*MemState)(nil)
	_ JumpDestCache = (*MemState)(nil)
)

// NewMemState returns an empty state.
func NewMemState() *MemState {
	return &MemState{accounts: make(map[types.Address]*account)}
}

func (s *MemState) acct(addr types.Address) *account {
	if a, ok := s.accounts[addr]; ok && !a.dead {
		return a
	}
	return nil
}

func (s *MemState) acctOrCreate(addr types.Address) *account {
	s.markDirty(addr)
	if a, ok := s.accounts[addr]; ok {
		if a.dead {
			// Re-created after self-destruct in the same transaction:
			// fresh account.
			if s.journaling() {
				s.journal = append(s.journal, journalEntry{kind: journalResurrect, addr: addr, prevAcct: a})
			}
			a = &account{}
			s.accounts[addr] = a
		}
		return a
	}
	if s.journaling() {
		s.journal = append(s.journal, journalEntry{kind: journalCreate, addr: addr})
	}
	a := &account{}
	s.accounts[addr] = a
	return a
}

// markDirty records addr in the persistence delta when tracking is on.
func (s *MemState) markDirty(addr types.Address) {
	if s.dirty != nil {
		s.dirty[addr] = struct{}{}
	}
}

// EnableDirtyTracking starts accumulating the addresses of mutated
// accounts; the chain's MST commitment drains them with TakeDirty at
// block seals. Tracking cannot be disabled once enabled.
func (s *MemState) EnableDirtyTracking() {
	if s.dirty == nil {
		s.dirty = make(map[types.Address]struct{})
	}
}

// TakeDirty drains and returns the addresses mutated since the last
// call, in sorted order. It returns nil when tracking is disabled.
func (s *MemState) TakeDirty() []types.Address {
	if len(s.dirty) == 0 {
		return nil
	}
	addrs := make([]types.Address, 0, len(s.dirty))
	for addr := range s.dirty {
		addrs = append(addrs, addr)
	}
	clear(s.dirty)
	sort.Slice(addrs, func(i, j int) bool {
		return string(addrs[i][:]) < string(addrs[j][:])
	})
	return addrs
}

// ClearDirty drops the pending delta without materializing it — the
// cheap path for consumers that only need the set reset (a checkpoint
// restore, whose snapshot overwrite is no block's delta).
func (s *MemState) ClearDirty() { clear(s.dirty) }

// Exists implements StateDB.
func (s *MemState) Exists(addr types.Address) bool {
	a := s.acct(addr)
	if a == nil {
		return false
	}
	return !a.balance.IsZero() || a.nonce > 0 || len(a.code) > 0 || len(a.storage) > 0
}

// CreateAccount implements StateDB.
func (s *MemState) CreateAccount(addr types.Address) { s.acctOrCreate(addr) }

// Balance implements StateDB.
func (s *MemState) Balance(addr types.Address) *uint256.Int {
	if a := s.acct(addr); a != nil {
		return a.balance.Clone()
	}
	return uint256.NewInt(0)
}

// AddBalance implements StateDB.
func (s *MemState) AddBalance(addr types.Address, amount *uint256.Int) {
	a := s.acctOrCreate(addr)
	if s.journaling() {
		s.journal = append(s.journal, journalEntry{kind: journalBalance, addr: addr, prevWord: a.balance})
	}
	a.balance.Add(&a.balance, amount)
}

// SetBalance sets the account balance to an absolute value. It is not
// part of StateDB — the interpreter only moves value — but the parallel
// engine needs it to write back a speculative view's final balances.
func (s *MemState) SetBalance(addr types.Address, amount *uint256.Int) {
	a := s.acctOrCreate(addr)
	if s.journaling() {
		s.journal = append(s.journal, journalEntry{kind: journalBalance, addr: addr, prevWord: a.balance})
	}
	a.balance.Set(amount)
}

// SubBalance implements StateDB.
func (s *MemState) SubBalance(addr types.Address, amount *uint256.Int) error {
	a := s.acctOrCreate(addr)
	if a.balance.Lt(amount) {
		return ErrInsufficientBalance
	}
	if s.journaling() {
		s.journal = append(s.journal, journalEntry{kind: journalBalance, addr: addr, prevWord: a.balance})
	}
	a.balance.Sub(&a.balance, amount)
	return nil
}

// Nonce implements StateDB.
func (s *MemState) Nonce(addr types.Address) uint64 {
	if a := s.acct(addr); a != nil {
		return a.nonce
	}
	return 0
}

// SetNonce implements StateDB.
func (s *MemState) SetNonce(addr types.Address, nonce uint64) {
	a := s.acctOrCreate(addr)
	if s.journaling() {
		s.journal = append(s.journal, journalEntry{kind: journalNonce, addr: addr, prevNonce: a.nonce})
	}
	a.nonce = nonce
}

// Code implements StateDB.
func (s *MemState) Code(addr types.Address) []byte {
	if a := s.acct(addr); a != nil {
		return a.code
	}
	return nil
}

// SetCode implements StateDB. The code hash is memoized eagerly:
// mutation only happens single-threaded (speculative engine views
// buffer their writes), so readers can use the memo without locking.
func (s *MemState) SetCode(addr types.Address, code []byte) {
	cp := make([]byte, len(code))
	copy(cp, code)
	a := s.acctOrCreate(addr)
	if s.journaling() {
		s.journal = append(s.journal, journalEntry{
			kind: journalCode, addr: addr,
			prevCode: a.code, prevCodeHash: a.codeHash, prevCodeHashed: a.codeHashed,
		})
	}
	a.code = cp
	a.codeHash = types.HashData(cp)
	a.codeHashed = true
}

// CodeHash implements StateDB.
func (s *MemState) CodeHash(addr types.Address) types.Hash {
	a := s.acct(addr)
	if a == nil {
		return types.Hash{}
	}
	if a.codeHashed {
		return a.codeHash
	}
	// Accounts that never saw SetCode hash their (empty) code on the
	// fly; deliberately not memoized here so the read stays pure under
	// concurrent engine views.
	return types.HashData(a.code)
}

// JumpDestAnalysis implements JumpDestCache: it returns the JUMPDEST
// bitmap for code, computing it at most once per distinct code hash.
// Unlike the rest of MemState it is safe for concurrent use — engine
// workers share it through their overlay views. The cache is LRU-capped
// at maxAnalysisEntries; an evicted analysis is simply recomputed on
// next use.
func (s *MemState) JumpDestAnalysis(codeHash types.Hash, code []byte) JumpDestBitmap {
	s.analysisMu.Lock()
	if s.analysis != nil {
		if b, ok := s.analysis.get(codeHash); ok {
			s.analysisMu.Unlock()
			return b
		}
	}
	s.analysisMu.Unlock()

	// Analyze outside the lock; a concurrent duplicate analysis of the
	// same code is harmless (identical bitmaps) and cheaper than
	// holding the mutex across a bytecode scan.
	b := analyzeJumpDests(code)

	s.analysisMu.Lock()
	defer s.analysisMu.Unlock()
	if s.analysis == nil {
		s.analysis = newLRUCache(maxAnalysisEntries)
	} else if cached, ok := s.analysis.get(codeHash); ok {
		return cached
	}
	s.analysis.put(codeHash, b)
	return b
}

// GetState implements StateDB.
func (s *MemState) GetState(addr types.Address, key *uint256.Int) uint256.Int {
	if a := s.acct(addr); a != nil && a.storage != nil {
		return a.storage[*key]
	}
	return uint256.Int{}
}

// SetState implements StateDB. Writing zero deletes the slot, so
// StorageSlots counts only live entries.
func (s *MemState) SetState(addr types.Address, key, val *uint256.Int) {
	a := s.acctOrCreate(addr)
	if s.journaling() {
		prev, present := a.storage[*key]
		s.journal = append(s.journal, journalEntry{
			kind: journalStorage, addr: addr,
			key: *key, prevWord: prev, prevPresent: present,
		})
	}
	if val.IsZero() {
		if a.storage != nil {
			delete(a.storage, *key)
		}
		return
	}
	if a.storage == nil {
		a.storage = make(map[uint256.Int]uint256.Int)
	}
	a.storage[*key] = *val
}

// StorageSlots implements StateDB.
func (s *MemState) StorageSlots(addr types.Address) int {
	if a := s.acct(addr); a != nil {
		return len(a.storage)
	}
	return 0
}

// StorageKeys returns the live slot keys of the account in sorted order;
// used by the side-chain log inspection and tests.
func (s *MemState) StorageKeys(addr types.Address) []uint256.Int {
	a := s.acct(addr)
	if a == nil {
		return nil
	}
	keys := make([]uint256.Int, 0, len(a.storage))
	for k := range a.storage {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ki, kj := keys[i], keys[j]
		return ki.Lt(&kj)
	})
	return keys
}

// Addresses returns the addresses of all live accounts in sorted order.
func (s *MemState) Addresses() []types.Address {
	addrs := make([]types.Address, 0, len(s.accounts))
	for addr, a := range s.accounts {
		if a.dead {
			continue
		}
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return string(addrs[i][:]) < string(addrs[j][:])
	})
	return addrs
}

// Digest returns a deterministic fingerprint of the full live state:
// every account's balance, nonce, code and sorted storage, hashed in
// address order. Accounts that are materialized but observationally
// empty (Exists is false — e.g. the record left behind by a failed
// debit) are skipped, so two observationally identical states always
// digest equal; the parallel engine's tests use this to prove
// speculative execution converges to the serial result.
func (s *MemState) Digest() types.Hash {
	var h keccak.Hasher
	for _, addr := range s.Addresses() {
		if !s.Exists(addr) {
			continue
		}
		s.writeAccount(&h, addr)
	}
	return types.Hash(h.Digest())
}

// writeAccount streams one live account's canonical encoding — the
// exact per-account unit Digest hashes — into w. Keeping this shared
// between Digest and AccountDigest pins the two to the same layout, so
// the MST state commitment's leaves and the legacy digest can never
// disagree about what an account's bytes are.
func (s *MemState) writeAccount(w *keccak.Hasher, addr types.Address) {
	a := s.accounts[addr]
	var buf [8]byte
	w.Write(addr[:])
	bal := a.balance.Bytes32()
	w.Write(bal[:])
	binary.BigEndian.PutUint64(buf[:], a.nonce)
	w.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(len(a.code)))
	w.Write(buf[:])
	w.Write(a.code)
	keys := s.StorageKeys(addr)
	for i := range keys {
		k := keys[i].Bytes32()
		w.Write(k[:])
		v := a.storage[keys[i]]
		vb := v.Bytes32()
		w.Write(vb[:])
	}
}

// AccountDigest returns the keccak hash of one live account's canonical
// encoding — the per-account unit of Digest, used by the chain as the
// account's MST leaf value. ok is false when the account does not
// observationally exist (the account would be skipped by Digest).
func (s *MemState) AccountDigest(addr types.Address) (types.Hash, bool) {
	if !s.Exists(addr) {
		return types.Hash{}, false
	}
	var h keccak.Hasher
	s.writeAccount(&h, addr)
	return types.Hash(h.Digest()), true
}

// Reset drops every account, returning the state to empty. The code
// caches and the dirty-tracking configuration survive; any pending
// dirty set is cleared. Checkpoint recovery uses it to pour a snapshot
// into a state that already holds freshly initialized accounts —
// restoring over a wiped state cannot leave stale accounts or storage
// slots behind.
func (s *MemState) Reset() {
	s.accounts = make(map[types.Address]*account)
	if s.dirty != nil {
		clear(s.dirty)
	}
}

// SelfDestruct implements StateDB.
func (s *MemState) SelfDestruct(addr, beneficiary types.Address) {
	a := s.acct(addr)
	if a == nil {
		return
	}
	s.markDirty(addr)
	if beneficiary != addr {
		s.AddBalance(beneficiary, &a.balance)
	}
	if s.journaling() {
		s.journal = append(s.journal, journalEntry{kind: journalDestruct, addr: addr, prevWord: a.balance})
	}
	a.balance.Clear()
	a.dead = true
}

// AddLog implements StateDB.
func (s *MemState) AddLog(log Log) {
	if s.journaling() {
		s.journal = append(s.journal, journalEntry{kind: journalLog})
	}
	s.logs = append(s.logs, log)
}

// Logs implements StateDB.
func (s *MemState) Logs() []Log { return s.logs }

// Snapshot implements StateDB by recording the current journal
// watermark; subsequent mutations journal reverting entries.
func (s *MemState) Snapshot() int {
	return s.ledger.Snapshot(len(s.journal))
}

// RevertToSnapshot implements StateDB: it undoes every journaled
// mutation made since the snapshot was taken, newest first. The id must
// be outstanding; reverting an unknown, already-reverted or discarded
// id panics (a snapshot-discipline bug in the caller).
func (s *MemState) RevertToSnapshot(id int) {
	watermark, ok := s.ledger.Revert(id)
	if !ok {
		panic(fmt.Sprintf("evm: RevertToSnapshot(%d): snapshot not outstanding", id))
	}
	s.revertJournal(watermark)
}

// DiscardSnapshot implements StateDB: it releases a snapshot taken with
// Snapshot while keeping all changes. Any outstanding id may be
// discarded, in any order — discarding an inner snapshot keeps outer
// ones revertible (the journal is only trimmed once no snapshot
// remains, so nested discards no longer leak). Discarding an id that is
// not outstanding panics.
func (s *MemState) DiscardSnapshot(id int) {
	if !s.ledger.Discard(id) {
		panic(fmt.Sprintf("evm: DiscardSnapshot(%d): snapshot not outstanding", id))
	}
	if !s.ledger.Outstanding() {
		s.journal = s.journal[:0]
	}
}
