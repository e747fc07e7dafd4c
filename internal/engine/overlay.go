package engine

import (
	"fmt"
	"sort"

	"tinyevm/internal/evm"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// field identifies one conflict-tracked component of an account.
type field uint8

const (
	fieldBalance field = iota
	fieldNonce
	fieldCode
	fieldSlot
)

// stateKey names one unit of state for conflict detection: an account
// field, or (for fieldSlot) one storage slot.
type stateKey struct {
	addr  types.Address
	field field
	slot  uint256.Int
}

func balanceKey(addr types.Address) stateKey { return stateKey{addr: addr, field: fieldBalance} }
func nonceKey(addr types.Address) stateKey   { return stateKey{addr: addr, field: fieldNonce} }
func codeKey(addr types.Address) stateKey    { return stateKey{addr: addr, field: fieldCode} }
func slotKey(addr types.Address, slot *uint256.Int) stateKey {
	return stateKey{addr: addr, field: fieldSlot, slot: *slot}
}

// accessSet records what a speculative execution read and wrote, at the
// granularity conflict detection needs. Writes are split into absolute
// writes and commutative balance deltas: blind AddBalance credits (gas
// payments to the coinbase, value transfers to untouched recipients)
// commute with each other, so two groups may delta-credit the same
// account without conflicting — but a delta against a read or an
// absolute write of the same key is a conflict.
type accessSet struct {
	reads       map[stateKey]struct{}
	writesAbs   map[stateKey]struct{}
	writesDelta map[stateKey]struct{}

	// Per-address storage summaries, for whole-storage operations:
	// StorageSlots/Exists read the storage *shape*; SELFDESTRUCT wipes
	// the whole storage.
	readStorage     map[types.Address]struct{}
	writeStorage    map[types.Address]struct{}
	readAllStorage  map[types.Address]struct{}
	writeAllStorage map[types.Address]struct{}
}

func newAccessSet() *accessSet {
	return &accessSet{
		reads:           make(map[stateKey]struct{}),
		writesAbs:       make(map[stateKey]struct{}),
		writesDelta:     make(map[stateKey]struct{}),
		readStorage:     make(map[types.Address]struct{}),
		writeStorage:    make(map[types.Address]struct{}),
		readAllStorage:  make(map[types.Address]struct{}),
		writeAllStorage: make(map[types.Address]struct{}),
	}
}

// merge folds other into a (used to build the union of all valid
// groups' access sets for fallback validation).
func (a *accessSet) merge(other *accessSet) {
	for k := range other.reads {
		a.reads[k] = struct{}{}
	}
	for k := range other.writesAbs {
		a.writesAbs[k] = struct{}{}
	}
	for k := range other.writesDelta {
		a.writesDelta[k] = struct{}{}
	}
	for k := range other.readStorage {
		a.readStorage[k] = struct{}{}
	}
	for k := range other.writeStorage {
		a.writeStorage[k] = struct{}{}
	}
	for k := range other.readAllStorage {
		a.readAllStorage[k] = struct{}{}
	}
	for k := range other.writeAllStorage {
		a.writeAllStorage[k] = struct{}{}
	}
}

// conflictsOneWay reports whether a's writes interfere with b's
// accesses. Callers must also check the mirror direction; the full
// predicate is conflicts(a, b) || conflicts(b, a).
func conflictsOneWay(a, b *accessSet) bool {
	for k := range a.writesAbs {
		if _, ok := b.reads[k]; ok {
			return true
		}
		if _, ok := b.writesAbs[k]; ok {
			return true
		}
		if _, ok := b.writesDelta[k]; ok {
			return true
		}
	}
	for k := range a.writesDelta {
		if _, ok := b.reads[k]; ok {
			return true
		}
		if _, ok := b.writesAbs[k]; ok {
			return true
		}
	}
	for addr := range a.writeAllStorage {
		if _, ok := b.readStorage[addr]; ok {
			return true
		}
		if _, ok := b.writeStorage[addr]; ok {
			return true
		}
		if _, ok := b.readAllStorage[addr]; ok {
			return true
		}
	}
	for addr := range a.readAllStorage {
		if _, ok := b.writeStorage[addr]; ok {
			return true
		}
		if _, ok := b.writeAllStorage[addr]; ok {
			return true
		}
	}
	return false
}

// conflicts reports whether the two access sets cannot have executed in
// any serial order with identical results.
func conflicts(a, b *accessSet) bool {
	return conflictsOneWay(a, b) || conflictsOneWay(b, a)
}

// ovAccount is one account's overlay record inside a view.
//
// Known flags mean the overlay holds the authoritative value (loaded
// from base or locally written); Written flags mean the value must be
// written back at merge. A blind AddBalance before any load accumulates
// into balDelta without reading the base — the commutative fast path.
type ovAccount struct {
	balKnown   bool
	balWritten bool
	balance    uint256.Int
	balDelta   uint256.Int
	balDeltaOn bool

	nonceKnown   bool
	nonceWritten bool
	nonce        uint64

	codeKnown   bool
	codeWritten bool
	code        []byte
	// codeHash memoizes Keccak-256 of the live code for this account's
	// view; the EVM asks for it on every call-family opcode to key the
	// shared JUMPDEST cache. Views are single-goroutine, so lazy
	// memoization is safe here.
	codeHash   types.Hash
	codeHashOK bool

	// storage holds locally written slots (zero values mask base slots).
	storage map[uint256.Int]uint256.Int
	// wiped marks a SELFDESTRUCT: base storage and fields are masked;
	// Written flags set after the wipe indicate resurrection.
	wiped bool
	// touched marks operations that materialize the account record in
	// MemState (acctOrCreate): any write, including failed debits and
	// zero-value credits. A touched account is "live" for CodeHash
	// even when all its fields are zero, exactly like MemState.
	touched bool
}

func (a *ovAccount) clone() *ovAccount {
	c := *a
	if a.storage != nil {
		c.storage = make(map[uint256.Int]uint256.Int, len(a.storage))
		for k, v := range a.storage {
			c.storage[k] = v
		}
	}
	return &c
}

// view is a speculative StateDB overlaying a frozen base MemState. All
// writes buffer in the overlay; all base reads are recorded in the
// access set. After conflict detection the buffered writes are applied
// to the base with applyTo, or discarded.
//
// A view is used by one goroutine at a time; the base must not be
// mutated while any view over it is executing.
type view struct {
	base     *evm.MemState
	accounts map[types.Address]*ovAccount
	logs     []evm.Log
	access   *accessSet

	// journal holds one reverting entry per overlay mutation made while
	// a snapshot is outstanding — the same journal discipline as
	// MemState, so worker views stop deep-copying their overlay on
	// every call frame.
	journal []viewEntry
	ledger  evm.SnapshotLedger
}

// viewKind tags one overlay journal entry.
type viewKind uint8

const (
	// vjBalance restores the balance group (absolute value, pending
	// delta and their flags).
	vjBalance viewKind = iota
	// vjNonce restores the nonce group.
	vjNonce
	// vjCode restores the code group.
	vjCode
	// vjStorage restores one overlay storage slot (value, or absence).
	vjStorage
	// vjTouch restores the touched flag alone (CreateAccount).
	vjTouch
	// vjCreate deletes an overlay record materialized after the
	// snapshot.
	vjCreate
	// vjWipe restores the full pre-SELFDESTRUCT record.
	vjWipe
	// vjLog pops one appended log.
	vjLog
)

// viewEntry is one reverting overlay entry; a tagged union so the
// journal is a flat, allocation-amortized slice. Field-group entries
// also carry the touched flag: every mutator flips it, so each group
// restores the value it observed.
type viewEntry struct {
	kind viewKind
	addr types.Address

	prevBalance, prevDelta              uint256.Int
	prevDeltaOn, prevKnown, prevWritten bool

	prevNonce uint64

	prevCode   []byte
	prevHash   types.Hash
	prevHashOK bool

	key, prevVal uint256.Int
	prevPresent  bool

	prevTouched bool

	// prevAcct is the record clone a vjWipe restores.
	prevAcct *ovAccount
}

// journaling reports whether overlay mutations must be journaled.
func (v *view) journaling() bool { return v.ledger.Outstanding() }

// undo reverts one journal entry against the overlay.
func (v *view) undo(e *viewEntry) {
	switch e.kind {
	case vjBalance:
		a := v.accounts[e.addr]
		a.balance = e.prevBalance
		a.balDelta = e.prevDelta
		a.balDeltaOn = e.prevDeltaOn
		a.balKnown = e.prevKnown
		a.balWritten = e.prevWritten
		a.touched = e.prevTouched
	case vjNonce:
		a := v.accounts[e.addr]
		a.nonce = e.prevNonce
		a.nonceKnown = e.prevKnown
		a.nonceWritten = e.prevWritten
		a.touched = e.prevTouched
	case vjCode:
		a := v.accounts[e.addr]
		a.code = e.prevCode
		a.codeKnown = e.prevKnown
		a.codeWritten = e.prevWritten
		a.codeHash = e.prevHash
		a.codeHashOK = e.prevHashOK
		a.touched = e.prevTouched
	case vjStorage:
		a := v.accounts[e.addr]
		if e.prevPresent {
			if a.storage == nil {
				a.storage = make(map[uint256.Int]uint256.Int)
			}
			a.storage[e.key] = e.prevVal
		} else if a.storage != nil {
			delete(a.storage, e.key)
		}
		a.touched = e.prevTouched
	case vjTouch:
		v.accounts[e.addr].touched = e.prevTouched
	case vjCreate:
		delete(v.accounts, e.addr)
	case vjWipe:
		v.accounts[e.addr] = e.prevAcct
	case vjLog:
		v.logs = v.logs[:len(v.logs)-1]
	}
}

// journalBalance appends a balance-group entry for a.
func (v *view) journalBalance(addr types.Address, a *ovAccount) {
	if !v.journaling() {
		return
	}
	v.journal = append(v.journal, viewEntry{
		kind: vjBalance, addr: addr,
		prevBalance: a.balance, prevDelta: a.balDelta,
		prevDeltaOn: a.balDeltaOn, prevKnown: a.balKnown, prevWritten: a.balWritten,
		prevTouched: a.touched,
	})
}

var (
	_ evm.StateDB       = (*view)(nil)
	_ evm.JumpDestCache = (*view)(nil)
)

func newView(base *evm.MemState) *view {
	return &view{
		base:     base,
		accounts: make(map[types.Address]*ovAccount),
		access:   newAccessSet(),
	}
}

func (v *view) acct(addr types.Address) *ovAccount {
	a, ok := v.accounts[addr]
	if !ok {
		if v.journaling() {
			v.journal = append(v.journal, viewEntry{kind: vjCreate, addr: addr})
		}
		a = &ovAccount{}
		v.accounts[addr] = a
	}
	return a
}

// loadBalance makes the overlay balance authoritative, reading the base
// (and recording the read) unless a local write already decided it.
func (v *view) loadBalance(addr types.Address, a *ovAccount) {
	if a.balKnown {
		return
	}
	v.access.reads[balanceKey(addr)] = struct{}{}
	a.balance.Set(v.base.Balance(addr))
	if a.balDeltaOn {
		// Fold pending blind credits: the balance is now an absolute
		// value, so the write-back (and the conflict class) must be
		// absolute too.
		a.balance.Add(&a.balance, &a.balDelta)
		a.balWritten = true
		v.access.writesAbs[balanceKey(addr)] = struct{}{}
	}
	a.balKnown = true
}

// Exists implements StateDB, mirroring MemState's definition over the
// combined overlay+base account.
func (v *view) Exists(addr types.Address) bool {
	bal := v.Balance(addr)
	if !bal.IsZero() {
		return true
	}
	if v.Nonce(addr) > 0 {
		return true
	}
	if len(v.Code(addr)) > 0 {
		return true
	}
	return v.StorageSlots(addr) > 0
}

// CreateAccount implements StateDB.
func (v *view) CreateAccount(addr types.Address) {
	a := v.acct(addr)
	if v.journaling() {
		v.journal = append(v.journal, viewEntry{kind: vjTouch, addr: addr, prevTouched: a.touched})
	}
	a.touched = true
}

// Balance implements StateDB.
func (v *view) Balance(addr types.Address) *uint256.Int {
	a := v.acct(addr)
	v.loadBalance(addr, a)
	return a.balance.Clone()
}

// AddBalance implements StateDB. Credits to accounts whose balance was
// never observed stay commutative deltas; otherwise the write is
// absolute.
func (v *view) AddBalance(addr types.Address, amount *uint256.Int) {
	a := v.acct(addr)
	v.journalBalance(addr, a)
	a.touched = true
	if !a.balKnown {
		a.balDelta.Add(&a.balDelta, amount)
		a.balDeltaOn = true
		v.access.writesDelta[balanceKey(addr)] = struct{}{}
		return
	}
	a.balance.Add(&a.balance, amount)
	a.balWritten = true
	v.access.writesAbs[balanceKey(addr)] = struct{}{}
}

// SubBalance implements StateDB. Debits need the actual value (for the
// sufficiency check), so they always load.
func (v *view) SubBalance(addr types.Address, amount *uint256.Int) error {
	a := v.acct(addr)
	v.journalBalance(addr, a)
	a.touched = true
	v.loadBalance(addr, a)
	if a.balance.Lt(amount) {
		return evm.ErrInsufficientBalance
	}
	a.balance.Sub(&a.balance, amount)
	a.balWritten = true
	v.access.writesAbs[balanceKey(addr)] = struct{}{}
	return nil
}

// Nonce implements StateDB.
func (v *view) Nonce(addr types.Address) uint64 {
	a := v.acct(addr)
	if !a.nonceKnown {
		v.access.reads[nonceKey(addr)] = struct{}{}
		a.nonce = v.base.Nonce(addr)
		a.nonceKnown = true
	}
	return a.nonce
}

// SetNonce implements StateDB.
func (v *view) SetNonce(addr types.Address, nonce uint64) {
	a := v.acct(addr)
	if v.journaling() {
		v.journal = append(v.journal, viewEntry{
			kind: vjNonce, addr: addr,
			prevNonce: a.nonce, prevKnown: a.nonceKnown, prevWritten: a.nonceWritten,
			prevTouched: a.touched,
		})
	}
	a.touched = true
	a.nonce = nonce
	a.nonceKnown = true
	a.nonceWritten = true
	v.access.writesAbs[nonceKey(addr)] = struct{}{}
}

// Code implements StateDB.
func (v *view) Code(addr types.Address) []byte {
	a := v.acct(addr)
	if !a.codeKnown {
		v.access.reads[codeKey(addr)] = struct{}{}
		a.code = v.base.Code(addr) // immutable once set; share the slice
		a.codeKnown = true
	}
	return a.code
}

// SetCode implements StateDB.
func (v *view) SetCode(addr types.Address, code []byte) {
	cp := make([]byte, len(code))
	copy(cp, code)
	a := v.acct(addr)
	if v.journaling() {
		v.journal = append(v.journal, viewEntry{
			kind: vjCode, addr: addr,
			prevCode: a.code, prevKnown: a.codeKnown, prevWritten: a.codeWritten,
			prevHash: a.codeHash, prevHashOK: a.codeHashOK,
			prevTouched: a.touched,
		})
	}
	a.touched = true
	a.code = cp
	a.codeKnown = true
	a.codeWritten = true
	a.codeHash = types.HashData(cp)
	a.codeHashOK = true
	v.access.writesAbs[codeKey(addr)] = struct{}{}
}

// CodeHash implements StateDB, mirroring MemState exactly: a live
// account record hashes its code (keccak("") when empty); a missing or
// dead record hashes to zero. An account the overlay materialized
// (touched) is live even if the base never saw it.
func (v *view) CodeHash(addr types.Address) types.Hash {
	a := v.acct(addr)
	if a.wiped {
		if !a.touched {
			return types.Hash{} // dead, not resurrected
		}
		return types.HashData(a.code)
	}
	if a.touched {
		if !a.codeHashOK {
			a.codeHash = types.HashData(v.Code(addr))
			a.codeHashOK = true
		}
		return a.codeHash
	}
	// Untouched account: defer to the base, which distinguishes a
	// missing record (zero hash) from a live record with empty code.
	v.access.reads[codeKey(addr)] = struct{}{}
	return v.base.CodeHash(addr)
}

// JumpDestAnalysis implements evm.JumpDestCache by forwarding to the
// base state's shared, mutex-guarded cache: every engine worker reuses
// one JUMPDEST analysis per distinct contract code, instead of each
// view re-scanning the bytecode it executes.
func (v *view) JumpDestAnalysis(codeHash types.Hash, code []byte) evm.JumpDestBitmap {
	return v.base.JumpDestAnalysis(codeHash, code)
}

// GetState implements StateDB.
func (v *view) GetState(addr types.Address, key *uint256.Int) uint256.Int {
	a := v.acct(addr)
	if a.storage != nil {
		if val, ok := a.storage[*key]; ok {
			return val
		}
	}
	if a.wiped {
		return uint256.Int{}
	}
	v.access.reads[slotKey(addr, key)] = struct{}{}
	v.access.readStorage[addr] = struct{}{}
	return v.base.GetState(addr, key)
}

// SetState implements StateDB. Unlike MemState, zero writes are kept in
// the overlay (they mask live base slots); applyTo forwards them to
// MemState.SetState, which deletes.
func (v *view) SetState(addr types.Address, key, val *uint256.Int) {
	a := v.acct(addr)
	if v.journaling() {
		prev, present := a.storage[*key]
		v.journal = append(v.journal, viewEntry{
			kind: vjStorage, addr: addr,
			key: *key, prevVal: prev, prevPresent: present,
			prevTouched: a.touched,
		})
	}
	a.touched = true
	if a.storage == nil {
		a.storage = make(map[uint256.Int]uint256.Int)
	}
	a.storage[*key] = *val
	v.access.writesAbs[slotKey(addr, key)] = struct{}{}
	v.access.writeStorage[addr] = struct{}{}
}

// StorageSlots implements StateDB: the live-slot count of the combined
// overlay+base storage. It reads the whole storage shape.
func (v *view) StorageSlots(addr types.Address) int {
	a := v.acct(addr)
	v.access.readAllStorage[addr] = struct{}{}
	if a.wiped {
		n := 0
		for _, val := range a.storage {
			if !val.IsZero() {
				n++
			}
		}
		return n
	}
	live := make(map[uint256.Int]struct{})
	for _, k := range v.base.StorageKeys(addr) {
		live[k] = struct{}{}
	}
	for k, val := range a.storage {
		if val.IsZero() {
			delete(live, k)
		} else {
			live[k] = struct{}{}
		}
	}
	return len(live)
}

// SelfDestruct implements StateDB: credit the beneficiary, zero the
// account and mask every base field. Written flags reset so that only
// post-wipe writes resurrect the account at merge.
func (v *view) SelfDestruct(addr, beneficiary types.Address) {
	a := v.acct(addr)
	bal := v.Balance(addr)
	if beneficiary != addr {
		v.AddBalance(beneficiary, bal)
	}
	if v.journaling() {
		v.journal = append(v.journal, viewEntry{kind: vjWipe, addr: addr, prevAcct: a.clone()})
	}
	a.balance.Clear()
	a.balDelta.Clear()
	a.balDeltaOn = false
	a.balKnown = true
	a.balWritten = false
	a.nonce = 0
	a.nonceKnown = true
	a.nonceWritten = false
	a.code = nil
	a.codeKnown = true
	a.codeWritten = false
	a.codeHash = types.Hash{}
	a.codeHashOK = false
	a.storage = nil
	a.wiped = true
	a.touched = false // post-wipe touches mean resurrection
	v.access.writesAbs[balanceKey(addr)] = struct{}{}
	v.access.writesAbs[nonceKey(addr)] = struct{}{}
	v.access.writesAbs[codeKey(addr)] = struct{}{}
	v.access.writeStorage[addr] = struct{}{}
	v.access.writeAllStorage[addr] = struct{}{}
}

// AddLog implements StateDB.
func (v *view) AddLog(log evm.Log) {
	if v.journaling() {
		v.journal = append(v.journal, viewEntry{kind: vjLog})
	}
	v.logs = append(v.logs, log)
}

// Logs implements StateDB: only the logs emitted through this view. The
// engine reconstructs the serial path's cumulative log slices at merge.
func (v *view) Logs() []evm.Log { return v.logs }

// Snapshot implements StateDB over the overlay only; the base is
// immutable during speculation. Access sets are deliberately not
// journaled: reads and writes that later revert stay recorded, which
// is conservative (possible false conflict) but never unsound.
func (v *view) Snapshot() int {
	return v.ledger.Snapshot(len(v.journal))
}

// RevertToSnapshot implements StateDB with the same strict journal
// semantics as MemState: unknown ids panic.
func (v *view) RevertToSnapshot(id int) {
	watermark, ok := v.ledger.Revert(id)
	if !ok {
		panic(fmt.Sprintf("engine: RevertToSnapshot(%d): snapshot not outstanding", id))
	}
	for i := len(v.journal) - 1; i >= watermark; i-- {
		v.undo(&v.journal[i])
	}
	v.journal = v.journal[:watermark]
	if !v.ledger.Outstanding() {
		v.journal = v.journal[:0]
	}
}

// DiscardSnapshot mirrors MemState.DiscardSnapshot so the EVM's
// success-path snapshot recycling works on views too: any outstanding
// id may be discarded, in any order; unknown ids panic.
func (v *view) DiscardSnapshot(id int) {
	if !v.ledger.Discard(id) {
		panic(fmt.Sprintf("engine: DiscardSnapshot(%d): snapshot not outstanding", id))
	}
	if !v.ledger.Outstanding() {
		v.journal = v.journal[:0]
	}
}

// applyTo writes the overlay's buffered effects into the base state, in
// deterministic account order. Logs are NOT applied here — the merge
// appends them in global transaction order to reproduce the serial
// path's cumulative receipt log slices.
func (v *view) applyTo(base *evm.MemState) {
	addrs := make([]types.Address, 0, len(v.accounts))
	for addr := range v.accounts {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return string(addrs[i][:]) < string(addrs[j][:])
	})
	for _, addr := range addrs {
		a := v.accounts[addr]
		if a.wiped {
			base.SelfDestruct(addr, addr)
		}
		switch {
		case a.balWritten:
			base.SetBalance(addr, &a.balance)
		case a.balDeltaOn && !a.balKnown:
			base.AddBalance(addr, &a.balDelta)
		}
		if a.nonceWritten {
			base.SetNonce(addr, a.nonce)
		}
		if a.codeWritten {
			base.SetCode(addr, a.code)
		}
		if len(a.storage) > 0 {
			slots := make([]uint256.Int, 0, len(a.storage))
			for k := range a.storage {
				slots = append(slots, k)
			}
			sort.Slice(slots, func(i, j int) bool {
				si, sj := slots[i], slots[j]
				return si.Lt(&sj)
			})
			for i := range slots {
				val := a.storage[slots[i]]
				base.SetState(addr, &slots[i], &val)
			}
		}
	}
}
