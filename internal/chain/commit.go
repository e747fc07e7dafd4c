// Authenticated incremental state commitment (ICDCS paper §IV-E made
// chain-wide): instead of re-hashing the entire state on every seal
// (MemState.Digest, O(n) accounts), the chain can maintain the account
// set in an internal/mst incremental Merkle map and update the root in
// O(log n) hashes per touched account.
//
// Each account's leaf is keyed by its 20-byte address; the leaf value
// is MemState.AccountDigest — the keccak of the exact per-account byte
// layout Digest hashes — and the leaf sum is the balance's low 64 bits
// (wrapping; a consistency signal, not an audited total). The block's
// persisted state commitment becomes
//
//	H("tinyevm-mst-commit" | rootHash | rootSum u64 BE)
//
// which pins both the root hash and the sum. A light client verifies
// an account with tinyevm_stateProof: recompute the account's digest
// from its claimed contents, verify the Merkle path to a root, fold
// the root into the commitment and compare against the block header's
// state commitment.
//
// The commitment mode is a config knob (Service option / serve flag);
// the legacy full-state Digest stays the default and a differential
// test pins that both modes see identical chains (block hashes do not
// cover the state commitment) over identical workloads.

package chain

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tinyevm/internal/evm"
	"tinyevm/internal/mst"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
)

// ErrNoMSTCommitment is returned by proof queries when the chain runs
// the legacy digest commitment.
var ErrNoMSTCommitment = errors.New("chain: MST state commitment not enabled")

// commitTag domain-separates the MST commitment from every other hash.
var commitTag = []byte("tinyevm-mst-commit")

// EnableMSTCommitment switches the chain's per-block state commitment
// from the legacy full-state digest to the incremental MST root,
// seeding the map from the current state. Enable it before attaching a
// store (the first persisted seal must already be in MST mode); the
// knob is sticky for the chain's lifetime.
func (c *Chain) EnableMSTCommitment() {
	c.commitMST = true
	c.rebuildCommitment()
	// SealBlock folds the accounts each block mutated into the map.
	c.state.EnableDirtyTracking()
}

// rebuildCommitment reconstructs the incremental map from the full
// current state — used at enable time and after a checkpoint restore.
// The rebuilt root is bit-identical to one maintained incrementally
// (the map's shape is a pure function of the key set).
func (c *Chain) rebuildCommitment() {
	c.smt = mst.NewMap()
	for _, addr := range c.state.Addresses() {
		c.updateCommitmentAccount(addr)
	}
}

// updateCommitmentAccount folds one account's current value into the
// map: live accounts update their leaf, dead or observationally empty
// ones are removed (Digest skips them, so the map must too).
func (c *Chain) updateCommitmentAccount(addr types.Address) {
	if d, ok := c.state.AccountDigest(addr); ok {
		c.smt.Update(addr[:], d, c.state.Balance(addr).Uint64())
	} else {
		c.smt.Delete(addr[:])
	}
}

// applyCommitmentDelta folds a sealed block's dirty account set into
// the map — the O(log n)-per-account path SealBlock runs instead of
// the O(n) Digest rehash.
func (c *Chain) applyCommitmentDelta(dirty []types.Address) {
	for _, addr := range dirty {
		c.updateCommitmentAccount(addr)
	}
}

// commitmentDigest folds an MST root (hash and sum) into the single
// hash persisted as a block's state commitment.
func commitmentDigest(root mst.Root) types.Hash {
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], root.Sum)
	return types.HashConcat(commitTag, root.Hash[:], sum[:])
}

// stateCommitment returns the digest persistSeal stamps into the block
// record: the MST commitment when enabled, the legacy full-state
// digest otherwise.
func (c *Chain) stateCommitment() types.Hash {
	if c.commitMST {
		return commitmentDigest(c.smt.Root())
	}
	return c.state.Digest()
}

// StateRoot returns the current MST root. It fails with
// ErrNoMSTCommitment under the legacy digest mode.
func (c *Chain) StateRoot() (mst.Root, error) {
	if !c.commitMST {
		return mst.Root{}, ErrNoMSTCommitment
	}
	return c.smt.Root(), nil
}

// AccountProof is a light-client-verifiable statement that one account
// is committed under a block's state commitment.
type AccountProof struct {
	// Address is the proven account.
	Address types.Address
	// AccountDigest is the keccak of the account's canonical encoding
	// (the MST leaf value hash).
	AccountDigest types.Hash
	// Sum is the leaf's sum contribution (balance, low 64 bits).
	Sum uint64
	// Account is the account's record (balance, nonce, code, storage) —
	// the preimage a verifier re-digests.
	Account []byte
	// Proof is the Merkle path from the leaf to Root.
	Proof mst.MapProof
	// Root is the MST root the proof verifies against.
	Root mst.Root
	// Commitment is commitmentDigest(Root) — the value persisted in the
	// block record's state commitment field.
	Commitment types.Hash
	// Head is the block height the proof was taken at.
	Head uint64
}

// StateProof builds a membership proof for addr against the current
// head state. The account must observationally exist.
func (c *Chain) StateProof(addr types.Address) (*AccountProof, error) {
	if !c.commitMST {
		return nil, ErrNoMSTCommitment
	}
	d, ok := c.state.AccountDigest(addr)
	if !ok {
		return nil, fmt.Errorf("chain: no account %s to prove", addr.Hex())
	}
	proof, err := c.smt.Prove(addr[:])
	if err != nil {
		return nil, err
	}
	root := c.smt.Root()
	return &AccountProof{
		Address:       addr,
		AccountDigest: d,
		Sum:           c.state.Balance(addr).Uint64(),
		Account:       EncodeAccountRecord(c.state, addr),
		Proof:         proof,
		Root:          root,
		Commitment:    commitmentDigest(root),
		Head:          c.Head().Number,
	}, nil
}

// VerifyAccountProof checks an AccountProof against a header's state
// commitment: the Merkle path must verify and the root must fold into
// exactly that commitment. The account-content preimage (p.Account vs
// p.AccountDigest) is the RPC client's side of the bargain; see
// rpc.Client.VerifyStateProof.
func VerifyAccountProof(commitment types.Hash, p *AccountProof) error {
	if err := mst.VerifyMapProof(p.Root, p.Address[:], p.AccountDigest, p.Sum, p.Proof); err != nil {
		return err
	}
	if commitmentDigest(p.Root) != commitment {
		return mst.ErrProofInvalid
	}
	return nil
}

// EncodeAccountRecord encodes one account in the chain's account-record
// form — the preimage companion to MemState.AccountDigest for proof
// clients.
func EncodeAccountRecord(st *evm.MemState, addr types.Address) []byte {
	return encodeAcct(nil, st, addr)
}

// VerifyAccountRecord checks that an account record (as carried in an
// AccountProof) re-digests to the claimed MST leaf value: the record is
// decoded into a scratch state and the canonical account digest
// recomputed from scratch. This is the proof client's half of
// verification — the Merkle path only binds the digest, this binds the
// digest to the actual account contents.
func VerifyAccountRecord(addr types.Address, record []byte, want types.Hash) error {
	st := evm.NewMemState()
	if err := decodeAcct(st, addr, record); err != nil {
		return fmt.Errorf("chain: decoding account record: %w", err)
	}
	d, ok := st.AccountDigest(addr)
	if !ok || d != want {
		return fmt.Errorf("chain: account record does not digest to the proven leaf value (%w)", mst.ErrProofInvalid)
	}
	return nil
}

// SubmitBatch routes a caller-built batch (the service's checkpoint
// writer) through the chain's commit ordering: behind the seal
// pipeline's FIFO when enabled — so it commits only after every block
// sealed before it is durable — and synchronously otherwise. Errors
// latch into StoreErr like any seal commit.
func (c *Chain) SubmitBatch(batch store.Batch) error {
	if err := c.StoreErr(); err != nil {
		return err
	}
	if c.pipe != nil {
		c.pipe.enqueue(batch)
		return nil
	}
	if err := batch.Commit(); err != nil {
		c.setStoreErr(err)
		return err
	}
	return nil
}
