package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"tinyevm/internal/chain"
	"tinyevm/internal/mst"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// Template operation bytes (first byte of calldata).
const (
	// OpDeposit locks the transaction value as the caller's channel
	// deposit/insurance: "The node makes a deposit to be charged for
	// parking services, which works as an insurance in case of a
	// dispute."
	OpDeposit byte = 0x01
	// OpCommit submits a doubly-signed final state (or a stand-alone
	// signed payment aggregated as a state): "At any time, a node can
	// submit a signed final state of a closed off-chain payment
	// channel."
	OpCommit byte = 0x02
	// OpExit starts the challenge period: "the activation of the exit
	// function starts the expiration period".
	OpExit byte = 0x03
	// OpSettle dissolves the template after the challenge period and
	// distributes funds.
	OpSettle byte = 0x04
)

// Template contract errors.
var (
	ErrSettled         = errors.New("protocol: template already settled")
	ErrExitActive      = errors.New("protocol: exit active, deposits closed")
	ErrNoExit          = errors.New("protocol: no exit request active")
	ErrChallengeOpen   = errors.New("protocol: challenge period still running")
	ErrChallengeClosed = errors.New("protocol: challenge period expired")
	ErrStaleState      = errors.New("protocol: state not newer than committed state")
	ErrWrongTemplate   = errors.New("protocol: state targets another template")
	ErrWrongReceiver   = errors.New("protocol: state receiver is not the provider")
	ErrOverspend       = errors.New("protocol: cumulative amount exceeds deposit")
	ErrUnknownOp       = errors.New("protocol: unknown template operation")
	ErrNotParticipant  = errors.New("protocol: caller not a participant")
)

// commitKey identifies a committed channel on the template. Channel ids
// are logical-clock values of the SENDER's local template copy, so they
// are only unique per sender; the on-chain table keys by the pair.
type commitKey struct {
	Sender types.Address
	ID     uint64
}

// Commit is one accepted channel state on the template.
type Commit struct {
	// State is the accepted final state.
	State FinalState
	// SubmittedBy is the transaction sender that uploaded it.
	SubmittedBy types.Address
	// Block is the inclusion height.
	Block uint64
}

// ExitRequest is an active exit with its challenge deadline.
type ExitRequest struct {
	// By is the requesting party.
	By types.Address
	// Deadline is the last block at which challenges are accepted.
	Deadline uint64
}

// Template is the on-chain smart contract bridging the main chain and
// the off-chain channels (paper §IV-A/IV-E). It is installed on the
// simulated chain as a native contract; every mutation arrives as a
// signed main-chain transaction.
type Template struct {
	// Addr is the contract's on-chain address.
	Addr types.Address
	// Provider is the service provider (payment receiver).
	Provider types.Address
	// ChallengePeriod is the challenge window in blocks ("This
	// time-limit is in order of days", e.g. Plasma's seven-day bound;
	// blocks stand in for days on the simulated chain).
	ChallengePeriod uint64

	deposits  map[types.Address]uint64
	committed map[commitKey]*Commit
	// fraud maps a misbehaving address to the channels it cheated on,
	// keyed like the commit table — channel ids are only unique per
	// opener, so a fraud record must not taint other openers' channels
	// that share the id.
	fraud map[types.Address][]commitKey
	exit  *ExitRequest
	// settled blocks all further operations once true.
	settled bool
}

var _ chain.NativeContract = (*Template)(nil)

// InstallTemplate deploys a new template native contract for the given
// provider onto the chain and returns it.
func InstallTemplate(c *chain.Chain, provider types.Address, challengePeriod uint64) *Template {
	t := &Template{
		Provider:        provider,
		ChallengePeriod: challengePeriod,
		deposits:        make(map[types.Address]uint64),
		committed:       make(map[commitKey]*Commit),
		fraud:           make(map[types.Address][]commitKey),
	}
	// Deterministic address derived from the provider.
	t.Addr = types.ContractAddress(provider, ^uint64(0))
	c.InstallNative(t.Addr, t)
	return t
}

// Run implements chain.NativeContract.
func (t *Template) Run(c *chain.Chain, caller types.Address, value uint64, input []byte) ([]byte, error) {
	if len(input) == 0 {
		// Bare value transfer: treat as deposit.
		input = []byte{OpDeposit}
	}
	if t.settled {
		return nil, ErrSettled
	}
	switch input[0] {
	case OpDeposit:
		return t.runDeposit(caller, value)
	case OpCommit:
		return t.runCommit(c, caller, input[1:])
	case OpExit:
		return t.runExit(c, caller)
	case OpSettle:
		return t.runSettle(c, caller)
	default:
		return nil, fmt.Errorf("%w: 0x%02x", ErrUnknownOp, input[0])
	}
}

func (t *Template) runDeposit(caller types.Address, value uint64) ([]byte, error) {
	if t.exit != nil {
		return nil, ErrExitActive
	}
	t.deposits[caller] += value
	return nil, nil
}

func (t *Template) runCommit(c *chain.Chain, caller types.Address, payload []byte) ([]byte, error) {
	_, fs, err := DecodeFinalState(payload)
	if err != nil {
		return nil, err
	}
	if fs.Template != t.Addr {
		return nil, ErrWrongTemplate
	}
	if fs.Receiver != t.Provider {
		return nil, ErrWrongReceiver
	}
	if err := fs.VerifySignatures(); err != nil {
		return nil, err
	}
	if fs.Cumulative > t.deposits[fs.Sender] {
		// Sum audit: "Each payment adds to the overall sum, and if it
		// exceeds the allowed range, the payment is invalid, and the
		// other node can claim the insurance money."
		return nil, fmt.Errorf("%w: %d > %d", ErrOverspend, fs.Cumulative, t.deposits[fs.Sender])
	}

	now := c.Head().Number + 1 // the block being produced
	if t.exit != nil && now > t.exit.Deadline {
		return nil, ErrChallengeClosed
	}

	key := commitKey{Sender: fs.Sender, ID: fs.ChannelID}
	prev := t.committed[key]
	if prev != nil {
		if fs.Seq <= prev.State.Seq {
			return nil, fmt.Errorf("%w: seq %d <= %d", ErrStaleState, fs.Seq, prev.State.Seq)
		}
		// A higher sequence number supersedes the previous state. If it
		// was submitted by the counterparty, that party withheld newer
		// state — fraud detected via the logical clock: "the sequence
		// number prevents a node from misbehaving by reporting old
		// states."
		if prev.SubmittedBy != caller {
			t.fraud[prev.SubmittedBy] = append(t.fraud[prev.SubmittedBy], key)
		}
	}
	t.committed[key] = &Commit{State: *fs, SubmittedBy: caller, Block: now}
	return nil, nil
}

func (t *Template) runExit(c *chain.Chain, caller types.Address) ([]byte, error) {
	if t.exit != nil {
		return nil, ErrExitActive
	}
	if caller != t.Provider && t.deposits[caller] == 0 {
		return nil, ErrNotParticipant
	}
	t.exit = &ExitRequest{
		By:       caller,
		Deadline: c.Head().Number + 1 + t.ChallengePeriod,
	}
	return nil, nil
}

func (t *Template) runSettle(c *chain.Chain, caller types.Address) ([]byte, error) {
	if t.exit == nil {
		return nil, ErrNoExit
	}
	now := c.Head().Number + 1
	if now <= t.exit.Deadline {
		return nil, fmt.Errorf("%w: until block %d", ErrChallengeOpen, t.exit.Deadline)
	}

	// Distribute: for every committed channel, the provider earns the
	// cumulative amount out of the sender's deposit — unless one side
	// committed fraud, in which case the honest side claims the
	// insurance.
	remaining := make(map[types.Address]uint64, len(t.deposits))
	for a, d := range t.deposits {
		remaining[a] = d
	}
	payout := make(map[types.Address]uint64)

	for _, key := range t.commitKeys() {
		cm := t.committed[key]
		sender := cm.State.Sender
		amount := cm.State.Cumulative
		if amount > remaining[sender] {
			amount = remaining[sender]
		}
		remaining[sender] -= amount

		switch {
		case t.isFraudulent(t.Provider, key):
			// Provider reported a stale state: its earnings for this
			// channel are forfeited back to the sender.
			payout[sender] += amount
		case t.isFraudulent(sender, key):
			// Sender reported a stale state: the provider additionally
			// claims the sender's remaining deposit (the insurance).
			payout[t.Provider] += amount + remaining[sender]
			remaining[sender] = 0
		default:
			payout[t.Provider] += amount
		}
	}
	// Refund unspent deposits.
	for a, d := range remaining {
		payout[a] += d
	}

	state := c.State()
	for a, v := range payout {
		if v == 0 {
			continue
		}
		if err := state.SubBalance(t.Addr, uint256.NewInt(v)); err != nil {
			return nil, fmt.Errorf("protocol: settle underfunded: %w", err)
		}
		state.AddBalance(a, uint256.NewInt(v))
	}
	t.settled = true
	return nil, nil
}

func (t *Template) isFraudulent(addr types.Address, key commitKey) bool {
	for _, k := range t.fraud[addr] {
		if k == key {
			return true
		}
	}
	return false
}

// --- read-only views ---------------------------------------------------

// commitKeys returns the committed channel keys in deterministic order
// (sender address, then id).
func (t *Template) commitKeys() []commitKey {
	keys := make([]commitKey, 0, len(t.committed))
	for k := range t.committed {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Sender != keys[j].Sender {
			return bytes.Compare(keys[i].Sender[:], keys[j].Sender[:]) < 0
		}
		return keys[i].ID < keys[j].ID
	})
	return keys
}

// CommittedBy returns the latest accepted state for a sender's channel.
func (t *Template) CommittedBy(sender types.Address, channelID uint64) (*Commit, bool) {
	cm, ok := t.committed[commitKey{Sender: sender, ID: channelID}]
	return cm, ok
}

// Root builds the current Merkle-sum tree over all committed states:
// "The on-chain smart contract uses a Merkle-Sum-Tree, which has the sum
// of the payments and the hash value."
func (t *Template) Root() (mst.Root, error) {
	if len(t.committed) == 0 {
		return mst.Root{}, nil
	}
	// Deterministic leaf order by (sender, channel id).
	leaves := make([]mst.Leaf, 0, len(t.committed))
	for _, key := range t.commitKeys() {
		cm := t.committed[key]
		leaves = append(leaves, mst.Leaf{Hash: cm.State.Digest(), Sum: cm.State.Cumulative})
	}
	tree, err := mst.New(leaves)
	if err != nil {
		return mst.Root{}, err
	}
	return tree.Root(), nil
}

// Exit returns the active exit request, if any.
func (t *Template) Exit() (*ExitRequest, bool) {
	if t.exit == nil {
		return nil, false
	}
	e := *t.exit
	return &e, true
}

// Settled reports whether the template has been dissolved.
func (t *Template) Settled() bool { return t.settled }

// FraudChannels returns the channel ids addr was caught cheating on
// (ids are only unique per opener; see FraudRecords for the full keys).
func (t *Template) FraudChannels(addr types.Address) []uint64 {
	out := make([]uint64, 0, len(t.fraud[addr]))
	for _, k := range t.fraud[addr] {
		out = append(out, k.ID)
	}
	return out
}

// --- checkpoint snapshot / restore --------------------------------------

// TemplateDeposit is one locked deposit in a template snapshot.
type TemplateDeposit struct {
	Addr   types.Address
	Amount uint64
}

// TemplateCommit is one accepted channel state in a template snapshot.
type TemplateCommit struct {
	Sender      types.Address
	ID          uint64
	State       FinalState
	SubmittedBy types.Address
	Block       uint64
}

// TemplateFraud is one fraud record in a template snapshot.
type TemplateFraud struct {
	Addr   types.Address
	Sender types.Address
	ID     uint64
}

// TemplateSnapshot is the template's full mutable state in
// deterministic order — what the durable service layer checkpoints so
// recovery can skip replaying the operations that produced it.
type TemplateSnapshot struct {
	Deposits []TemplateDeposit
	Commits  []TemplateCommit
	Fraud    []TemplateFraud
	Exit     *ExitRequest
	Settled  bool
}

// Snapshot captures the template's mutable state. Deposits and commits
// come out in address order, fraud records grouped by address in their
// recorded order, so identical states snapshot identically.
func (t *Template) Snapshot() TemplateSnapshot {
	var snap TemplateSnapshot
	addrs := make([]types.Address, 0, len(t.deposits))
	for a := range t.deposits {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return bytes.Compare(addrs[i][:], addrs[j][:]) < 0 })
	for _, a := range addrs {
		snap.Deposits = append(snap.Deposits, TemplateDeposit{Addr: a, Amount: t.deposits[a]})
	}
	for _, key := range t.commitKeys() {
		cm := t.committed[key]
		snap.Commits = append(snap.Commits, TemplateCommit{
			Sender: key.Sender, ID: key.ID,
			State: cm.State, SubmittedBy: cm.SubmittedBy, Block: cm.Block,
		})
	}
	fraudAddrs := make([]types.Address, 0, len(t.fraud))
	for a := range t.fraud {
		fraudAddrs = append(fraudAddrs, a)
	}
	sort.Slice(fraudAddrs, func(i, j int) bool { return bytes.Compare(fraudAddrs[i][:], fraudAddrs[j][:]) < 0 })
	for _, a := range fraudAddrs {
		for _, k := range t.fraud[a] {
			snap.Fraud = append(snap.Fraud, TemplateFraud{Addr: a, Sender: k.Sender, ID: k.ID})
		}
	}
	if t.exit != nil {
		e := *t.exit
		snap.Exit = &e
	}
	snap.Settled = t.settled
	return snap
}

// Restore replaces the template's mutable state with a snapshot — the
// recovery-side inverse of Snapshot, run on a freshly installed
// template before the operation-log tail replays on top.
func (t *Template) Restore(snap TemplateSnapshot) {
	t.deposits = make(map[types.Address]uint64, len(snap.Deposits))
	for _, d := range snap.Deposits {
		t.deposits[d.Addr] = d.Amount
	}
	t.committed = make(map[commitKey]*Commit, len(snap.Commits))
	for _, cm := range snap.Commits {
		t.committed[commitKey{Sender: cm.Sender, ID: cm.ID}] = &Commit{
			State: cm.State, SubmittedBy: cm.SubmittedBy, Block: cm.Block,
		}
	}
	t.fraud = make(map[types.Address][]commitKey)
	for _, f := range snap.Fraud {
		t.fraud[f.Addr] = append(t.fraud[f.Addr], commitKey{Sender: f.Sender, ID: f.ID})
	}
	t.exit = nil
	if snap.Exit != nil {
		e := *snap.Exit
		t.exit = &e
	}
	t.settled = snap.Settled
}

// --- transaction builders ----------------------------------------------

// DepositTx builds the calldata for a deposit.
func DepositTx() []byte { return []byte{OpDeposit} }

// CommitTx builds the calldata for committing a final state.
func CommitTx(fs *FinalState) []byte {
	return append([]byte{OpCommit}, EncodeFinalState(MsgCloseAck, fs)...)
}

// ExitTx builds the calldata for starting the exit.
func ExitTx() []byte { return []byte{OpExit} }

// SettleTx builds the calldata for settlement.
func SettleTx() []byte { return []byte{OpSettle} }
