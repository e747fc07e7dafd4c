package protocol

import (
	"fmt"

	"tinyevm/internal/chain"
	"tinyevm/internal/keccak"
	"tinyevm/internal/types"
)

// Scenario steps and read-outs for the tests: the on-chain phases
// through DepositOnChain, CommitOnChain, ExitOnChain and SettleOnChain,
// a lookup into the template, and the hash lock of a preimage.

// FundDeposit performs the car's on-chain deposit (phase 1).
func FundDeposit(s *Scenario, amount uint64) error {
	r, err := s.Car.DepositOnChain(s.Chain, amount)
	if err != nil {
		return err
	}
	if !r.Status {
		return fmt.Errorf("deposit failed: %w", r.Err)
	}
	return nil
}

// SettleScenario drives phase 3 on-chain: the lot commits the final
// state, the car exits, blocks pass the challenge window, and the
// template settles. It returns the settlement receipt.
func SettleScenario(s *Scenario, fs *FinalState) (*chain.Receipt, error) {
	if _, err := s.Lot.CommitOnChain(s.Chain, fs); err != nil {
		return nil, fmt.Errorf("commit: %w", err)
	}
	if _, err := s.Car.ExitOnChain(s.Chain); err != nil {
		return nil, fmt.Errorf("exit: %w", err)
	}
	// Let the challenge period lapse.
	exitReq, _ := s.Template.Exit()
	for s.Chain.Head().Number <= exitReq.Deadline {
		s.Chain.MineBlock()
	}
	r, err := s.Lot.SettleOnChain(s.Chain)
	if err != nil {
		return nil, fmt.Errorf("settle: %w", err)
	}
	if !r.Status {
		return r, fmt.Errorf("settle failed: %w", r.Err)
	}
	return r, nil
}

// CommittedBy returns the latest accepted state for a sender's channel.
func (t *Template) CommittedBy(sender types.Address, channelID uint64) (*Commit, bool) {
	cm, ok := t.committed[commitKey{Sender: sender, ID: channelID}]
	return cm, ok
}

// PreimageHash returns the hash lock of a preimage (keccak-256); the
// on-chain template uses it when validating hash-locked commits.
func PreimageHash(preimage Secret) types.Hash {
	return types.Hash(keccak.Sum256(preimage[:]))
}
