package tinyevm

import (
	"context"

	"tinyevm/internal/protocol"
)

// The journal and checkpoint codecs, for the external test package: the
// format pins, the strict-replay cases and the fuzz seeds build and
// take apart binary records with them. The stripe count, which the
// sharded-versus-serial differential sets to one. And the operations and
// read-outs only tests call: mining a block on demand, the MST state
// root, a node by name and a fresh hash-lock secret.

type OpRecord = opRecord

func (rec *opRecord) Encode() []byte { return rec.encode(nil) }

func DecodeOpRecord(data []byte) (*OpRecord, error) { return decodeOpRecord(data) }

// WithShards sets the number of lock stripes for the pairwise hot path
// (DefaultShards when unset). n <= 1 collapses the service to a single
// stripe — every operation serializes, the pre-sharding behavior.
func WithShards(n int) Option {
	return func(c *serviceConfig) { c.shards = n }
}

// MineBlock produces one block from any pending transactions.
func (s *Service) MineBlock(ctx context.Context) error {
	_, err := s.run(ctx, opMineBlock, &opRecord{}, nil)
	return err
}

// StateCommitment is the chain's current authenticated state root
// under the MST commitment mode (WithMSTCommitment).
type StateCommitment struct {
	// Root is the Merkle-sum-tree root hash over all accounts.
	Root Hash
	// Sum is the tree's sum total (balances, low 64 bits, wrapping).
	Sum uint64
	// Height is the chain head the root was read at.
	Height uint64
}

// StateCommitment returns the current MST state root. It fails with
// chain.ErrNoMSTCommitment unless WithMSTCommitment is enabled.
func (s *Service) StateCommitment(ctx context.Context) (StateCommitment, error) {
	var out StateCommitment
	err := s.do(ctx, func() error {
		root, err := s.sys.Chain.StateRoot()
		if err != nil {
			return err
		}
		out = StateCommitment{
			Root:   root.Hash,
			Sum:    root.Sum,
			Height: s.sys.Chain.Head().Number,
		}
		return nil
	})
	return out, err
}

// Node returns a joined node by name.
func (s *System) Node(name string) (*Node, bool) {
	n, ok := s.nodes[name]
	return n, ok
}

// NewSecret draws a random hash-lock preimage and returns it with its
// lock (keccak-256 of the preimage).
func NewSecret() (Secret, Hash, error) { return protocol.NewSecret() }
