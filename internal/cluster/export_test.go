package cluster

import (
	"tinyevm/internal/chain"
	"tinyevm/internal/types"
)

// Entry points for the tests, which run nodes without the service: each
// takes the chain lock itself where the service would hold it.

// Self returns this node's validator address.
func (n *Node) Self() types.Address { return n.self }

// Status locks the chain and reports node status.
func (n *Node) Status() Status {
	n.lock.Lock()
	defer n.lock.Unlock()
	return n.StatusLocked()
}

// Syncing reports whether the node is still catching up.
func (n *Node) Syncing() bool { return n.syncing.Load() }

// ProduceBlock locks the chain, checks the consensus schedule, and
// seals one block from the pooled transactions. It returns the typed
// consensus error when this node may not seal the next height.
func (n *Node) ProduceBlock() ([]*chain.Receipt, error) {
	n.lock.Lock()
	defer n.lock.Unlock()
	if err := n.CheckProposerLocked(); err != nil {
		return nil, err
	}
	return n.ProduceBlockLocked(), nil
}

// SubmitTx pools a local transaction for the next block this node seals.
func (n *Node) SubmitTx(tx *chain.Transaction) error {
	if _, err := tx.Sender(); err != nil {
		return err
	}
	n.lock.Lock()
	n.pool.Add(tx)
	n.lock.Unlock()
	return nil
}
