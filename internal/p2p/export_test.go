package p2p

import "tinyevm/internal/chain"

// BroadcastTx gossips a locally submitted transaction to every peer.
func (n *Node) BroadcastTx(tx *chain.Transaction) {
	if !n.markSeen(tx.Hash()) {
		return
	}
	n.relay(Encode(&TxMsg{Tx: tx}), nil)
}
