package chain

import (
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// CallReadOnly executes a contract view call against the head state
// without creating a transaction (an eth_call analogue).
func (c *Chain) CallReadOnly(from types.Address, to types.Address, data []byte) ([]byte, error) {
	snap := c.state.Snapshot()
	defer c.state.RevertToSnapshot(snap)
	vm := c.newEVM(c.state, c.Head(), from, 1)
	res := vm.Call(from, to, data, uint256.NewInt(0), BlockGasLimit)
	if res.Err != nil {
		return res.ReturnData, res.Err
	}
	return res.ReturnData, nil
}
