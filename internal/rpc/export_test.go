package rpc

import "context"

// call runs one gateway method through Client.Call and decodes its
// result into a T.
func call[T any](ctx context.Context, c *Client, method string, params any) (T, error) {
	var out T
	err := c.Call(ctx, method, params, &out)
	return out, err
}

// Results of the methods the tests call without a typed wrapper.
type (
	subscription struct {
		Subscription string `json:"subscription"`
	}
	poll struct {
		Events []Event `json:"events"`
		Closed bool    `json:"closed"`
	}
	balance struct {
		Balance uint64 `json:"balance"`
	}
	blockHash struct {
		Hash string `json:"hash"`
	}
)
