// The one-shot migration of a chain store written before the binary
// records (record.go): block/* used to be JSON objects with every
// address, hash, word and byte string spelled in hex. This file is the
// only place that still understands them, and it only reads them:
// MigrateLegacy decodes each legacy block and re-encodes it in binary,
// and no other code path sniffs a format. The service migrates its
// chain archive in the same atomic batch as the journal and the
// checkpoint, and drops the account and head records such a store
// also holds unread.
//
// The legacy account form survives in one place: the state snapshots
// inside a legacy checkpoint (MigrateStateSnapshot).

package chain

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"tinyevm/internal/evm"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

type legacyBlock struct {
	Number      uint64          `json:"number"`
	ParentHash  string          `json:"parent_hash"`
	Hash        string          `json:"hash"`
	Timestamp   uint64          `json:"timestamp"`
	Coinbase    string          `json:"coinbase"`
	GasUsed     uint64          `json:"gas_used"`
	TxHashes    []string        `json:"tx_hashes,omitempty"`
	StateDigest string          `json:"state_digest"`
	Receipts    []legacyReceipt `json:"receipts,omitempty"`
}

type legacyReceipt struct {
	TxHash          string      `json:"tx_hash"`
	Status          bool        `json:"status"`
	GasUsed         uint64      `json:"gas_used"`
	ContractAddress string      `json:"contract_address,omitempty"`
	ReturnData      string      `json:"return_data,omitempty"`
	Logs            []legacyLog `json:"logs,omitempty"`
	Err             string      `json:"err,omitempty"`
}

type legacyLog struct {
	Address string   `json:"address"`
	Topics  []string `json:"topics,omitempty"`
	Data    string   `json:"data,omitempty"`
}

type legacyAcct struct {
	Balance string            `json:"balance"`
	Nonce   uint64            `json:"nonce,omitempty"`
	Code    string            `json:"code,omitempty"`
	Storage map[string]string `json:"storage,omitempty"`
}

// MigrateLegacy hands put the binary form of every JSON block record in
// kv, under the record's unchanged key; the caller commits them
// atomically. A record that does not decode fails the migration:
// nothing is skipped.
func MigrateLegacy(kv store.KVStore, put func(key, value []byte)) error {
	return kv.Iterate([]byte(blockPfx), func(key, value []byte) error {
		var rec legacyBlock
		if err := json.Unmarshal(value, &rec); err != nil {
			return fmt.Errorf("chain: migrating %s: %w", key, err)
		}
		b, receipts, digest, err := rec.decode()
		if err != nil {
			return fmt.Errorf("chain: migrating %s: %w", key, err)
		}
		put(key, encodeBlock(b, receipts, digest))
		return nil
	})
}

// MigrateStateSnapshot converts a legacy SnapshotState blob (a JSON
// object, address hex -> account) into the binary snapshot.
func MigrateStateSnapshot(data []byte) ([]byte, error) {
	var recs map[string]json.RawMessage
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("chain: migrating state snapshot: %w", err)
	}
	scratch := evm.NewMemState()
	for addrHex, rec := range recs {
		addr, err := types.HexToAddress(addrHex)
		if err != nil {
			return nil, fmt.Errorf("chain: migrating state snapshot: %w", err)
		}
		if err := restoreLegacyAcct(scratch, addr, rec); err != nil {
			return nil, fmt.Errorf("chain: migrating state snapshot: %w", err)
		}
	}
	return SnapshotState(scratch), nil
}

func (rec *legacyBlock) decode() (*Block, []*Receipt, types.Hash, error) {
	var (
		b   = &Block{Number: rec.Number, Timestamp: rec.Timestamp, GasUsed: rec.GasUsed}
		err error
	)
	fail := func(err error) (*Block, []*Receipt, types.Hash, error) { return nil, nil, types.Hash{}, err }
	if b.ParentHash, err = types.HexToHash(rec.ParentHash); err != nil {
		return fail(err)
	}
	if b.Hash, err = types.HexToHash(rec.Hash); err != nil {
		return fail(err)
	}
	if b.Coinbase, err = types.HexToAddress(rec.Coinbase); err != nil {
		return fail(err)
	}
	for _, s := range rec.TxHashes {
		h, err := types.HexToHash(s)
		if err != nil {
			return fail(err)
		}
		b.TxHashes = append(b.TxHashes, h)
	}
	digest, err := types.HexToHash(rec.StateDigest)
	if err != nil {
		return fail(err)
	}
	receipts := make([]*Receipt, 0, len(rec.Receipts))
	for i := range rec.Receipts {
		r, err := rec.Receipts[i].decode(rec.Number)
		if err != nil {
			return fail(err)
		}
		receipts = append(receipts, r)
	}
	return b, receipts, digest, nil
}

func (rr *legacyReceipt) decode(blockNumber uint64) (*Receipt, error) {
	txHash, err := types.HexToHash(rr.TxHash)
	if err != nil {
		return nil, err
	}
	r := &Receipt{TxHash: txHash, Status: rr.Status, GasUsed: rr.GasUsed, BlockNumber: blockNumber}
	if rr.ContractAddress != "" {
		if r.ContractAddress, err = types.HexToAddress(rr.ContractAddress); err != nil {
			return nil, err
		}
	}
	if r.ReturnData, err = hex.DecodeString(rr.ReturnData); err != nil {
		return nil, err
	}
	for _, lr := range rr.Logs {
		l := evm.Log{}
		if l.Address, err = types.HexToAddress(lr.Address); err != nil {
			return nil, err
		}
		for _, ts := range lr.Topics {
			topic, err := types.HexToHash(ts)
			if err != nil {
				return nil, err
			}
			l.Topics = append(l.Topics, topic)
		}
		if l.Data, err = hex.DecodeString(lr.Data); err != nil {
			return nil, err
		}
		r.Logs = append(r.Logs, l)
	}
	if rr.Err != "" {
		r.Err = errors.New(rr.Err)
	}
	return r, nil
}

// restoreLegacyAcct pours one legacy account record into st.
func restoreLegacyAcct(st *evm.MemState, addr types.Address, data []byte) error {
	var rec legacyAcct
	if err := json.Unmarshal(data, &rec); err != nil {
		return err
	}
	word := func(s string) (w uint256.Int, err error) {
		b, err := hex.DecodeString(s)
		if err == nil && len(b) > 32 {
			err = fmt.Errorf("word of %d bytes", len(b))
		}
		w.SetBytes(b)
		return w, err
	}
	bal, err := word(rec.Balance)
	if err != nil {
		return err
	}
	st.SetBalance(addr, &bal)
	if rec.Nonce != 0 {
		st.SetNonce(addr, rec.Nonce)
	}
	code, err := hex.DecodeString(rec.Code)
	if err != nil {
		return err
	}
	if len(code) > 0 {
		st.SetCode(addr, code)
	}
	for k, v := range rec.Storage {
		key, err := word(k)
		if err != nil {
			return err
		}
		val, err := word(v)
		if err != nil {
			return err
		}
		st.SetState(addr, &key, &val)
	}
	return nil
}
