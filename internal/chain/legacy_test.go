package chain

import (
	"encoding/hex"
	"encoding/json"
	"testing"

	"tinyevm/internal/store"
)

// legacyCopy renders c's persisted records the way the JSON encoder
// this tree no longer has wrote them — the legacy* structs of
// migrate.go, marshalled — into a fresh store. (The root package's
// TestMigrateLegacyStore runs the migration over bytes an older commit
// really wrote; this is the same check for a chain store on its own.)
func legacyCopy(t testing.TB, kv store.KVStore, c *Chain) store.KVStore {
	t.Helper()
	out := store.NewMem()
	put := func(key []byte, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Put(key, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range c.blocks[1:] {
		data, _, _ := kv.Get(blockKey(b.Number))
		_, receipts, digest, err := decodeBlock(data)
		if err != nil {
			t.Fatal(err)
		}
		rec := legacyBlock{
			Number: b.Number, ParentHash: b.ParentHash.Hex(), Hash: b.Hash.Hex(),
			Timestamp: b.Timestamp, Coinbase: b.Coinbase.Hex(), GasUsed: b.GasUsed,
			StateDigest: digest.Hex(),
		}
		for _, h := range b.TxHashes {
			rec.TxHashes = append(rec.TxHashes, h.Hex())
		}
		for _, r := range receipts {
			rr := legacyReceipt{TxHash: r.TxHash.Hex(), Status: r.Status, GasUsed: r.GasUsed,
				ReturnData: hex.EncodeToString(r.ReturnData)}
			if !r.ContractAddress.IsZero() {
				rr.ContractAddress = r.ContractAddress.Hex()
			}
			if r.Err != nil {
				rr.Err = r.Err.Error()
			}
			rec.Receipts = append(rec.Receipts, rr)
		}
		put(blockKey(b.Number), rec)
	}
	for _, addr := range c.state.Addresses() {
		if !c.state.Exists(addr) {
			continue
		}
		bal := c.state.Balance(addr).Bytes32()
		rec := legacyAcct{Balance: hex.EncodeToString(bal[:]), Nonce: c.state.Nonce(addr),
			Code: hex.EncodeToString(c.state.Code(addr))}
		for _, key := range c.state.StorageKeys(addr) {
			if rec.Storage == nil {
				rec.Storage = make(map[string]string)
			}
			val := c.state.GetState(addr, &key)
			kb, vb := key.Bytes32(), val.Bytes32()
			rec.Storage[hex.EncodeToString(kb[:])] = hex.EncodeToString(vb[:])
		}
		put(acctKey(addr), rec)
	}
	put([]byte(headKey), legacyHead{Number: c.Head().Number, Hash: c.Head().Hash.Hex()})
	return out
}
