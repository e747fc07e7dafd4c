// The chain's records, on internal/codec. Every record starts with
// codec.DiskFormat; integers are uvarints unless a width is given, and
// "bytes" is a u32 length followed by that many bytes. The block record
// is the chain store's only record; the account record is the preimage
// a state proof carries, and its body is the unit of the state snapshot
// a checkpoint holds.
//
//	block    format | number | parent[32] | hash[32] | timestamp |
//	         coinbase[20] | gasUsed | u32 n, n × txHash[32] |
//	         stateCommitment[32] | u32 n, n × receipt
//	receipt  txHash[32] | status u8 (0/1) | gasUsed | contract[20] (zero:
//	         none) | returnData bytes | u32 n, n × log | err bytes (the
//	         failure text; empty: none)
//	log      address[20] | u32 n, n × topic[32] | data bytes
//	account  format | body
//	body     balance[32] | nonce | code bytes | u32 n, n × (key[32] |
//	         value[32]), keys strictly ascending, values non-zero
//	snapshot format | u32 n, n × (address[20] | body), addresses strictly
//	         ascending
//
// Ordering is part of the format: a state has exactly one encoding, so
// records are deterministic without a sorting encoder and the replayed-
// seal cross-check in persistSeal can compare bytes. A store of the JSON
// these records replaced is refused before the chain sees it.

package chain

import (
	"bytes"
	"errors"
	"fmt"

	"tinyevm/internal/codec"
	"tinyevm/internal/evm"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// ErrBadRecord marks a persisted chain record that does not decode.
var ErrBadRecord = errors.New("chain: malformed record")

// Smallest encodings of the repeated elements, which bound how many of
// them a record of a given size can claim to hold.
const (
	minReceiptBytes = 32 + 1 + 1 + 20 + 4 + 4 + 4
	minLogBytes     = 20 + 4 + 4
	slotBytes       = 64
	minAcctBytes    = 20 + 32 + 1 + 4 + 4
)

// encodeBlock builds one persisted sealed block: the header, its
// receipts and the state commitment observed immediately after sealing.
// The commitment is what makes crash recovery verifiable: a restore (or
// an op-log replay) that does not reproduce it byte-identically fails
// loudly.
func encodeBlock(b *Block, receipts []*Receipt, commitment types.Hash) []byte {
	w := codec.NewRecord(nil)
	w.Uvarint(b.Number)
	w.Hash(b.ParentHash)
	w.Hash(b.Hash)
	w.Uvarint(b.Timestamp)
	w.Addr(b.Coinbase)
	w.Uvarint(b.GasUsed)
	w.U32(uint32(len(b.TxHashes)))
	for _, h := range b.TxHashes {
		w.Hash(h)
	}
	w.Hash(commitment)
	w.U32(uint32(len(receipts)))
	for _, r := range receipts {
		w.Hash(r.TxHash)
		w.Bool(r.Status)
		w.Uvarint(r.GasUsed)
		w.Addr(r.ContractAddress)
		w.Bytes(r.ReturnData)
		w.U32(uint32(len(r.Logs)))
		for _, l := range r.Logs {
			w.Addr(l.Address)
			w.U32(uint32(len(l.Topics)))
			for _, topic := range l.Topics {
				w.Hash(topic)
			}
			w.Bytes(l.Data)
		}
		if r.Err != nil {
			w.String(r.Err.Error())
		} else {
			w.String("")
		}
	}
	return w.Buf
}

func decodeBlock(data []byte) (*Block, []*Receipt, types.Hash, error) {
	r := codec.OpenRecord(data, ErrBadRecord)
	b := &Block{
		Number:     r.Uvarint(),
		ParentHash: r.Hash(),
		Hash:       r.Hash(),
		Timestamp:  r.Uvarint(),
		Coinbase:   r.Addr(),
		GasUsed:    r.Uvarint(),
	}
	if n := r.Count(r.Remaining() / 32); n > 0 {
		b.TxHashes = make([]types.Hash, n)
		for i := range b.TxHashes {
			b.TxHashes[i] = r.Hash()
		}
	}
	commitment := r.Hash()
	n := r.Count(r.Remaining() / minReceiptBytes)
	receipts := make([]*Receipt, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		rc := &Receipt{
			TxHash:          r.Hash(),
			Status:          r.Bool(),
			GasUsed:         r.Uvarint(),
			ContractAddress: r.Addr(),
			ReturnData:      readBlob(r),
			BlockNumber:     b.Number,
		}
		nLogs := r.Count(r.Remaining() / minLogBytes)
		for j := 0; j < nLogs && r.Err() == nil; j++ {
			l := evm.Log{Address: r.Addr()}
			if nt := r.Count(r.Remaining() / 32); nt > 0 {
				l.Topics = make([]types.Hash, nt)
				for k := range l.Topics {
					l.Topics[k] = r.Hash()
				}
			}
			l.Data = readBlob(r)
			rc.Logs = append(rc.Logs, l)
		}
		if text := r.String(r.Remaining()); text != "" {
			// The failure reason survives as text; error identity
			// (errors.Is) does not cross a restore.
			rc.Err = errors.New(text)
		}
		receipts = append(receipts, rc)
	}
	if err := r.Done(); err != nil {
		return nil, nil, types.Hash{}, err
	}
	return b, receipts, commitment, nil
}

// readBlob copies a byte string out of the record (receipts outlive it;
// a view would pin every block record in memory), nil when empty.
func readBlob(r *codec.Reader) []byte {
	if v := r.View(r.Remaining()); len(v) > 0 {
		return bytes.Clone(v)
	}
	return nil
}

// appendAcctBody writes one account's value.
func appendAcctBody(w *codec.Writer, st *evm.MemState, addr types.Address) {
	w.Hash(st.Balance(addr).Bytes32())
	w.Uvarint(st.Nonce(addr))
	w.Bytes(st.Code(addr))
	keys := st.StorageKeys(addr) // ascending
	w.U32(uint32(len(keys)))
	for i := range keys {
		val := st.GetState(addr, &keys[i])
		w.Hash(keys[i].Bytes32())
		w.Hash(val.Bytes32())
	}
}

// readAcctBody pours one account's value straight into st.
func readAcctBody(r *codec.Reader, st *evm.MemState, addr types.Address) {
	balance, nonce, code := r.Fixed(32), r.Uvarint(), r.View(r.Remaining())
	n := r.Count(r.Remaining() / slotBytes)
	if r.Err() != nil {
		return
	}
	var word, key uint256.Int
	st.SetBalance(addr, word.SetBytes(balance))
	if nonce != 0 {
		st.SetNonce(addr, nonce)
	}
	if len(code) > 0 {
		st.SetCode(addr, code)
	}
	var prev []byte
	for i := 0; i < n && r.Err() == nil; i++ {
		k, v := r.Fixed(32), r.Fixed(32)
		if r.Err() != nil {
			return
		}
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			r.Fail("storage keys of %s out of order", addr)
			return
		}
		prev = k
		if word.SetBytes(v).IsZero() {
			r.Fail("zero storage value under %s", addr)
			return
		}
		st.SetState(addr, key.SetBytes(k), &word)
	}
}

// encodeAcct builds addr's account record into buf[:0].
func encodeAcct(buf []byte, st *evm.MemState, addr types.Address) []byte {
	w := codec.NewRecord(buf)
	appendAcctBody(w, st, addr)
	return w.Buf
}

// decodeAcct pours an account record into st under addr.
func decodeAcct(st *evm.MemState, addr types.Address, data []byte) error {
	r := codec.OpenRecord(data, ErrBadRecord)
	readAcctBody(r, st, addr)
	return r.Done()
}

// SnapshotState encodes the full live account set of st as one
// deterministic record (each account's record body, in address
// order). Only observationally existing accounts are included —
// exactly the set Digest covers — so restoring the snapshot reproduces
// the state commitment bit-for-bit.
func SnapshotState(st *evm.MemState) []byte {
	addrs := st.Addresses() // ascending
	live := addrs[:0]
	for _, addr := range addrs {
		if st.Exists(addr) {
			live = append(live, addr)
		}
	}
	w := codec.NewRecord(nil)
	w.U32(uint32(len(live)))
	for _, addr := range live {
		w.Addr(addr)
		appendAcctBody(w, st, addr)
	}
	return w.Buf
}

// RestoreState decodes a SnapshotState record into st. Call it on an
// empty (or freshly Reset) state: accounts present in st but absent
// from the snapshot are NOT removed. On error st holds the accounts
// decoded so far and must be discarded.
func RestoreState(st *evm.MemState, data []byte) error {
	r := codec.OpenRecord(data, ErrBadRecord)
	n := r.Count(r.Remaining() / minAcctBytes)
	var prev types.Address
	for i := 0; i < n && r.Err() == nil; i++ {
		addr := r.Addr()
		if i > 0 && bytes.Compare(prev[:], addr[:]) >= 0 {
			r.Fail("accounts out of order at %s", addr)
			break
		}
		prev = addr
		readAcctBody(r, st, addr)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("chain: decoding state snapshot: %w", err)
	}
	return nil
}
