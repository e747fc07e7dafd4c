package engine

import (
	"bytes"
	"encoding/binary"

	"tinyevm/internal/chain"
)

// EncodeReceipt renders every observable field of a receipt into a
// canonical byte string. Two receipts encode equal iff they are
// observationally identical — the determinism tests and the eval
// harness compare serial and parallel execution through it.
func EncodeReceipt(r *chain.Receipt) []byte {
	var b bytes.Buffer
	var u64 [8]byte
	writeU64 := func(v uint64) {
		binary.BigEndian.PutUint64(u64[:], v)
		b.Write(u64[:])
	}
	writeBytes := func(p []byte) {
		writeU64(uint64(len(p)))
		b.Write(p)
	}

	b.Write(r.TxHash[:])
	if r.Status {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	writeU64(r.GasUsed)
	b.Write(r.ContractAddress[:])
	writeBytes(r.ReturnData)
	writeU64(uint64(len(r.Logs)))
	for _, lg := range r.Logs {
		b.Write(lg.Address[:])
		writeU64(uint64(len(lg.Topics)))
		for _, t := range lg.Topics {
			b.Write(t[:])
		}
		writeBytes(lg.Data)
	}
	writeU64(r.BlockNumber)
	if r.Err != nil {
		writeBytes([]byte(r.Err.Error()))
	} else {
		writeU64(0)
	}
	return b.Bytes()
}
