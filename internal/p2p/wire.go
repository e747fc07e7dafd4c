// Package p2p is the cluster networking layer: a message-framed
// transport abstraction (TCP for deployments, in-process for tests),
// peer lifecycle with a genesis/version handshake, and gossip of
// transactions and sealed blocks backed by a dedup cache.
//
// The wire codec below is deliberately defensive: every message decodes
// through internal/codec's bounds-checked reader with hard caps on
// element counts and byte lengths, and malformed input from a peer
// yields a typed ErrBadMessage — never a panic and never an
// attacker-sized allocation. FuzzWireCodec pins both properties.
package p2p

import (
	"errors"
	"fmt"

	"tinyevm/internal/chain"
	"tinyevm/internal/codec"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
)

// ProtocolVersion is negotiated in the handshake; nodes speaking a
// different version are disconnected.
const ProtocolVersion uint32 = 1

// Decode caps. A peer claiming more than these is malformed by
// definition; the caps also bound what a single frame can make the
// decoder allocate.
const (
	// MaxTxData bounds one transaction's calldata.
	MaxTxData = 1 << 20 // 1 MiB
	// MaxBlockTxs bounds transactions per gossiped block.
	MaxBlockTxs = 4096
	// MaxHeaders bounds headers per sync response.
	MaxHeaders = 4096
	// MaxBlocks bounds blocks per sync response.
	MaxBlocks = 512
)

// Typed decode errors.
var (
	// ErrBadMessage marks a structurally invalid message.
	ErrBadMessage = errors.New("p2p: malformed message")
	// ErrBadMsgType marks an unknown message type byte.
	ErrBadMsgType = errors.New("p2p: unknown message type")
)

// MsgType tags a wire message.
type MsgType byte

// Message types.
const (
	TypeHello MsgType = 1 + iota
	TypeTx
	TypeBlock
	TypeGetHeaders
	TypeHeaders
	TypeGetBlocks
	TypeBlocks
)

func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeTx:
		return "tx"
	case TypeBlock:
		return "block"
	case TypeGetHeaders:
		return "get-headers"
	case TypeHeaders:
		return "headers"
	case TypeGetBlocks:
		return "get-blocks"
	case TypeBlocks:
		return "blocks"
	}
	return fmt.Sprintf("type-%d", byte(t))
}

// Msg is one decoded wire message.
type Msg interface{ msgType() MsgType }

// Hello opens every connection: both sides must agree on the protocol
// version and the genesis hash before anything else is exchanged. The
// sender's chain height and head hash ride along so peers learn who is
// ahead without a separate status message.
type Hello struct {
	Version uint32
	Genesis types.Hash
	Height  uint64
	Head    types.Hash
}

// TxMsg gossips one signed transaction.
type TxMsg struct {
	Tx *chain.Transaction
}

// Header is a block header plus its transaction hashes — everything
// blockHash covers, so a header chain can be verified without bodies.
type Header struct {
	Number     uint64
	ParentHash types.Hash
	Hash       types.Hash
	Timestamp  uint64
	Coinbase   types.Address
	GasUsed    uint64
	TxHashes   []types.Hash
}

// BlockMsg gossips one sealed block with full transaction bodies, the
// proposer's signature over the block hash, and the sealing node's
// post-state digest (meaningful under strict-digest clusters; advisory
// otherwise — see internal/cluster).
type BlockMsg struct {
	Header Header
	Txs    []*chain.Transaction
	// Sig is the proposer's 65-byte signature over Header.Hash; the
	// recovered address must equal Header.Coinbase.
	Sig []byte
	// StateDigest is the proposer's state digest after applying the
	// block.
	StateDigest types.Hash
}

// GetHeaders requests up to Count headers starting at block From.
type GetHeaders struct {
	From  uint64
	Count uint64
}

// Headers answers GetHeaders.
type Headers struct {
	Headers []Header
}

// GetBlocks requests up to Count full blocks starting at block From.
type GetBlocks struct {
	From  uint64
	Count uint64
}

// Blocks answers GetBlocks.
type Blocks struct {
	Blocks []*BlockMsg
}

func (Hello) msgType() MsgType      { return TypeHello }
func (TxMsg) msgType() MsgType      { return TypeTx }
func (BlockMsg) msgType() MsgType   { return TypeBlock }
func (GetHeaders) msgType() MsgType { return TypeGetHeaders }
func (Headers) msgType() MsgType    { return TypeHeaders }
func (GetBlocks) msgType() MsgType  { return TypeGetBlocks }
func (Blocks) msgType() MsgType     { return TypeBlocks }

// PeekType returns the message type of an encoded frame.
func PeekType(buf []byte) (MsgType, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("%w: empty frame", ErrBadMessage)
	}
	t := MsgType(buf[0])
	if t < TypeHello || t > TypeBlocks {
		return 0, fmt.Errorf("%w: %d", ErrBadMsgType, buf[0])
	}
	return t, nil
}

// Encode serializes any wire message with its leading type byte.
func Encode(m Msg) []byte {
	w := &codec.Writer{Buf: []byte{byte(m.msgType())}}
	switch v := m.(type) {
	case *Hello:
		w.U32(v.Version)
		w.Hash(v.Genesis)
		w.U64(v.Height)
		w.Hash(v.Head)
	case *TxMsg:
		writeTx(w, v.Tx)
	case *BlockMsg:
		writeBlock(w, v)
	case *GetHeaders:
		w.U64(v.From)
		w.U64(v.Count)
	case *Headers:
		w.U32(uint32(len(v.Headers)))
		for i := range v.Headers {
			writeHeader(w, &v.Headers[i])
		}
	case *GetBlocks:
		w.U64(v.From)
		w.U64(v.Count)
	case *Blocks:
		w.U32(uint32(len(v.Blocks)))
		for _, b := range v.Blocks {
			writeBlock(w, b)
		}
	default:
		panic(fmt.Sprintf("p2p: Encode of unregistered message %T", m))
	}
	return w.Buf
}

// Decode parses one frame. Every returned error wraps ErrBadMessage or
// ErrBadMsgType; Decode never panics on adversarial input and requires
// the frame to be fully consumed (no trailing garbage).
func Decode(buf []byte) (Msg, error) {
	t, err := PeekType(buf)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(buf[1:], ErrBadMessage)
	var m Msg
	switch t {
	case TypeHello:
		h := &Hello{Version: r.U32(), Genesis: r.Hash(), Height: r.U64(), Head: r.Hash()}
		m = h
	case TypeTx:
		m = &TxMsg{Tx: readTx(r)}
	case TypeBlock:
		m = readBlock(r)
	case TypeGetHeaders:
		m = &GetHeaders{From: r.U64(), Count: r.U64()}
	case TypeHeaders:
		n := r.Count(MaxHeaders)
		hs := &Headers{}
		for i := 0; i < n && r.Err() == nil; i++ {
			hs.Headers = append(hs.Headers, readHeader(r))
		}
		m = hs
	case TypeGetBlocks:
		m = &GetBlocks{From: r.U64(), Count: r.U64()}
	case TypeBlocks:
		n := r.Count(MaxBlocks)
		bs := &Blocks{}
		for i := 0; i < n && r.Err() == nil; i++ {
			bs.Blocks = append(bs.Blocks, readBlock(r))
		}
		m = bs
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- message bodies ----------------------------------------------------

func writeTx(w *codec.Writer, tx *chain.Transaction) {
	w.U64(tx.Nonce)
	w.U64(tx.GasPrice)
	w.U64(tx.GasLimit)
	if tx.To != nil {
		w.U8(1)
		w.Addr(*tx.To)
	} else {
		w.U8(0)
	}
	w.U64(tx.Value)
	w.Bytes(tx.Data)
	if tx.Sig != nil {
		w.U8(1)
		w.Raw(tx.Sig.Serialize())
	} else {
		w.U8(0)
	}
}

func writeHeader(w *codec.Writer, h *Header) {
	w.U64(h.Number)
	w.Hash(h.ParentHash)
	w.Hash(h.Hash)
	w.U64(h.Timestamp)
	w.Addr(h.Coinbase)
	w.U64(h.GasUsed)
	w.U32(uint32(len(h.TxHashes)))
	for _, th := range h.TxHashes {
		w.Hash(th)
	}
}

func writeBlock(w *codec.Writer, b *BlockMsg) {
	writeHeader(w, &b.Header)
	w.U32(uint32(len(b.Txs)))
	for _, tx := range b.Txs {
		writeTx(w, tx)
	}
	w.Bytes(b.Sig)
	w.Hash(b.StateDigest)
}

func readTx(r *codec.Reader) *chain.Transaction {
	tx := &chain.Transaction{
		Nonce:    r.U64(),
		GasPrice: r.U64(),
		GasLimit: r.U64(),
	}
	switch r.U8() {
	case 0:
	case 1:
		a := r.Addr()
		tx.To = &a
	default:
		r.Fail("invalid to-address flag")
	}
	tx.Value = r.U64()
	tx.Data = r.Bytes(MaxTxData)
	switch sigFlag := r.U8(); {
	case sigFlag == 0 || r.Err() != nil:
	case sigFlag != 1:
		r.Fail("invalid signature flag")
	default:
		raw := r.Fixed(secp256k1.SignatureLength)
		if r.Err() != nil {
			return nil
		}
		sig, err := secp256k1.ParseSignature(raw)
		if err != nil {
			r.Fail("transaction signature: %v", err)
			return nil
		}
		tx.Sig = sig
	}
	if r.Err() != nil {
		return nil
	}
	return tx
}

func readHeader(r *codec.Reader) Header {
	h := Header{
		Number:     r.U64(),
		ParentHash: r.Hash(),
		Hash:       r.Hash(),
		Timestamp:  r.U64(),
		Coinbase:   r.Addr(),
		GasUsed:    r.U64(),
	}
	n := r.Count(MaxBlockTxs)
	for i := 0; i < n && r.Err() == nil; i++ {
		h.TxHashes = append(h.TxHashes, r.Hash())
	}
	return h
}

func readBlock(r *codec.Reader) *BlockMsg {
	b := &BlockMsg{Header: readHeader(r)}
	n := r.Count(MaxBlockTxs)
	for i := 0; i < n && r.Err() == nil; i++ {
		b.Txs = append(b.Txs, readTx(r))
	}
	b.Sig = r.Bytes(secp256k1.SignatureLength)
	b.StateDigest = r.Hash()
	if r.Err() != nil {
		return nil
	}
	return b
}
