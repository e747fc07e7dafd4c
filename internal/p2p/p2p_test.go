package p2p

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tinyevm/internal/chain"
	"tinyevm/internal/codec"
	"tinyevm/internal/types"
)

// --- wire ----------------------------------------------------------------

func TestWireRoundTripAllTypes(t *testing.T) {
	for _, m := range seedMsgs(t) {
		frame := Encode(m)
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("Decode(%s): %v", m.msgType(), err)
		}
		if got.msgType() != m.msgType() {
			t.Fatalf("round trip changed type: %s -> %s", m.msgType(), got.msgType())
		}
		if !bytes.Equal(Encode(got), frame) {
			t.Fatalf("re-encode of %s not canonical", m.msgType())
		}
		// Semantic spot checks beyond byte identity: tx identity (hash
		// covers every signed field) and header structure survive.
		switch in := m.(type) {
		case *TxMsg:
			if out := got.(*TxMsg); out.Tx.Hash() != in.Tx.Hash() {
				t.Fatalf("tx hash diverged after round trip")
			}
		case *BlockMsg:
			out := got.(*BlockMsg)
			if !reflect.DeepEqual(out.Header, in.Header) {
				t.Fatalf("block header diverged: %+v vs %+v", out.Header, in.Header)
			}
			if len(out.Txs) != len(in.Txs) {
				t.Fatalf("block tx count diverged: %d vs %d", len(out.Txs), len(in.Txs))
			}
			for i := range in.Txs {
				if out.Txs[i].Hash() != in.Txs[i].Hash() {
					t.Fatalf("block tx %d hash diverged", i)
				}
			}
		}
	}
}

func TestWireDecodeRejectsOversizedClaims(t *testing.T) {
	cases := map[string][]byte{
		"empty frame":   {},
		"unknown type":  {0x7f},
		"headers count": append([]byte{byte(TypeHeaders)}, 0xff, 0xff, 0xff, 0xff),
		"blocks count":  append([]byte{byte(TypeBlocks)}, 0xff, 0xff, 0xff, 0xff),
		"truncated tx":  {byte(TypeTx), 0x01},
	}
	// A tx whose Data length claims 2 MiB (over MaxTxData) in a tiny frame.
	w := &codec.Writer{Buf: []byte{byte(TypeTx)}}
	w.U64(0)
	w.U64(1)
	w.U64(1)
	w.U8(0)
	w.U64(0)
	w.U32(2 << 20)
	cases["oversized tx data"] = w.Buf

	for name, frame := range cases {
		if _, err := Decode(frame); err == nil {
			t.Errorf("%s: Decode accepted malformed frame", name)
		} else if !errors.Is(err, ErrBadMessage) && !errors.Is(err, ErrBadMsgType) {
			t.Errorf("%s: untyped error %v", name, err)
		}
	}
}

// TestWireGolden holds the wire to testdata/wire.golden — one hex line
// per seedMsgs message, written by the commit before the codec moved to
// internal/codec — in both directions.
func TestWireGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(data))
	msgs := seedMsgs(t)
	if len(lines) != len(msgs) {
		t.Fatalf("golden has %d frames, seedMsgs %d", len(lines), len(msgs))
	}
	for i, m := range msgs {
		if got := hex.EncodeToString(Encode(m)); got != lines[i] {
			t.Errorf("frame %d (%T) encodes differently:\n got %s\nwant %s", i, m, got, lines[i])
		}
		frame, _ := hex.DecodeString(lines[i])
		back, err := Decode(frame)
		if err != nil {
			t.Fatalf("golden frame %d: %v", i, err)
		}
		if !bytes.Equal(Encode(back), frame) {
			t.Errorf("golden frame %d does not survive decode + encode", i)
		}
	}
}

func TestWireDecodeRejectsTrailingBytes(t *testing.T) {
	frame := append(Encode(&GetHeaders{From: 1, Count: 2}), 0x00)
	if _, err := Decode(frame); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

// --- transports ----------------------------------------------------------

func testTransportRoundTrip(t *testing.T, tr Transport, addr string) {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	got := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		frame, err := c.Recv()
		if err != nil {
			return
		}
		got <- frame
		c.Send(frame) //nolint:errcheck // test echo
	}()

	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	want := []byte("frame-payload")
	if err := c.Send(want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case frame := <-got:
		if !bytes.Equal(frame, want) {
			t.Fatalf("server got %q, want %q", frame, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for frame")
	}
	echo, err := c.Recv()
	if err != nil {
		t.Fatalf("Recv echo: %v", err)
	}
	if !bytes.Equal(echo, want) {
		t.Fatalf("echo got %q, want %q", echo, want)
	}
}

func TestMemTransportRoundTrip(t *testing.T) {
	testTransportRoundTrip(t, NewMemNetwork(), "node-a")
}

func TestTCPTransportRoundTrip(t *testing.T) {
	testTransportRoundTrip(t, &TCP{}, "127.0.0.1:0")
}

func TestMemDialUnknownAddr(t *testing.T) {
	if _, err := NewMemNetwork().Dial("nowhere"); !errors.Is(err, ErrMemNoService) {
		t.Fatalf("got %v, want ErrMemNoService", err)
	}
}

// --- gossip node ---------------------------------------------------------

// recordingHandler counts deliveries and accepts everything.
type recordingHandler struct {
	mu     sync.Mutex
	txs    []*chain.Transaction
	blocks []*BlockMsg
	height uint64
	head   types.Hash
}

func (h *recordingHandler) HandleTx(tx *chain.Transaction, from string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.txs = append(h.txs, tx)
	return true
}

func (h *recordingHandler) HandleBlock(b *BlockMsg, from string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.blocks = append(h.blocks, b)
	return true
}

func (h *recordingHandler) ServeHeaders(from, count uint64) []Header {
	return []Header{{Number: from}}
}

func (h *recordingHandler) ServeBlocks(from, count uint64) []*BlockMsg {
	return []*BlockMsg{{Header: Header{Number: from}}}
}

func (h *recordingHandler) Status() (uint64, types.Hash) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.height, h.head
}

func (h *recordingHandler) txCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.txs)
}

func startNode(t *testing.T, net Transport, addr string, genesis types.Hash, peers ...string) (*Node, *recordingHandler) {
	t.Helper()
	h := &recordingHandler{}
	n, err := NewNode(Config{
		Transport: net,
		Listen:    addr,
		Peers:     peers,
		Genesis:   genesis,
		Handler:   h,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("NewNode(%s): %v", addr, err)
	}
	if err := n.Start(); err != nil {
		t.Fatalf("Start(%s): %v", addr, err)
	}
	t.Cleanup(func() { n.Close() })
	return n, h
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestGossipFloodsLine verifies flooding relays across a line topology
// (A–B–C: C is not a direct peer of A) and that the dedup cache keeps
// redelivery out.
func TestGossipFloodsLine(t *testing.T) {
	net := NewMemNetwork()
	genesis := types.Hash{0x61}
	_, hb := startNode(t, net, "b", genesis)
	_, hc := startNode(t, net, "c", genesis, "b")
	na, _ := startNode(t, net, "a", genesis, "b")
	waitFor(t, "mesh", func() bool { return na.PeerCount() == 1 })

	tx := chain.NewTx(1, &types.Address{0x01}, 10, nil)
	na.BroadcastTx(tx)
	waitFor(t, "b got tx", func() bool { return hb.txCount() == 1 })
	waitFor(t, "c got tx via relay", func() bool { return hc.txCount() == 1 })

	// Rebroadcast: dedup on A suppresses the send entirely.
	na.BroadcastTx(tx)
	time.Sleep(50 * time.Millisecond)
	if got := hb.txCount(); got != 1 {
		t.Fatalf("b received duplicate gossip: %d deliveries", got)
	}
}

func TestHandshakeRejectsWrongGenesis(t *testing.T) {
	net := NewMemNetwork()
	_, _ = startNode(t, net, "srv", types.Hash{1})
	nb, hb := startNode(t, net, "cli", types.Hash{2}, "srv")
	time.Sleep(100 * time.Millisecond)
	if nb.PeerCount() != 0 {
		t.Fatal("peer with mismatched genesis connected")
	}
	if hb.txCount() != 0 {
		t.Fatal("unexpected delivery")
	}
}

func TestRequestResponse(t *testing.T) {
	net := NewMemNetwork()
	_, _ = startNode(t, net, "srv", types.Hash{7})
	n, _ := startNode(t, net, "", types.Hash{7})

	resp, hello, err := n.Request(context.Background(), "srv", &GetHeaders{From: 3, Count: 1})
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	if hello == nil || hello.Version != ProtocolVersion {
		t.Fatalf("bad hello: %+v", hello)
	}
	hs, ok := resp.(*Headers)
	if !ok {
		t.Fatalf("got %T, want *Headers", resp)
	}
	if len(hs.Headers) != 1 || hs.Headers[0].Number != 3 {
		t.Fatalf("bad response: %+v", hs)
	}
}

func TestRequestHonoursContext(t *testing.T) {
	net := NewMemNetwork()
	// Listener that accepts but never completes the handshake.
	l, err := net.Listen("mute")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	n, _ := startNode(t, net, "", types.Hash{7})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, _, err := n.Request(ctx, "mute", &GetHeaders{From: 0, Count: 1}); err == nil {
		t.Fatal("Request returned without error against mute peer")
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	n, _ := startNode(t, NewMemNetwork(), "x", types.Hash{})
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSlowPeerDoesNotBlockBroadcast pins the drop-on-full guarantee:
// filling a peer's send queue must leave BroadcastTx non-blocking.
func TestSlowPeerDoesNotBlockBroadcast(t *testing.T) {
	net := NewMemNetwork()
	// A raw listener that handshakes but never reads afterwards.
	l, err := net.Listen("stall")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	genesis := types.Hash{0x5a}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		if _, err := c.Recv(); err != nil { // dialer's hello
			return
		}
		c.Send(Encode(&Hello{Version: ProtocolVersion, Genesis: genesis})) //nolint:errcheck
		// ... then stall forever without reading.
		select {}
	}()

	n, _ := startNode(t, net, "", genesis, "stall")
	waitFor(t, "stalled peer", func() bool { return n.PeerCount() == 1 })

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < sendQueueLen+128; i++ {
			to := types.Address{byte(i), byte(i >> 8)}
			n.BroadcastTx(chain.NewTx(uint64(i), &to, 1, []byte(fmt.Sprintf("%d", i))))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast blocked on a slow peer")
	}
}
