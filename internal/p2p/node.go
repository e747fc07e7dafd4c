package p2p

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tinyevm/internal/chain"
	"tinyevm/internal/types"
)

// Handshake errors.
var (
	ErrVersionMismatch = errors.New("p2p: protocol version mismatch")
	ErrGenesisMismatch = errors.New("p2p: genesis hash mismatch")
	ErrNodeClosed      = errors.New("p2p: node closed")
)

// sendQueueLen bounds the per-peer outbound queue. Gossip sends are
// fire-and-forget: when a peer's queue is full the frame is dropped for
// that peer (it will catch up through state sync) — a slow peer must
// never block a send path that runs under the cluster lock.
const sendQueueLen = 256

// seenCacheSize bounds the gossip dedup cache (ring eviction).
const seenCacheSize = 8192

// Handler receives validated-at-the-codec-level gossip and serves sync
// requests. Callbacks run on peer reader goroutines, potentially
// concurrently; implementations do their own locking. The bool results
// report "fresh and acceptable" — only then is the message relayed on.
type Handler interface {
	// HandleTx delivers one gossiped transaction.
	HandleTx(tx *chain.Transaction, from string) bool
	// HandleBlock delivers one gossiped block.
	HandleBlock(b *BlockMsg, from string) bool
	// ServeHeaders answers a GetHeaders request.
	ServeHeaders(from, count uint64) []Header
	// ServeBlocks answers a GetBlocks request.
	ServeBlocks(from, count uint64) []*BlockMsg
	// Status reports the local chain height and head hash (for Hello).
	Status() (height uint64, head types.Hash)
}

// Config parameterises a Node.
type Config struct {
	// Transport carries the frames; required.
	Transport Transport
	// Listen is the local bind address ("" = outbound only).
	Listen string
	// Peers are addresses this node maintains persistent outbound
	// connections to (redialled with backoff until Close).
	Peers []string
	// Genesis is this chain's genesis hash; the handshake rejects peers
	// on a different chain.
	Genesis types.Hash
	// Handler is the gossip/sync sink; required.
	Handler Handler
	// Logf receives diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// Node is the p2p endpoint: it owns the listener, the persistent peer
// set, the dedup cache, and the broadcast fan-out.
type Node struct {
	cfg  Config
	logf func(string, ...any)

	mu       sync.Mutex
	listener Listener
	peers    map[*peer]struct{}
	seen     map[types.Hash]struct{}
	seenRing []types.Hash
	seenNext int
	closed   bool

	wg sync.WaitGroup
}

type peer struct {
	conn   Conn
	addr   string
	sendq  chan []byte
	done   chan struct{}
	once   sync.Once
	closeC func()
}

// NewNode builds a node; Start brings the network up.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, errors.New("p2p: Config.Transport is required")
	}
	if cfg.Handler == nil {
		return nil, errors.New("p2p: Config.Handler is required")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Node{
		cfg:   cfg,
		logf:  logf,
		peers: make(map[*peer]struct{}),
		seen:  make(map[types.Hash]struct{}),
	}, nil
}

// Start binds the listener (when configured) and begins maintaining
// outbound peer connections.
func (n *Node) Start() error {
	if n.cfg.Listen != "" {
		l, err := n.cfg.Transport.Listen(n.cfg.Listen)
		if err != nil {
			return err
		}
		n.mu.Lock()
		n.listener = l
		n.mu.Unlock()
		n.wg.Add(1)
		go n.acceptLoop(l)
	}
	for _, addr := range n.cfg.Peers {
		n.wg.Add(1)
		go n.dialLoop(addr)
	}
	return nil
}

// Close tears down the listener and every peer connection.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	l := n.listener
	peers := make([]*peer, 0, len(n.peers))
	for p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, p := range peers {
		p.close()
	}
	n.wg.Wait()
	return nil
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// PeerCount returns the number of live, handshaken connections.
func (n *Node) PeerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peers)
}

// --- gossip ------------------------------------------------------------

// markSeen records a gossip identity, returning false when it was
// already known. The cache is a ring: the oldest entry is evicted once
// seenCacheSize identities are tracked.
func (n *Node) markSeen(h types.Hash) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.seen[h]; dup {
		return false
	}
	n.seen[h] = struct{}{}
	if len(n.seenRing) < seenCacheSize {
		n.seenRing = append(n.seenRing, h)
	} else {
		delete(n.seen, n.seenRing[n.seenNext])
		n.seenRing[n.seenNext] = h
		n.seenNext = (n.seenNext + 1) % seenCacheSize
	}
	return true
}

// BroadcastBlock gossips a locally sealed block to every peer.
func (n *Node) BroadcastBlock(b *BlockMsg) {
	n.markSeen(b.Header.Hash)
	n.relay(Encode(b), nil)
}

// relay fans a frame out to every peer except the originator.
func (n *Node) relay(frame []byte, except *peer) {
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for p := range n.peers {
		if p != except {
			peers = append(peers, p)
		}
	}
	n.mu.Unlock()
	for _, p := range peers {
		p.trySend(frame)
	}
}

// trySend enqueues a frame without blocking; a full queue drops it.
func (p *peer) trySend(frame []byte) {
	select {
	case p.sendq <- frame:
	case <-p.done:
	default:
	}
}

func (p *peer) close() {
	p.once.Do(func() {
		close(p.done)
		p.conn.Close()
	})
}

// --- connection lifecycle ----------------------------------------------

func (n *Node) acceptLoop(l Listener) {
	defer n.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			// Inbound side: the dialer speaks first.
			if err := n.expectHello(conn); err != nil {
				n.logf("p2p: inbound %s handshake: %v", conn.RemoteAddr(), err)
				conn.Close()
				return
			}
			if err := n.sendHello(conn); err != nil {
				conn.Close()
				return
			}
			n.runPeer(conn, conn.RemoteAddr())
		}()
	}
}

// dialLoop maintains one persistent outbound connection, redialling
// with linear backoff (capped) until the node closes.
func (n *Node) dialLoop(addr string) {
	defer n.wg.Done()
	backoff := 100 * time.Millisecond
	const maxBackoff = 3 * time.Second
	for !n.isClosed() {
		conn, err := n.cfg.Transport.Dial(addr)
		if err == nil {
			err = n.sendHello(conn)
			if err == nil {
				err = n.expectHello(conn)
			}
			if err == nil {
				backoff = 100 * time.Millisecond
				n.runPeer(conn, addr)
				continue
			}
			conn.Close()
		}
		if n.isClosed() {
			return
		}
		n.logf("p2p: dial %s: %v (retry in %v)", addr, err, backoff)
		time.Sleep(backoff)
		if backoff < maxBackoff {
			backoff += 100 * time.Millisecond
		}
	}
}

func (n *Node) sendHello(conn Conn) error {
	height, head := n.cfg.Handler.Status()
	return conn.Send(Encode(&Hello{
		Version: ProtocolVersion,
		Genesis: n.cfg.Genesis,
		Height:  height,
		Head:    head,
	}))
}

func (n *Node) expectHello(conn Conn) error {
	frame, err := conn.Recv()
	if err != nil {
		return err
	}
	m, err := Decode(frame)
	if err != nil {
		return err
	}
	hello, ok := m.(*Hello)
	if !ok {
		return fmt.Errorf("%w: expected hello, got %s", ErrBadMessage, m.msgType())
	}
	if hello.Version != ProtocolVersion {
		return fmt.Errorf("%w: local %d, peer %d", ErrVersionMismatch, ProtocolVersion, hello.Version)
	}
	if hello.Genesis != n.cfg.Genesis {
		return fmt.Errorf("%w: local %s, peer %s", ErrGenesisMismatch, n.cfg.Genesis, hello.Genesis)
	}
	return nil
}

// runPeer registers a handshaken connection and pumps it until either
// side closes. It returns when the connection is gone.
func (n *Node) runPeer(conn Conn, addr string) {
	p := &peer{
		conn:  conn,
		addr:  addr,
		sendq: make(chan []byte, sendQueueLen),
		done:  make(chan struct{}),
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return
	}
	n.peers[p] = struct{}{}
	n.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for {
			select {
			case frame := <-p.sendq:
				if err := conn.Send(frame); err != nil {
					p.close()
					return
				}
			case <-p.done:
				return
			}
		}
	}()

	for { // reader
		frame, err := conn.Recv()
		if err != nil {
			break
		}
		if err := n.handleFrame(p, frame); err != nil {
			n.logf("p2p: peer %s: %v", addr, err)
			break
		}
	}
	p.close()
	n.mu.Lock()
	delete(n.peers, p)
	n.mu.Unlock()
	wg.Wait()
}

// handleFrame dispatches one inbound frame. Malformed input returns the
// (typed) decode error, which disconnects the peer.
func (n *Node) handleFrame(p *peer, frame []byte) error {
	m, err := Decode(frame)
	if err != nil {
		return err
	}
	switch v := m.(type) {
	case *Hello:
		// Late status refresh; nothing to do — sync pulls explicitly.
		return nil
	case *TxMsg:
		if !n.markSeen(v.Tx.Hash()) {
			return nil
		}
		if n.cfg.Handler.HandleTx(v.Tx, p.addr) {
			n.relay(frame, p)
		}
	case *BlockMsg:
		if !n.markSeen(v.Header.Hash) {
			return nil
		}
		if n.cfg.Handler.HandleBlock(v, p.addr) {
			n.relay(frame, p)
		}
	case *GetHeaders:
		hs := n.cfg.Handler.ServeHeaders(v.From, min64(v.Count, MaxHeaders))
		p.trySend(Encode(&Headers{Headers: hs}))
	case *GetBlocks:
		bs := n.cfg.Handler.ServeBlocks(v.From, min64(v.Count, MaxBlocks))
		p.trySend(Encode(&Blocks{Blocks: bs}))
	case *Headers, *Blocks:
		// Unsolicited sync responses on a gossip connection: ignore.
		return nil
	}
	return nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// --- request/response --------------------------------------------------

// Request performs one synchronous request/response exchange over an
// ephemeral connection to addr: dial, handshake, send req, await the
// reply. State sync uses it so bulk transfers never contend with the
// gossip queues. The peer's Hello is returned alongside the response.
func (n *Node) Request(ctx context.Context, addr string, req Msg) (Msg, *Hello, error) {
	if n.isClosed() {
		return nil, nil, ErrNodeClosed
	}
	conn, err := n.cfg.Transport.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()

	// Honour ctx while blocked on the connection.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()

	if err := n.sendHello(conn); err != nil {
		return nil, nil, err
	}
	frame, err := conn.Recv()
	if err != nil {
		return nil, nil, err
	}
	m, err := Decode(frame)
	if err != nil {
		return nil, nil, err
	}
	hello, ok := m.(*Hello)
	if !ok {
		return nil, nil, fmt.Errorf("%w: expected hello, got %s", ErrBadMessage, m.msgType())
	}
	if hello.Version != ProtocolVersion {
		return nil, nil, fmt.Errorf("%w: local %d, peer %d", ErrVersionMismatch, ProtocolVersion, hello.Version)
	}
	if hello.Genesis != n.cfg.Genesis {
		return nil, nil, fmt.Errorf("%w: local %s, peer %s", ErrGenesisMismatch, n.cfg.Genesis, hello.Genesis)
	}
	if err := conn.Send(Encode(req)); err != nil {
		return nil, nil, err
	}
	frame, err = conn.Recv()
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}
	resp, err := Decode(frame)
	if err != nil {
		return nil, nil, err
	}
	return resp, hello, nil
}
