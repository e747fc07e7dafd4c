package main

// Shared set-up pieces: opening a service the way the daemon does (or
// over the tracing store), serving it on real loopback HTTP, and
// deploying the three call-workload contracts.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tinyevm"
	"tinyevm/internal/eval"
	"tinyevm/internal/rpc"
	"tinyevm/internal/store"
	"tinyevm/internal/store/disk"
)

// sensorValue is the fixed temperature reading every node registers
// (the RPC gateway's default), which channel constructors read through
// the IoT opcode.
const sensorValue = rpc.DefaultSensorValue

// checkpointInterval is the daemon's cadence in every durable workload.
const checkpointInterval = 64

// deployment is one service plus what the harness must close with it.
type deployment struct {
	svc      *tinyevm.Service
	provider *tinyevm.ServiceNode
	// inner is the store the harness opened itself (traced instances);
	// nil when the service owns its store through WithDataDir.
	inner store.KVStore
	// openDur is how long opening inner took (recover.store_open_ms).
	openDur time.Duration
}

// openBackend opens the store WithDataDir would open, at the same path.
func openBackend(dir, backend string) (store.KVStore, error) {
	if backend == "disk" {
		return disk.Open(filepath.Join(dir, "store"))
	}
	return store.OpenWAL(filepath.Join(dir, "tinyevm.wal"))
}

// openDeployment starts a service named provider. dir == "" keeps it in
// memory. Untraced, a durable service is opened exactly as the daemon
// opens it (WithDataDir, fsync on); traced, the harness opens the same
// backend at the same path and hands it over wrapped, through WithStore.
// extra options come last, so they override the defaults set here.
func openDeployment(provider, dir, backend string, tr *tracer, extra ...tinyevm.Option) (*deployment, error) {
	d := &deployment{}
	var opts []tinyevm.Option
	switch {
	case dir == "":
	case tr == nil:
		opts = append(opts, tinyevm.WithDataDir(dir), tinyevm.WithStoreBackend(backend),
			tinyevm.WithCheckpointInterval(checkpointInterval))
	default:
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		kv, err := openBackend(dir, backend)
		if err != nil {
			return nil, err
		}
		d.openDur = time.Since(t0)
		d.inner = kv
		opts = append(opts, tinyevm.WithStore(&tracedKV{inner: kv, t: tr}),
			tinyevm.WithCheckpointInterval(checkpointInterval))
	}
	svc, prov, err := tinyevm.NewService(provider, append(opts, extra...)...)
	if err != nil {
		if d.inner != nil {
			d.inner.Close()
		}
		return nil, err
	}
	d.svc, d.provider = svc, prov
	return d, nil
}

func (d *deployment) close() {
	if d == nil || d.svc == nil {
		return
	}
	d.svc.Close()
	if d.inner != nil {
		d.inner.Close()
	}
}

// storeStats reads the backend's vitals whoever owns the store.
func (d *deployment) storeStats() (store.Stats, bool) {
	if sp, ok := d.inner.(store.StatsProvider); ok {
		return sp.Stats(), true
	}
	st, ok, err := d.svc.StoreStatus(context.Background())
	if err != nil || !ok {
		return store.Stats{}, false
	}
	return store.Stats{Kind: st.Kind, Segments: st.Segments, SegmentBytes: st.SegmentBytes,
		MemtableBytes: st.MemtableBytes, Flushes: st.Flushes, Compactions: st.Compactions}, true
}

// gateway serves a service's JSON-RPC handler on a real loopback socket.
type gateway struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startGateway(svc *tinyevm.Service, tr *tracer) (*gateway, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = rpc.NewServer(svc)
	if tr != nil {
		h = &tracedHandler{inner: h, t: tr}
	}
	g := &gateway{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		g.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return g, nil
}

func (g *gateway) close() {
	if g == nil {
		return
	}
	g.srv.Close()
	<-g.done
}

// newClient returns an RPC client with one keep-alive connection of its
// own, as one device or one gateway worker would hold.
func newClient(url string, tr *tracer) (*rpc.Client, *http.Transport) {
	ht := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	var rt http.RoundTripper = ht
	if tr != nil {
		rt = &tracedRoundTripper{inner: ht, t: tr}
	}
	return rpc.NewClient(url, &http.Client{Transport: rt}), ht
}

// clientRNG is client c's input stream under seed: amounts, channel
// rotation order and contract mix are drawn from it, so the same seed
// gives the same inputs and clients never share a stream.
func clientRNG(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(c)))
}

// addDevice adds a node with the fixed sensor registered (journaled, so
// recovery restores it).
func addDevice(ctx context.Context, svc *tinyevm.Service, name string) (*tinyevm.ServiceNode, error) {
	n, err := svc.AddNode(ctx, name)
	if err != nil {
		return nil, err
	}
	if err := n.RegisterSensorValue(ctx, tinyevm.SensorTemperature, sensorValue); err != nil {
		return nil, err
	}
	return n, nil
}

// erc20Supply funds the deploying device's token balance; it outlasts
// any window at one token per transfer.
const erc20Supply = 1 << 40

// runtimeInit wraps runtime bytecode in a constructor that optionally
// credits the deployer `supply` tokens (storage key = caller address)
// and returns the runtime — what eval's own (unexported) deploy wrapper
// does, rebuilt here from the public assembler.
func runtimeInit(runtime []byte, supply uint64) ([]byte, error) {
	src := ""
	if supply > 0 {
		src = fmt.Sprintf("PUSH %d\nCALLER\nSSTORE\n", supply)
	}
	src += fmt.Sprintf(`
		PUSH %d
		DUP1
		PUSH :runtime
		PUSH 0
		CODECOPY
		PUSH 0
		RETURN
		:runtime
		DATA 0x%x
	`, len(runtime), runtime)
	return tinyevm.Assemble(src)
}

// contractCall is one of the three calls of the call workloads.
type contractCall struct {
	name  string
	init  []byte
	input []byte
}

// callMix returns the three contracts of the call workloads for a
// device at addr: erc20 transfer, counter increment, and the payment
// channel's sensorData() (the value its constructor read through the
// IoT opcode).
func callMix(addr tinyevm.Address) ([]contractCall, error) {
	rts := eval.WorkloadRuntimes()
	erc20, err := runtimeInit(rts["erc20"], erc20Supply)
	if err != nil {
		return nil, err
	}
	counter, err := runtimeInit(rts["inccounter"], 0)
	if err != nil {
		return nil, err
	}
	var to, one [32]byte
	to[31], one[31] = 0x42, 1
	peer, _ := tinyevm.HexToAddress("0x00000000000000000000000000000000000000ee")
	return []contractCall{
		{name: "erc20", init: erc20, input: eval.CallData(eval.Selector("transfer(address,uint256)"), to, one)},
		{name: "counter", init: counter},
		{name: "sensor", init: tinyevm.PaymentChannelInitCode(addr, peer, tinyevm.SensorTemperature, 0),
			input: tinyevm.Calldata("sensorData()")},
	}, nil
}

// wordUint decodes a 32-byte ABI return word that fits 64 bits.
func wordUint(b []byte) (uint64, bool) {
	if len(b) != 32 {
		return 0, false
	}
	var v uint64
	for i, c := range b {
		if i < 24 {
			if c != 0 {
				return 0, false
			}
			continue
		}
		v = v<<8 | uint64(c)
	}
	return v, true
}
