// Command tinyevm-serve runs a TinyEVM deployment as a network daemon:
// a JSON-RPC 2.0 gateway over HTTP through which external clients
// create nodes, open off-chain payment channels, pay, subscribe to
// events (long-poll) and settle on the simulated main chain.
//
//	tinyevm-serve -addr :8545 -provider parking-lot
//	tinyevm-serve -addr :8545 -challenge 10 -data-dir /var/lib/tinyevm
//
// With -listen/-peers/-node-key/-validators, N daemons join into one
// replicated sidechain (see docs/CLUSTER.md):
//
//	tinyevm-serve -addr :8545 -listen :30301 -node-key n1 \
//	  -peers localhost:30302,localhost:30303 -validators n1,n2,n3
//
// A session from the shell:
//
//	curl -s -X POST localhost:8545 -d '{"jsonrpc":"2.0","id":1,
//	  "method":"tinyevm_addNode","params":{"name":"car"}}'
//	curl -s -X POST localhost:8545 -d '{"jsonrpc":"2.0","id":2,
//	  "method":"tinyevm_openChannel","params":{"node":"car",
//	  "peer":"parking-lot","deposit":10000}}'
//
// SIGINT/SIGTERM shut the daemon down cleanly: in-flight requests
// drain, subscriptions close, and the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tinyevm"
	"tinyevm/internal/rpc"
	"tinyevm/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8545", "HTTP listen address")
		provider  = flag.String("provider", "provider", "provider node name (payment receiver)")
		challenge = flag.Uint64("challenge", 10, "challenge period in blocks")
		lossRate  = flag.Float64("radio-loss", 0, "per-frame radio loss probability")
		radioSeed = flag.Int64("radio-seed", 1, "radio loss process seed")
		dataDir   = flag.String("data-dir", "", "persist the deployment to a write-ahead log in this directory; on restart the previous state (nodes, channels, balances, blocks) is recovered (cluster mode persists the block archive here instead)")
		backend   = flag.String("backend", "wal", "storage engine under -data-dir: wal (single rewritten log file) or disk (memtable + sorted segments with background compaction)")
		ckptEvery = flag.Uint64("checkpoint-interval", 64, "write a full state checkpoint every N sealed blocks and prune the folded-in op log, bounding restart time (0 disables; forced off in cluster mode)")
		stateMode = flag.String("state-commitment", "digest", "per-block state commitment: digest (legacy full-state hash) or mst (incremental Merkle-sum tree enabling tinyevm_stateProof); a -data-dir store is pinned to the mode that created it")

		// Cluster mode: N daemons form one sidechain (see docs/CLUSTER.md).
		listen        = flag.String("listen", "", "cluster p2p listen address (enables cluster mode together with -node-key/-validators)")
		peers         = flag.String("peers", "", "comma-separated cluster peer p2p addresses")
		nodeKey       = flag.String("node-key", "", "validator identity seed for this daemon")
		validators    = flag.String("validators", "", "comma-separated validator seeds of the full set, in schedule order (identical on every daemon)")
		blockInterval = flag.Duration("block-interval", time.Second, "heartbeat block production interval for the scheduled leader (cluster mode)")
		fallback      = flag.Duration("fallback", 10*time.Second, "let the next validator take an overdue round after this long (0 = strict single leader)")
		strictDigests = flag.Bool("strict-digests", false, "require applied blocks to reproduce the proposer's gas usage and state digest exactly")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	clusterMode := *nodeKey != "" || *validators != ""
	opts := []tinyevm.Option{
		tinyevm.WithChallengePeriod(*challenge),
		tinyevm.WithRadioLossRate(*lossRate),
		tinyevm.WithRadioSeed(*radioSeed),
	}
	if clusterMode {
		// The op-log journal is incompatible with replicated blocks;
		// -data-dir becomes the cluster block archive.
		cc := tinyevm.ClusterConfig{
			Listen:        *listen,
			Peers:         splitList(*peers),
			NodeKey:       *nodeKey,
			Validators:    splitList(*validators),
			BlockInterval: *blockInterval,
			FallbackAfter: *fallback,
			StrictDigests: *strictDigests,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "tinyevm-serve: "+format+"\n", args...)
			},
		}
		if *dataDir != "" {
			kv, err := store.OpenWAL(filepath.Join(*dataDir, "cluster.wal"))
			if err != nil {
				fatal(err)
			}
			defer kv.Close()
			cc.Store = kv
		}
		opts = append(opts, tinyevm.WithCluster(cc))
	} else if *dataDir != "" {
		opts = append(opts,
			tinyevm.WithDataDir(*dataDir),
			tinyevm.WithStoreBackend(*backend),
			tinyevm.WithCheckpointInterval(*ckptEvery),
		)
	}
	switch *stateMode {
	case "digest":
	case "mst":
		opts = append(opts, tinyevm.WithMSTCommitment(true))
	default:
		fatal(fmt.Errorf("unknown -state-commitment %q (want digest or mst)", *stateMode))
	}
	svc, prov, err := tinyevm.NewService(*provider, opts...)
	if err != nil {
		fatal(err)
	}
	defer svc.Close()
	if *dataDir != "" && !clusterMode {
		// Recovery observability: where restart work came from (the
		// checkpoint) and how much was left to replay (the tail).
		ri := svc.RecoveryInfo()
		fmt.Fprintf(os.Stderr,
			"tinyevm-serve: recovered state from %s (head block %d, checkpoint height %d, replayed %d tail ops; store open %s, checkpoint load %s, replay %s)\n",
			*dataDir, mustHead(ctx, svc), ri.CheckpointHeight, ri.ReplayedOps,
			ri.StoreOpen.Round(time.Microsecond), ri.CheckpointLoad.Round(time.Microsecond), ri.Replay.Round(time.Microsecond))
	} else if *dataDir != "" {
		fmt.Fprintf(os.Stderr, "tinyevm-serve: recovered state from %s (head block %d)\n",
			*dataDir, mustHead(ctx, svc))
	}
	// Journaled default sensor: replayed on recovery before any channel
	// contract reads it; re-registering the same value is idempotent.
	if err := prov.RegisterSensorValue(ctx, tinyevm.SensorTemperature, rpc.DefaultSensorValue); err != nil {
		fatal(err)
	}

	server := newHTTPServer(*addr, rpc.NewServer(svc))
	server.BaseContext = func(net.Listener) context.Context { return ctx }

	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "tinyevm-serve: provider %q (%s) listening on %s\n",
		prov.Name(), prov.Address(), *addr)

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "tinyevm-serve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil {
			fatal(err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers. Bodies are capped by the gateway (1 MiB); without
// this a connection that never finishes its headers holds a goroutine
// and a descriptor for the life of the daemon.
const readHeaderTimeout = 10 * time.Second

func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
}

func mustHead(ctx context.Context, svc *tinyevm.Service) uint64 {
	head, err := svc.HeadBlock(ctx)
	if err != nil {
		fatal(err)
	}
	return head
}

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tinyevm-serve: %v\n", err)
	os.Exit(1)
}
