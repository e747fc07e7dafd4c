// Command tinyevm-load is the city-scale load harness: it drives a
// TinyEVM gateway with a simulated fleet of vehicles, parking meters
// and sensor oracles, injects faults (client kills, dropped/delayed RPC
// responses, daemon SIGKILL + WAL recovery), and reports latency
// quantiles, throughput, an error taxonomy and recovery times.
//
// Point it at a running gateway:
//
//	tinyevm-load -url http://127.0.0.1:8545 -duration 10s
//
// or let it spawn (and crash, and recover) its own daemon:
//
//	tinyevm-load -spawn -daemon-kills 2 -duration 30s
//
// -mode contracts skips the RPC harness and instead runs the in-process
// contract workload suite (ERC-20 token, counter, donate — see
// internal/eval); -mode all runs both. The exit code is the gate: 1
// when any error fell outside the taxonomy or a daemon recovery failed.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tinyevm/internal/eval"
	"tinyevm/internal/load"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		url     = flag.String("url", "", "target gateway URL (mutually exclusive with -spawn)")
		targets = flag.String("targets", "", "comma-separated gateway URLs of a daemon cluster; vehicles are spread sticky across them and the report adds per-node buckets")
		mode    = flag.String("mode", "rpc", "rpc | contracts | all")

		spawn       = flag.Bool("spawn", false, "build and manage a tinyevm-serve child (required for -daemon-kills)")
		serveBin    = flag.String("serve-bin", "", "path to a prebuilt tinyevm-serve (default: go build it)")
		dataDir     = flag.String("data-dir", "", "WAL directory for the spawned daemon (default: temp dir)")
		provider    = flag.String("provider", "city", "provider node name for the spawned daemon")
		daemonFlags = flag.String("daemon-args", "", "extra args for the spawned daemon (space-separated)")

		profiles    = flag.String("profiles", "all", "comma-separated contention profiles: disjoint,hotspot,fanin")
		arrival     = flag.String("arrival", "closed", "closed (fixed workers) | poisson (open loop)")
		rate        = flag.Float64("rate", 50, "poisson session arrivals per second")
		concurrency = flag.Int("concurrency", 8, "workers (closed) / max in-flight sessions (poisson)")
		vehicles    = flag.Int("vehicles", 16, "paying-device population")
		hotMeters   = flag.Int("hot-meters", 4, "meter count for the hotspot profile")
		duration    = flag.Duration("duration", 5*time.Second, "measurement window per profile")
		payments    = flag.Int("payments", 10, "payments per session")
		batch       = flag.Int("batch", 1, "group this many payments into one JSON-RPC batch request (1 = no batching)")
		deposit     = flag.Uint64("deposit", 10_000, "channel deposit")
		amount      = flag.Uint64("amount", 5, "per-payment amount")
		depositEach = flag.Int("deposit-every", 7, "every k-th session locks funds on-chain (seals a block); 0 disables")
		seed        = flag.Int64("seed", 1, "fault/arrival seed (reports are reproducible per seed)")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-RPC-attempt timeout")
		retries     = flag.Int("retries", 3, "transport-level retries per RPC")

		clientKill  = flag.Float64("client-kill", 0, "probability a session dies mid-payment")
		dropRate    = flag.Float64("drop", 0, "probability an RPC response is dropped")
		delayRate   = flag.Float64("delay", 0, "probability an RPC round trip is delayed")
		delayMax    = flag.Duration("delay-max", 50*time.Millisecond, "max injected delay")
		daemonKills = flag.Int("daemon-kills", 0, "SIGKILL+recover cycles against the spawned daemon")

		wlAccounts = flag.Int("wl-accounts", 32, "contract workloads: sender accounts")
		wlTxs      = flag.Int("wl-txs", 512, "contract workloads: transactions per scenario")
		wlBlock    = flag.Int("wl-block", 128, "contract workloads: transactions per block")
		wlWorkers  = flag.Int("wl-workers", 0, "contract workloads: engine workers (0 = serial)")
	)
	flag.Parse()

	profs, err := load.ParseProfiles(*profiles)
	if err != nil {
		return fail(err)
	}
	if *mode != "rpc" && *mode != "contracts" && *mode != "all" {
		return fail(fmt.Errorf("bad -mode %q (want rpc, contracts or all)", *mode))
	}
	targetList := splitList(*targets)
	runRPC := *mode != "contracts"
	if runRPC && *url == "" && len(targetList) == 0 && !*spawn {
		return fail(fmt.Errorf("need -url, -targets or -spawn for -mode %s", *mode))
	}
	if len(targetList) > 0 && (*url != "" || *spawn) {
		return fail(fmt.Errorf("-targets is mutually exclusive with -url and -spawn"))
	}
	if *daemonKills > 0 && !*spawn {
		return fail(fmt.Errorf("-daemon-kills requires -spawn (the harness must own the process it crashes)"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	gate := 0

	if runRPC {
		var daemon *load.Daemon
		if *spawn {
			daemon, err = spawnDaemon(ctx, *serveBin, *dataDir, *provider, *daemonFlags)
			if err != nil {
				return fail(err)
			}
			defer daemon.Stop()
		}
		cfg := load.Config{
			URL:            *url,
			Targets:        targetList,
			Profiles:       profs,
			Vehicles:       *vehicles,
			HotMeters:      *hotMeters,
			Arrival:        *arrival,
			Rate:           *rate,
			Concurrency:    *concurrency,
			Duration:       *duration,
			Payments:       *payments,
			Batch:          *batch,
			ChannelDeposit: *deposit,
			Amount:         *amount,
			DepositEvery:   *depositEach,
			Seed:           *seed,
			RequestTimeout: *timeout,
			Retries:        *retries,
			Faults: load.FaultConfig{
				ClientKillRate: *clientKill,
				DropRate:       *dropRate,
				DelayRate:      *delayRate,
				DelayMax:       *delayMax,
				DaemonKills:    *daemonKills,
			},
		}
		runner := load.New(cfg, daemon)
		if kills := runner.Plan().KillTimes(); len(kills) > 0 {
			fmt.Printf("fault plan (seed %d): daemon kills at %v\n", *seed, kills)
		}
		rep, err := runner.Run(ctx)
		if err != nil {
			return fail(err)
		}
		fmt.Print(rep)
		if err := rep.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "tinyevm-load: GATE FAILED: %v\n", err)
			gate = 1
		}
	}

	if *mode == "contracts" || *mode == "all" {
		p := eval.WorkloadParams{Accounts: *wlAccounts, Txs: *wlTxs, BlockSize: *wlBlock, Workers: *wlWorkers}
		for _, spec := range eval.ContractWorkloads() {
			res, err := eval.RunContractWorkload(ctx, spec, p)
			if err != nil {
				return fail(fmt.Errorf("workload %s: %w", spec.Name, err))
			}
			fmt.Println(res)
			if res.Failed > 0 {
				fmt.Fprintf(os.Stderr, "tinyevm-load: GATE FAILED: %s: %d failed transactions\n",
					res.Name, res.Failed)
				gate = 1
			}
		}
	}

	return gate
}

// spawnDaemon builds (if needed) and starts a managed tinyevm-serve.
func spawnDaemon(ctx context.Context, bin, dataDir, provider, extra string) (*load.Daemon, error) {
	if bin == "" {
		tmp, err := os.MkdirTemp("", "tinyevm-load-bin-")
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "tinyevm-load: building tinyevm-serve...")
		bin, err = load.BuildServeBinary("", tmp)
		if err != nil {
			return nil, err
		}
	}
	if dataDir == "" {
		var err error
		dataDir, err = os.MkdirTemp("", "tinyevm-load-wal-")
		if err != nil {
			return nil, err
		}
	}
	addr, err := load.FreeAddr()
	if err != nil {
		return nil, err
	}
	d := &load.Daemon{Bin: bin, Addr: addr, DataDir: dataDir, Provider: provider, Log: os.Stderr}
	if extra != "" {
		d.ExtraArgs = append(d.ExtraArgs, splitArgs(extra)...)
	}
	if err := d.Start(); err != nil {
		return nil, err
	}
	readyCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := d.WaitReady(readyCtx); err != nil {
		d.Stop()
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "tinyevm-load: daemon ready at %s (wal: %s)\n", d.URL(), dataDir)
	return d, nil
}

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, f := range bytes.Split([]byte(s), []byte(",")) {
		if item := string(bytes.TrimSpace(f)); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// splitArgs splits on spaces (no quoting; daemon flags are simple).
func splitArgs(s string) []string {
	var out []string
	for _, f := range bytes.Fields([]byte(s)) {
		out = append(out, string(f))
	}
	return out
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "tinyevm-load: %v\n", err)
	return 1
}
