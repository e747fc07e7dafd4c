package main

// The metric catalogue. BENCHMARK.json at the repo root lists the same
// names, units and directions (a test keeps the two in step); the
// compare tool takes its regression bounds from here.

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of observations behind a timing (0 for
	// counts and ratios).
	Samples int `json:"samples,omitempty"`
	// Note flags a value the reader must not take at face value (a
	// clamped subtraction, a layer the workload does not exercise).
	Note string `json:"note,omitempty"`
}

// metricDef describes a metric: unit, direction, and for end-to-end
// metrics the share of the baseline median by which it may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	// Driver marks the end-to-end metrics the build driver reads
	// (BENCHMARK.json end_to_end): setup_s and the three quiet-host
	// figures. The driver repeats every run ten times and refuses a metric
	// whose runs spread by more than its bound. On this sandbox, whose
	// host slows whole runs for tens of seconds at a time, whole-window
	// throughput, median latency and CPU per op spread by 26-43 % between
	// quartiles; the same three quantities read from a run's best slices
	// (runner.go, quietOf) by 2-15 %. The harness prints and compare
	// bounds all eleven.
	Driver bool
}

// Every bound is the contract's maximum, 25 %, not the issue's first
// proposal of 10-15 %: whole-window figures of identical runs spread by
// 8-43 % between quartiles on the 2-vCPU sandbox and the quiet-host ones
// by 2-15 %. A bound below the spread would make every comparison
// unresolved. See README.md, "Bounds" and "Drift".
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "quiet_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25, Driver: true},
	{Name: "quiet_latency_ms", Unit: "ms", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "quiet_cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25, Driver: true},
}

// perLayer lists every per-layer metric in the order the harness prints
// them. Layer = module name; the README's interaction table says which
// end-to-end metric each should move and where it should not.
var perLayer = []metricDef{
	// micro pass: direct public-function timing
	{Name: "secp256k1.sign_us", Unit: "us", Better: "lower"},
	{Name: "secp256k1.recover_us", Unit: "us", Better: "lower"},
	{Name: "secp256k1.verify_us", Unit: "us", Better: "lower"},
	{Name: "secp256k1.sign_allocs", Unit: "count", Better: "lower"},
	{Name: "secp256k1.recover_allocs", Unit: "count", Better: "lower"},
	{Name: "keccak.sum256_32b_ns", Unit: "ns", Better: "lower"},
	{Name: "keccak.sum256_1kb_ns", Unit: "ns", Better: "lower"},
	{Name: "uint256.mulmod_ns", Unit: "ns", Better: "lower"},
	{Name: "uint256.div_ns", Unit: "ns", Better: "lower"},
	{Name: "evm.call_erc20_ns", Unit: "ns", Better: "lower"},
	{Name: "evm.call_counter_ns", Unit: "ns", Better: "lower"},
	{Name: "evm.call_sensor_ns", Unit: "ns", Better: "lower"},
	{Name: "evm.arith_msteps_s", Unit: "1/s", Better: "higher"},
	{Name: "evm.call_allocs", Unit: "count", Better: "lower"},
	{Name: "evm.snapshot_revert_ns", Unit: "ns", Better: "lower"},
	{Name: "device.call_us", Unit: "us", Better: "lower"},
	{Name: "device.deploy_us", Unit: "us", Better: "lower"},
	{Name: "protocol.pay_us", Unit: "us", Better: "lower"},
	{Name: "protocol.open_us", Unit: "us", Better: "lower"},
	{Name: "protocol.close_us", Unit: "us", Better: "lower"},
	{Name: "protocol.pay_self_us", Unit: "us", Better: "lower"},
	{Name: "service.pay_us", Unit: "us", Better: "lower"},
	{Name: "service.call_us", Unit: "us", Better: "lower"},
	{Name: "service.pay_self_us", Unit: "us", Better: "lower"},
	{Name: "service.call_self_us", Unit: "us", Better: "lower"},
	{Name: "service.pending_mean", Unit: "count", Better: "lower"},
	{Name: "journal.pay_self_us", Unit: "us", Better: "lower"},
	{Name: "journal.call_self_us", Unit: "us", Better: "lower"},
	{Name: "journal.record_bytes_pay", Unit: "B", Better: "lower"},
	{Name: "journal.record_bytes_call", Unit: "B", Better: "lower"},
	{Name: "journal.puts_per_op", Unit: "count", Better: "lower"},
	{Name: "store.wal_put_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_batch16_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "store.wal_open_ms_per_10k", Unit: "ms", Better: "lower"},
	{Name: "store.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.put_max_ms", Unit: "ms", Better: "lower"},
	{Name: "fs.fsync_us", Unit: "us", Better: "lower"},
	{Name: "store.disk_put_us", Unit: "us", Better: "lower"},
	{Name: "store.disk_get_mem_ns", Unit: "ns", Better: "lower"},
	{Name: "store.disk_get_seg_us", Unit: "us", Better: "lower"},
	{Name: "store.disk_open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.disk_flushes", Unit: "count", Better: "lower"},
	{Name: "store.disk_compactions", Unit: "count", Better: "lower"},
	{Name: "store.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "store.disk_batch_max_ms", Unit: "ms", Better: "lower"},
	{Name: "chain.mine_tx_us", Unit: "us", Better: "lower"},
	{Name: "chain.seal_persist_us", Unit: "us", Better: "lower"},
	{Name: "chain.digest_us", Unit: "us", Better: "lower"},
	{Name: "chain.mst_commit_us", Unit: "us", Better: "lower"},
	{Name: "engine.mine_tx_us", Unit: "us", Better: "lower"},
	{Name: "engine.speedup", Unit: "ratio", Better: "higher"},
	{Name: "mst.update_us", Unit: "us", Better: "lower"},
	{Name: "mst.prove_verify_us", Unit: "us", Better: "lower"},
	{Name: "rpc.head_us", Unit: "us", Better: "lower"},
	{Name: "rpc.pay_self_us", Unit: "us", Better: "lower"},
	{Name: "rpc.serve_us", Unit: "us", Better: "lower"},
	{Name: "rpc.request_us", Unit: "us", Better: "lower"},
	{Name: "rpc.req_bytes_pay", Unit: "B", Better: "lower"},
	{Name: "rpc.resp_bytes_pay", Unit: "B", Better: "lower"},
	{Name: "p2p.block_encode_us", Unit: "us", Better: "lower"},
	{Name: "p2p.block_decode_us", Unit: "us", Better: "lower"},
	{Name: "p2p.block_bytes", Unit: "B", Better: "lower"},
	{Name: "p2p.frames_per_block", Unit: "count", Better: "lower"},
	{Name: "p2p.bytes_per_block", Unit: "B", Better: "lower"},
	{Name: "txpool.add_pop_us", Unit: "us", Better: "lower"},
	{Name: "cluster.produce_us", Unit: "us", Better: "lower"},
	{Name: "cluster.apply_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "cluster.apply_lag_p90_us", Unit: "us", Better: "lower"},
	{Name: "cluster.hash_mismatches", Unit: "count", Better: "lower"},
	{Name: "recover.store_open_ms", Unit: "ms", Better: "lower"},
	{Name: "recover.service_ms", Unit: "ms", Better: "lower"},
	{Name: "recover.replayed_ops", Unit: "count", Better: "lower"},
	{Name: "recover.ckpt_height", Unit: "count", Better: "higher"},
	{Name: "recover.first_rpc_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "runtime.gc_pause_max_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func perLayerDef(name string) (metricDef, bool) {
	for _, d := range perLayer {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
