# Targets mirror the CI steps (.github/workflows/ci.yml) so local and
# CI invocations stay in sync.

GO ?= go

.PHONY: all build test lint bench-check fuzz-smoke bench bench-smoke recover-e2e load-smoke cluster-smoke store-smoke shard-contention docs-check

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# The benchmark is a module of its own (bench/go.mod), so the root
# ./... patterns never enter it, yet it imports the packages under
# internal/: vet and test it on every push — what the CI "Bench module"
# steps run (BENCH_CHECK_FLAGS=-race for the race leg).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test $(BENCH_CHECK_FLAGS) ./...

# Run the on-disk-format fuzzers (the byte codec's reader, the record
# log, the segment codec, the service's op-record decoder and replay,
# its checkpoint decoder, the chain's record decoders), the store
# open's meta record and format window, the light
# client's state-proof verifier, the JSON-RPC gateway's request and
# batch handling, the radio wire's and the cluster peer wire's
# decoders, a party's receive path on hostile frames, the cluster
# follower's block verify-and-apply, the interpreter on
# arbitrary bytecode, and the crypto fast paths' differential fuzzers
# (fixed-limb field, scalar and ECDSA, and the signature and public-key
# decoders, against the math/big oracle in
# internal/secp256k1/oracle_test.go; the unrolled
# Keccak against the reference permutation) for wall-clock time, not
# just their seed corpora — what the CI "Fuzz" step runs (-fuzz takes
# one target and one package per invocation). The ECDSA fuzzer's oracle
# costs ~20 ms an execution, so its minimiser is capped: left at the
# default minute per interesting input it would spend the whole budget
# shrinking the first one. The checkpoint fuzzer's minimiser is capped
# for the same reason: its richest seed is the 12 KB pinned checkpoint.
# So is the receive-path fuzzer's: every execution builds two devices
# and a channel, and left uncapped it stalls minimising.
# FuzzMemStateJournal stays seed-only (go test runs its seeds): at about
# 130 executions a second, 30 s would explore next to nothing.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCodecReader$$' -fuzztime $(FUZZTIME) ./internal/codec/
	$(GO) test -run '^$$' -fuzz '^FuzzLogReplay$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentCodec$$' -fuzztime $(FUZZTIME) ./internal/store/disk/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s .
	$(GO) test -run '^$$' -fuzz '^FuzzStoredMeta$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzChainRecordDecode$$' -fuzztime $(FUZZTIME) ./internal/chain/
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyStateProof$$' -fuzztime $(FUZZTIME) ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzServeHTTP$$' -fuzztime $(FUZZTIME) ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzProtocolDecode$$' -fuzztime $(FUZZTIME) ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzPartyDeliver$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzWireCodec$$' -fuzztime $(FUZZTIME) ./internal/p2p/
	$(GO) test -run '^$$' -fuzz '^FuzzClusterApply$$' -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzInterpreter$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzFieldVsBig$$' -fuzztime $(FUZZTIME) ./internal/secp256k1/
	$(GO) test -run '^$$' -fuzz '^FuzzScalarVsBig$$' -fuzztime $(FUZZTIME) ./internal/secp256k1/
	$(GO) test -run '^$$' -fuzz '^FuzzSignRecoverVsBig$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/secp256k1/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSignature$$' -fuzztime $(FUZZTIME) ./internal/secp256k1/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePublicKey$$' -fuzztime $(FUZZTIME) ./internal/secp256k1/
	$(GO) test -run '^$$' -fuzz '^FuzzKeccakVsReference$$' -fuzztime $(FUZZTIME) ./internal/keccak/

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

# The paper-table benchmarks, as a while-you-work tool (slow: published
# populations). Claims come from the benchmark in bench/ (bench/README.md).
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# One iteration per benchmark plus the reduced paper tables — what the
# CI bench-smoke job runs.
bench-smoke:
	$(GO) test -bench . -benchtime=1x -run '^$$' .
	$(GO) run ./cmd/benchtables -table 2 -n 300 -q

# Crash-recovery end-to-end: SIGKILL a real tinyevm-serve -data-dir
# daemon mid-workload, restart it, and assert the recovered head block,
# balances and channel states — what the CI recover-e2e step runs.
recover-e2e:
	$(GO) test -race -v -run TestCrashRecoveryE2E .

# Load-harness smoke — what the CI load-smoke job runs: the load-smoke
# case of TestRunnerDaemonKillRecovery spawns a daemon and runs every
# contention profile with client kills, wire chaos and one
# SIGKILL+WAL-recovery cycle; the load-smoke input of
# TestContractWorkloadsSerial runs the contract workload suite. Fails
# on any error outside the taxonomy, a failed recovery, a failed
# contract transaction or a broken invariant.
load-smoke:
	$(GO) test -race -count=1 -v -run 'TestRunnerDaemonKillRecovery/load-smoke' ./internal/load/
	$(GO) test -race -count=1 -v -run 'TestContractWorkloadsSerial/load-smoke' ./internal/eval/

# Shard-contention smoke — what the CI shard-contention step runs:
# race-enabled hammers over disjoint and colliding channel pairs on
# the striped hot path, then the shard-contention case of
# TestRunnerSmokeClosedLoop: the load harness's hotspot profile
# (receiver-side contention on a few hot meters) with batched RPC
# against an in-process gateway, so the race detector covers both ends.
shard-contention:
	$(GO) test -race -v -run 'TestShard.*Hammer' .
	$(GO) test -race -count=1 -v -run 'TestRunnerSmokeClosedLoop/shard-contention' ./internal/load/

# Cluster smoke — what the CI cluster-smoke job runs: three real
# tinyevm-serve daemons form one sidechain over TCP, payments flow
# through all of them, one daemon is SIGKILLed mid-run and restarted
# with no data dir, and every daemon must converge on byte-identical
# block hashes (the victim via pure p2p state sync).
cluster-smoke:
	$(GO) test -race -v -run TestClusterSmokeE2E . > cluster-smoke.txt 2>&1 || { cat cluster-smoke.txt; exit 1; }
	cat cluster-smoke.txt

# Store smoke — what the CI store-smoke job runs: a race-enabled e2e
# running tinyevm-serve on the disk backend (-data-dir, memtable
# shrunk to force segment flushes and compactions) with checkpoints
# and the MST state commitment, SIGKILLed mid-compaction-churn and
# restarted; the recovered head hash and state root must be
# byte-identical and the restart bounded by the checkpoint tail.
store-smoke:
	$(GO) test -race -v -run TestStoreSmokeE2E . > store-smoke.txt 2>&1 || { cat store-smoke.txt; exit 1; }
	cat store-smoke.txt

# Markdown link check over README and docs/ (offline: files + anchors).
docs-check:
	$(GO) run ./cmd/linkcheck README.md docs/ PAPER.md ROADMAP.md CHANGES.md
