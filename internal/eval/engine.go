package eval

// Engine throughput scenario: the multi-device workload behind the
// parallel off-chain execution engine. N devices each own a small
// stateful contract (a metering counter doing storage updates and
// hashing — the paper's payment-channel update in miniature) and send a
// stream of invocations; a configurable fraction instead hits one
// shared hot contract, producing real cross-device conflicts. The
// benchmark mines it serially and through the engine, and the
// differential test requires both to produce the same bytes.

import (
	"fmt"

	"tinyevm/internal/asm"
	"tinyevm/internal/chain"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
)

// EngineWorkloadParams sizes the multi-device scenario.
type EngineWorkloadParams struct {
	// Devices is the number of distinct device accounts.
	Devices int
	// TxPerDevice is the number of contract invocations per device.
	TxPerDevice int
	// ConflictFraction is the share of invocations directed at the one
	// shared hot contract instead of the device's own (0 = embarrassingly
	// parallel, 1 = fully serialized on one account).
	ConflictFraction float64
	// WorkLoops is the per-invocation compute loop length; higher
	// values shift the workload from coordination- to compute-bound.
	WorkLoops int
}

// DefaultEngineWorkload returns the canonical scenario: 64 devices,
// 8 invocations each, 5% hot-contract traffic, moderate compute.
func DefaultEngineWorkload() EngineWorkloadParams {
	return EngineWorkloadParams{Devices: 64, TxPerDevice: 8, ConflictFraction: 0.05, WorkLoops: 100}
}

// EngineWorkload is a built scenario: the chain constructor (funding
// and contract deployment, identical for every run) and the signed
// measurement batch.
type EngineWorkload struct {
	Params EngineWorkloadParams

	keys      []*secp256k1.PrivateKey
	contracts []types.Address
	hot       types.Address
	deploys   []*chain.Transaction
	batch     []*chain.Transaction
}

// meterRuntime is the per-device contract: bump storage slot 0, then
// burn `loops` iterations hashing memory — a stand-in for verifying and
// applying one off-chain payment-channel update.
func meterRuntime(loops int) []byte {
	return asm.MustAssemble(fmt.Sprintf(`
		PUSH1 0x00
		SLOAD
		PUSH1 0x01
		ADD
		PUSH1 0x00
		SSTORE
		PUSH2 %#04x
		:loop JUMPDEST
		PUSH1 0x01
		SWAP1
		SUB
		PUSH1 0x20
		PUSH1 0x00
		KECCAK256
		POP
		DUP1
		ISZERO
		PUSH :done
		JUMPI
		PUSH :loop
		JUMP
		:done JUMPDEST
		POP
		STOP
	`, loops))
}

// engineDeployInit wraps runtime code in a CODECOPY/RETURN constructor.
func engineDeployInit(runtime []byte) []byte {
	build := func(off int) []byte {
		src := fmt.Sprintf(`
			PUSH2 %#04x
			PUSH2 %#04x
			PUSH1 0x00
			CODECOPY
			PUSH2 %#04x
			PUSH1 0x00
			RETURN
		`, len(runtime), off, len(runtime))
		return asm.MustAssemble(src)
	}
	ctor := build(0)
	ctor = build(len(ctor))
	return append(ctor, runtime...)
}

// BuildEngineWorkload constructs and signs the scenario once; the same
// transaction objects replay identically on every fresh chain.
func BuildEngineWorkload(p EngineWorkloadParams) (*EngineWorkload, error) {
	w := &EngineWorkload{Params: p}
	runtime := meterRuntime(p.WorkLoops)

	deployer := secp256k1.DeterministicKey("engine-eval-deployer")
	deployerAddr := deployer.PublicKey.Address()
	w.hot = types.ContractAddress(deployerAddr, 0)
	hotDeploy := chain.NewTx(0, nil, 0, engineDeployInit(runtime))
	if err := hotDeploy.Sign(deployer); err != nil {
		return nil, err
	}
	w.deploys = append(w.deploys, hotDeploy)

	for i := 0; i < p.Devices; i++ {
		key := secp256k1.DeterministicKey(fmt.Sprintf("engine-eval-dev-%d", i))
		w.keys = append(w.keys, key)
		addr := key.PublicKey.Address()
		w.contracts = append(w.contracts, types.ContractAddress(addr, 0))
		deploy := chain.NewTx(0, nil, 0, engineDeployInit(runtime))
		if err := deploy.Sign(key); err != nil {
			return nil, err
		}
		w.deploys = append(w.deploys, deploy)
	}

	// The measurement batch, interleaved across devices the way a
	// gateway mempool would see it. The conflict draw is a fixed
	// pattern (not random) so every run is identical.
	every := 0
	if p.ConflictFraction > 0 {
		every = int(1.0/p.ConflictFraction + 0.5)
	}
	n := 0
	for round := 0; round < p.TxPerDevice; round++ {
		for i := 0; i < p.Devices; i++ {
			target := w.contracts[i]
			if every > 0 && n%every == every-1 {
				target = w.hot
			}
			n++
			tx := chain.NewTx(uint64(round+1), &target, 0, nil)
			if err := tx.Sign(w.keys[i]); err != nil {
				return nil, err
			}
			w.batch = append(w.batch, tx)
		}
	}
	return w, nil
}

// NewChain builds a fresh funded chain with every contract deployed
// (serially — setup is not part of the measurement).
func (w *EngineWorkload) NewChain() (*chain.Chain, error) {
	c := chain.New()
	deployer := secp256k1.DeterministicKey("engine-eval-deployer")
	c.Fund(deployer.PublicKey.Address(), 1_000_000_000_000)
	for _, key := range w.keys {
		c.Fund(key.PublicKey.Address(), 1_000_000_000_000)
	}
	for _, tx := range w.deploys {
		r, err := c.SendTransaction(tx)
		if err != nil {
			return nil, err
		}
		if !r.Status {
			return nil, fmt.Errorf("eval: contract deployment failed: %v", r.Err)
		}
	}
	return c, nil
}

// Batch returns the measurement transactions in submission order.
func (w *EngineWorkload) Batch() []*chain.Transaction { return w.batch }
