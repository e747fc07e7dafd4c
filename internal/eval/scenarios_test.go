package eval

// The contract workload suite's scenarios and their runner: each
// scenario builds a signed transaction batch against the contracts of
// workloads.go, and RunContractWorkload mines it serially or through
// the parallel engine and checks the scenario's invariants.

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"

	"tinyevm/internal/asm"
	"tinyevm/internal/chain"
	"tinyevm/internal/engine"
	"tinyevm/internal/evm"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// word left-pads a byte slice into one ABI word.
func word(b []byte) [32]byte {
	var w [32]byte
	copy(w[32-len(b):], b)
	return w
}

func uintWord(v uint64) [32]byte {
	var w [32]byte
	binary.BigEndian.PutUint64(w[24:], v)
	return w
}

// deployInit wraps runtime bytecode in a constructor that optionally
// stores the caller's initial token supply and then returns the
// runtime. The runtime is assembled separately (so its jump-label
// offsets are relative to 0, matching post-deployment layout) and
// embedded as a DATA block.
func deployInit(runtime []byte, supply uint64) []byte {
	var b strings.Builder
	if supply > 0 {
		// balances[caller] = supply (storage key = holder address).
		fmt.Fprintf(&b, "PUSH %d\nCALLER\nSSTORE\n", supply)
	}
	fmt.Fprintf(&b, `
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
	return asm.MustAssemble(b.String())
}

// WorkloadParams sizes a contract workload run.
type WorkloadParams struct {
	// Accounts is the number of distinct sender accounts.
	Accounts int
	// Txs is the number of transactions in the batch.
	Txs int
	// BlockSize is the number of transactions mined per block.
	BlockSize int
	// Workers is the parallel-engine worker count (0 = serial mining).
	Workers int
	// Shards is the number of contract instances for sharded profiles.
	Shards int
}

func (p WorkloadParams) withDefaults() WorkloadParams {
	if p.Accounts <= 0 {
		p.Accounts = 32
	}
	if p.Txs <= 0 {
		p.Txs = 512
	}
	if p.BlockSize <= 0 {
		p.BlockSize = 128
	}
	if p.Shards <= 0 {
		p.Shards = 8
	}
	if p.Shards > p.Accounts {
		p.Shards = p.Accounts
	}
	// Shards must partition the accounts evenly so in-shard partner
	// selection (stride by shard count) never crosses a shard.
	for p.Accounts%p.Shards != 0 {
		p.Shards--
	}
	return p
}

// BuiltWorkload is a constructed, signed workload ready to mine.
type BuiltWorkload struct {
	Chain *chain.Chain
	Batch []*chain.Transaction
	// Verify checks the workload's state invariants after the batch has
	// been mined.
	Verify func() error
}

// WorkloadSpec is one registered contract scenario.
type WorkloadSpec struct {
	// Name identifies the scenario ("erc20-hot", ...).
	Name string
	// Build constructs a fresh chain, deploys contracts, funds and
	// signs the batch.
	Build func(p WorkloadParams) (*BuiltWorkload, error)
}

// ContractWorkloads returns the registered contract scenario suite.
func ContractWorkloads() []WorkloadSpec {
	return []WorkloadSpec{
		// Every account transfers on one shared ERC-20 token; all txs
		// conflict on the token contract.
		{Name: "erc20-hot", Build: buildERC20(false)},
		// Accounts partitioned across independent token instances;
		// cross-shard conflicts never occur.
		{Name: "erc20-sharded", Build: buildERC20(true)},
		// Every account increments one shared counter slot: the
		// maximum-contention floor.
		{Name: "inccounter-hot", Build: buildCounter},
		// Every account donates value with feedback into one ledger
		// (the sensor-oracle fan-in analogue).
		{Name: "donate-fanin", Build: buildDonate},
	}
}

// workloadAccounts derives the deterministic sender keys.
func workloadAccounts(prefix string, n int) []*secp256k1.PrivateKey {
	keys := make([]*secp256k1.PrivateKey, n)
	for i := range keys {
		keys[i] = secp256k1.DeterministicKey(fmt.Sprintf("%s-%d", prefix, i))
	}
	return keys
}

// mineSetup mines all pending setup transactions serially and fails on
// any unsuccessful receipt.
func mineSetup(c *chain.Chain) error {
	for _, r := range c.MineBlock() {
		if !r.Status {
			return fmt.Errorf("eval: setup tx failed: %v", r.Err)
		}
	}
	return nil
}

const (
	erc20Supply    = uint64(1_000_000_000)
	erc20Stake     = uint64(1_000_000) // per-account initial balance
	transferAmount = uint64(7)
	donateAmount   = uint64(3)
)

// buildERC20 builds the token scenario; sharded=true deploys one token
// per account shard so transfers never cross contract instances.
func buildERC20(sharded bool) func(p WorkloadParams) (*BuiltWorkload, error) {
	return func(p WorkloadParams) (*BuiltWorkload, error) {
		p = p.withDefaults()
		shards := 1
		if sharded {
			shards = p.Shards
		}
		c := chain.New()
		deployer := secp256k1.DeterministicKey("workload-erc20-deployer")
		deployerAddr := deployer.PublicKey.Address()
		c.Fund(deployerAddr, 1<<60)
		keys := workloadAccounts("workload-erc20", p.Accounts)
		for _, k := range keys {
			c.Fund(k.PublicKey.Address(), 1<<40)
		}

		// Deploy one token per shard and distribute stakes.
		init := deployInit(erc20Runtime(), erc20Supply)
		tokens := make([]types.Address, shards)
		nonce := uint64(0)
		for s := range tokens {
			tokens[s] = types.ContractAddress(deployerAddr, nonce)
			tx := chain.NewTx(nonce, nil, 0, init)
			if err := tx.Sign(deployer); err != nil {
				return nil, err
			}
			if err := c.Submit(tx); err != nil {
				return nil, err
			}
			nonce++
		}
		if err := mineSetup(c); err != nil {
			return nil, err
		}
		transfer := Selector("transfer(address,uint256)")
		for i, k := range keys {
			token := tokens[i%shards]
			data := CallData(transfer, addrWord(k.PublicKey.Address()), uintWord(erc20Stake))
			tx := chain.NewTx(nonce, &token, 0, data)
			if err := tx.Sign(deployer); err != nil {
				return nil, err
			}
			if err := c.Submit(tx); err != nil {
				return nil, err
			}
			nonce++
		}
		if err := mineSetup(c); err != nil {
			return nil, err
		}

		// The batch: account i transfers to its in-shard
		// successor, round-robin across accounts.
		sent := make([]int, p.Accounts)
		recv := make([]int, p.Accounts)
		nonces := make([]uint64, p.Accounts)
		batch := make([]*chain.Transaction, 0, p.Txs)
		for n := 0; n < p.Txs; n++ {
			i := n % p.Accounts
			// Partner: next account within the same shard (stride by
			// shard count keeps i and partner on the same token).
			partner := (i + shards) % p.Accounts
			if shards == 1 {
				partner = (i + 1) % p.Accounts
			}
			token := tokens[i%shards]
			data := CallData(transfer,
				addrWord(keys[partner].PublicKey.Address()), uintWord(transferAmount))
			tx := chain.NewTx(nonces[i], &token, 0, data)
			if err := tx.Sign(keys[i]); err != nil {
				return nil, err
			}
			nonces[i]++
			sent[i]++
			recv[partner]++
			batch = append(batch, tx)
		}

		balanceOf := Selector("balanceOf(address)")
		verify := func() error {
			var total uint64
			for i, k := range keys {
				addr := k.PublicKey.Address()
				out, err := callView(c, addr, tokens[i%shards], CallData(balanceOf, addrWord(addr)))
				if err != nil {
					return fmt.Errorf("balanceOf(%d): %w", i, err)
				}
				var v uint256.Int
				v.SetBytes(out)
				got := v.Uint64Capped(^uint64(0))
				want := erc20Stake - uint64(sent[i])*transferAmount + uint64(recv[i])*transferAmount
				if got != want {
					return fmt.Errorf("erc20 balance[%d] = %d, want %d", i, got, want)
				}
				total += got
			}
			if want := uint64(p.Accounts) * erc20Stake; total != want {
				return fmt.Errorf("erc20 conservation: circulating %d, want %d", total, want)
			}
			return nil
		}
		return &BuiltWorkload{Chain: c, Batch: batch, Verify: verify}, nil
	}
}

// buildCounter builds the shared-counter scenario.
func buildCounter(p WorkloadParams) (*BuiltWorkload, error) {
	p = p.withDefaults()
	c := chain.New()
	deployer := secp256k1.DeterministicKey("workload-counter-deployer")
	c.Fund(deployer.PublicKey.Address(), 1<<60)
	keys := workloadAccounts("workload-counter", p.Accounts)
	for _, k := range keys {
		c.Fund(k.PublicKey.Address(), 1<<40)
	}
	counter := types.ContractAddress(deployer.PublicKey.Address(), 0)
	deploy := chain.NewTx(0, nil, 0, deployInit(counterRuntime(), 0))
	if err := deploy.Sign(deployer); err != nil {
		return nil, err
	}
	if err := c.Submit(deploy); err != nil {
		return nil, err
	}
	if err := mineSetup(c); err != nil {
		return nil, err
	}

	nonces := make([]uint64, p.Accounts)
	batch := make([]*chain.Transaction, 0, p.Txs)
	for n := 0; n < p.Txs; n++ {
		i := n % p.Accounts
		tx := chain.NewTx(nonces[i], &counter, 0, nil)
		if err := tx.Sign(keys[i]); err != nil {
			return nil, err
		}
		nonces[i]++
		batch = append(batch, tx)
	}
	verify := func() error {
		out, err := callView(c, deployer.PublicKey.Address(), counter, nil)
		if err != nil {
			return fmt.Errorf("counter read: %w", err)
		}
		var v uint256.Int
		v.SetBytes(out)
		// The read-only probe call itself increments before returning,
		// so the returned count is txs+1.
		if got := v.Uint64Capped(^uint64(0)); got != uint64(p.Txs)+1 {
			return fmt.Errorf("counter = %d, want %d", got, p.Txs+1)
		}
		return nil
	}
	return &BuiltWorkload{Chain: c, Batch: batch, Verify: verify}, nil
}

// buildDonate builds the donate-with-feedback fan-in scenario.
func buildDonate(p WorkloadParams) (*BuiltWorkload, error) {
	p = p.withDefaults()
	c := chain.New()
	deployer := secp256k1.DeterministicKey("workload-donate-deployer")
	c.Fund(deployer.PublicKey.Address(), 1<<60)
	keys := workloadAccounts("workload-donate", p.Accounts)
	for _, k := range keys {
		c.Fund(k.PublicKey.Address(), 1<<40)
	}
	ledger := types.ContractAddress(deployer.PublicKey.Address(), 0)
	deploy := chain.NewTx(0, nil, 0, deployInit(donateRuntime(), 0))
	if err := deploy.Sign(deployer); err != nil {
		return nil, err
	}
	if err := c.Submit(deploy); err != nil {
		return nil, err
	}
	if err := mineSetup(c); err != nil {
		return nil, err
	}

	donate := Selector("donate(bytes32)")
	nonces := make([]uint64, p.Accounts)
	batch := make([]*chain.Transaction, 0, p.Txs)
	var donated uint64
	for n := 0; n < p.Txs; n++ {
		i := n % p.Accounts
		var feedback [32]byte
		copy(feedback[:], fmt.Sprintf("tx-%d-sensor-%d", n, i))
		tx := chain.NewTx(nonces[i], &ledger, donateAmount, CallData(donate, feedback))
		if err := tx.Sign(keys[i]); err != nil {
			return nil, err
		}
		nonces[i]++
		donated += donateAmount
		batch = append(batch, tx)
	}
	statsSel := Selector("stats()")
	verify := func() error {
		out, err := callView(c, deployer.PublicKey.Address(), ledger, CallData(statsSel))
		if err != nil {
			return fmt.Errorf("stats(): %w", err)
		}
		if len(out) != 64 {
			return fmt.Errorf("stats() returned %d bytes", len(out))
		}
		var total, count uint256.Int
		total.SetBytes(out[:32])
		count.SetBytes(out[32:])
		if got := total.Uint64Capped(^uint64(0)); got != donated {
			return fmt.Errorf("donate total = %d, want %d", got, donated)
		}
		if got := count.Uint64Capped(^uint64(0)); got != uint64(p.Txs) {
			return fmt.Errorf("donate count = %d, want %d", got, p.Txs)
		}
		if got := c.BalanceOf(ledger); got != donated {
			return fmt.Errorf("ledger balance = %d, want %d", got, donated)
		}
		return nil
	}
	return &BuiltWorkload{Chain: c, Batch: batch, Verify: verify}, nil
}

// WorkloadSpecByName returns the named scenario.
func WorkloadSpecByName(name string) (WorkloadSpec, bool) {
	for _, s := range ContractWorkloads() {
		if s.Name == name {
			return s, true
		}
	}
	return WorkloadSpec{}, false
}

// WorkloadResult counts one mined contract workload.
type WorkloadResult struct {
	Txs    int
	Blocks int
	Failed int
}

// RunContractWorkload builds and mines one scenario in BlockSize
// chunks, counting blocks and failed transactions, then checks the
// scenario's state invariants. Cancelling ctx aborts between blocks.
func RunContractWorkload(ctx context.Context, spec WorkloadSpec, p WorkloadParams) (*WorkloadResult, error) {
	p = p.withDefaults()
	built, err := spec.Build(p)
	if err != nil {
		return nil, fmt.Errorf("eval: building %s: %w", spec.Name, err)
	}
	var eng *engine.Engine
	if p.Workers > 0 {
		eng = engine.New(built.Chain, engine.Options{Workers: p.Workers})
	}

	res := &WorkloadResult{Txs: len(built.Batch)}
	for at := 0; at < len(built.Batch); at += p.BlockSize {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := at + p.BlockSize
		if end > len(built.Batch) {
			end = len(built.Batch)
		}
		for _, tx := range built.Batch[at:end] {
			if eng != nil {
				err = eng.Submit(tx)
			} else {
				err = built.Chain.Submit(tx)
			}
			if err != nil {
				return nil, err
			}
		}
		var receipts []*chain.Receipt
		if eng != nil {
			receipts = eng.MineBlock()
		} else {
			receipts = built.Chain.MineBlock()
		}
		res.Blocks++
		for _, r := range receipts {
			if !r.Status {
				res.Failed++
			}
		}
	}
	if res.Failed > 0 {
		return res, fmt.Errorf("eval: %s: %d/%d transactions failed", spec.Name, res.Failed, res.Txs)
	}
	if err := built.Verify(); err != nil {
		return res, fmt.Errorf("eval: %s invariants: %w", spec.Name, err)
	}
	return res, nil
}

// callView runs a contract view against the chain's head state and
// reverts whatever it touched.
func callView(c *chain.Chain, from, to types.Address, data []byte) ([]byte, error) {
	st := c.State()
	snap := st.Snapshot()
	defer st.RevertToSnapshot(snap)
	res := evm.New(evm.FullConfig(), st).Call(from, to, data, uint256.NewInt(0), chain.BlockGasLimit)
	return res.ReturnData, res.Err
}

// addrWord is an address as a 32-byte ABI word.
func addrWord(a types.Address) [32]byte { return word(a[:]) }
