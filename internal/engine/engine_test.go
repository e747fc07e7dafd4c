package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tinyevm/internal/asm"
	"tinyevm/internal/chain"
	"tinyevm/internal/corpus"
	"tinyevm/internal/engine"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/store"
	"tinyevm/internal/types"
)

// --- workload helpers ---------------------------------------------------

func devKey(i int) *secp256k1.PrivateKey {
	return secp256k1.DeterministicKey(fmt.Sprintf("engine-test-dev-%d", i))
}

func devAddr(i int) types.Address { return devKey(i).PublicKey.Address() }

func signedTx(t *testing.T, key *secp256k1.PrivateKey, nonce uint64, to *types.Address, value uint64, data []byte) *chain.Transaction {
	t.Helper()
	tx := chain.NewTx(nonce, to, value, data)
	if err := tx.Sign(key); err != nil {
		t.Fatalf("sign: %v", err)
	}
	return tx
}

// deployInit wraps runtime code in a standard CODECOPY/RETURN
// constructor (two-pass, like the corpus generator).
func deployInit(runtime []byte) []byte {
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

// counterRuntime increments storage slot 0 on every call.
func counterRuntime() []byte {
	return asm.MustAssemble(`
		PUSH1 0x00
		SLOAD
		PUSH1 0x01
		ADD
		PUSH1 0x00
		SSTORE
		STOP
	`)
}

// proxyRuntime forwards every call to the backend contract.
func proxyRuntime(backend types.Address) []byte {
	return asm.MustAssemble(fmt.Sprintf(`
		PUSH1 0x00
		PUSH1 0x00
		PUSH1 0x00
		PUSH1 0x00
		PUSH1 0x00
		PUSH20 0x%x
		PUSH3 0x0493e0
		CALL
		POP
		STOP
	`, backend[:]))
}

// branchyBackendRuntime increments slot 0; from the second call on it
// additionally calls the target contract. The first (speculative)
// execution of each caller sees slot 0 == 0 and takes the short
// branch, so the cross-contract edge only appears during serial
// repair — the scenario that forces the full-serial escape hatch.
func branchyBackendRuntime(target types.Address) []byte {
	return asm.MustAssemble(fmt.Sprintf(`
		PUSH1 0x00
		SLOAD
		PUSH1 0x01
		ADD
		DUP1
		PUSH1 0x00
		SSTORE
		PUSH1 0x01
		SWAP1
		SUB
		PUSH :callx
		JUMPI
		STOP
		:callx JUMPDEST
		PUSH1 0x00
		PUSH1 0x00
		PUSH1 0x00
		PUSH1 0x00
		PUSH1 0x00
		PUSH20 0x%x
		PUSH3 0x0493e0
		CALL
		POP
		STOP
	`, target[:]))
}

// storeDump is every key and value of a store, in key order.
func storeDump(t *testing.T, kv store.KVStore) []string {
	t.Helper()
	var out []string
	err := kv.Iterate(nil, func(k, v []byte) error {
		out = append(out, fmt.Sprintf("%s = %x", k, v))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runBoth executes the same batch on a fresh serial chain and a fresh
// engine-backed chain (both built by setup) and requires byte-identical
// receipts, state digests and block hashes. Both chains run the MST
// commitment and persist into a store of their own, so every block
// record carries a commitment folded from the accounts the block marked
// dirty, and the two stores must end up byte-identical as well.
func runBoth(t *testing.T, setup func(c *chain.Chain), txs func() []*chain.Transaction, opts engine.Options) (*engine.Engine, []*chain.Receipt) {
	t.Helper()

	newChain := func() (*chain.Chain, *store.Mem) {
		c, kv := chain.New(), store.NewMem()
		c.EnableMSTCommitment()
		if err := c.AttachStore(kv); err != nil {
			t.Fatal(err)
		}
		setup(c)
		return c, kv
	}

	serialChain, serialKV := newChain()
	for _, tx := range txs() {
		if err := serialChain.Submit(tx); err != nil {
			t.Fatalf("serial submit: %v", err)
		}
	}
	serialReceipts := serialChain.MineBlock()

	parChain, parKV := newChain()
	eng := engine.New(parChain, opts)
	for _, tx := range txs() {
		if err := eng.Submit(tx); err != nil {
			t.Fatalf("engine submit: %v", err)
		}
	}
	parReceipts := eng.MineBlock()

	if len(serialReceipts) != len(parReceipts) {
		t.Fatalf("receipt count: serial %d, parallel %d", len(serialReceipts), len(parReceipts))
	}
	for i := range serialReceipts {
		se := engine.EncodeReceipt(serialReceipts[i])
		pe := engine.EncodeReceipt(parReceipts[i])
		if string(se) != string(pe) {
			t.Fatalf("receipt %d differs:\nserial:   %x\nparallel: %x", i, se, pe)
		}
	}
	if sd, pd := serialChain.State().Digest(), parChain.State().Digest(); sd != pd {
		t.Fatalf("state digest differs: serial %s, parallel %s", sd, pd)
	}
	if sh, ph := serialChain.Head().Hash, parChain.Head().Hash; sh != ph {
		t.Fatalf("block hash differs: serial %s, parallel %s", sh, ph)
	}
	if err := errors.Join(serialChain.StoreErr(), parChain.StoreErr()); err != nil {
		t.Fatal(err)
	}
	sd, pd := storeDump(t, serialKV), storeDump(t, parKV)
	if len(sd) == 0 {
		t.Fatal("serial store holds no block record")
	}
	if !reflect.DeepEqual(sd, pd) {
		t.Fatalf("persisted records differ:\nserial:   %q\nparallel: %q", sd, pd)
	}
	return eng, parReceipts
}

// --- determinism --------------------------------------------------------

// TestParallelMatchesSerialTransfers runs a conflict-free multi-device
// payment batch and checks the fast path commits everything.
func TestParallelMatchesSerialTransfers(t *testing.T) {
	const devices = 40
	setup := func(c *chain.Chain) {
		for i := 0; i < devices; i++ {
			c.Fund(devAddr(i), 10_000_000_000)
		}
	}
	txs := func() []*chain.Transaction {
		var out []*chain.Transaction
		for i := 0; i < devices; i++ {
			sink := types.ContractAddress(devAddr(i), 999) // disjoint per-device sink
			for n := uint64(0); n < 3; n++ {
				out = append(out, signedTx(t, devKey(i), n, &sink, 100+n, nil))
			}
		}
		return out
	}
	eng, receipts := runBoth(t, setup, txs, engine.Options{Workers: 4})
	for i, r := range receipts {
		if !r.Status {
			t.Fatalf("tx %d failed: %v", i, r.Err)
		}
	}
	st := eng.Stats()
	if st.ConflictGroups != 0 || st.FullFallbacks != 0 || st.PartialFallbacks != 0 {
		t.Fatalf("unexpected conflicts on disjoint batch: %+v", st)
	}
	if st.ParallelTxs != devices*3 {
		t.Fatalf("expected %d parallel txs, got %+v", devices*3, st)
	}
	if st.Groups != devices {
		t.Fatalf("expected %d groups, got %d", devices, st.Groups)
	}
}

// TestParallelMatchesSerialCorpus deploys a ≥200-contract corpus
// workload from distinct senders and requires byte-identical receipts
// — the acceptance bar for the engine. The population includes
// deployments that fail (oversized runtime, out-of-gas), so the error
// paths are compared too.
func TestParallelMatchesSerialCorpus(t *testing.T) {
	const n = 220
	contracts := corpus.Generate(corpus.DefaultParams(n))
	setup := func(c *chain.Chain) {
		for i := 0; i < n; i++ {
			c.Fund(devAddr(i), 100_000_000_000)
		}
	}
	txs := func() []*chain.Transaction {
		out := make([]*chain.Transaction, 0, n)
		for i := 0; i < n; i++ {
			// The default 2M gas limit makes the corpus's heavy
			// constructor loops run out of gas, so the batch mixes
			// successful and failed deployments deterministically.
			tx := chain.NewTx(0, nil, 0, contracts[i].InitCode)
			if err := tx.Sign(devKey(i)); err != nil {
				t.Fatal(err)
			}
			out = append(out, tx)
		}
		return out
	}
	eng, receipts := runBoth(t, setup, txs, engine.Options{Workers: 4})
	ok := 0
	for _, r := range receipts {
		if r.Status {
			ok++
		}
	}
	if ok == 0 || ok == n {
		t.Fatalf("workload should mix successes and failures, got %d/%d ok", ok, n)
	}
	st := eng.Stats()
	if st.ParallelTxs == 0 {
		t.Fatalf("corpus batch did not use the parallel path: %+v", st)
	}
}

// TestSameSenderNonceChain keeps one sender's transactions in order
// inside a single group.
func TestSameSenderNonceChain(t *testing.T) {
	setup := func(c *chain.Chain) {
		c.Fund(devAddr(0), 10_000_000_000)
		c.Fund(devAddr(1), 10_000_000_000)
	}
	txs := func() []*chain.Transaction {
		a, b := devAddr(2), devAddr(3)
		return []*chain.Transaction{
			signedTx(t, devKey(0), 0, &a, 1, nil),
			signedTx(t, devKey(1), 0, &b, 2, nil),
			signedTx(t, devKey(0), 1, &a, 3, nil),
			signedTx(t, devKey(0), 2, &a, 4, nil),
			signedTx(t, devKey(1), 1, &b, 5, nil),
		}
	}
	eng, receipts := runBoth(t, setup, txs, engine.Options{Workers: 4})
	for i, r := range receipts {
		if !r.Status {
			t.Fatalf("tx %d failed: %v", i, r.Err)
		}
	}
	if st := eng.Stats(); st.Groups != 2 {
		t.Fatalf("expected 2 groups, got %+v", st)
	}
}

// TestBadNonceReceipts checks error receipts replicate exactly.
func TestBadNonceReceipts(t *testing.T) {
	setup := func(c *chain.Chain) {
		c.Fund(devAddr(0), 10_000_000_000)
		c.Fund(devAddr(1), 10_000_000_000)
	}
	txs := func() []*chain.Transaction {
		a := devAddr(5)
		return []*chain.Transaction{
			signedTx(t, devKey(0), 7, &a, 1, nil), // bad nonce
			signedTx(t, devKey(1), 0, &a, 2, nil),
			signedTx(t, devKey(1), 5, &a, 2, nil), // bad nonce after good
		}
	}
	_, receipts := runBoth(t, setup, txs, engine.Options{Workers: 4})
	if receipts[0].Status || !receipts[1].Status || receipts[2].Status {
		t.Fatalf("unexpected statuses: %v %v %v", receipts[0].Status, receipts[1].Status, receipts[2].Status)
	}
}

// TestExtCodeHashFreshAccount regression-tests the overlay's CodeHash
// on an account that exists only in the overlay: a transfer materializes
// a fresh account F, then a contract EXTCODEHASHes F in the same group.
// MemState hashes a live empty account to keccak(""), and the view must
// match, or the fast path silently commits divergent return data.
func TestExtCodeHashFreshAccount(t *testing.T) {
	deployer := secp256k1.DeterministicKey("engine-test-deployer-3")
	deployerAddr := deployer.PublicKey.Address()
	fresh := types.MustHexToAddress("0x00000000000000000000000000000000000000f1")

	// hashOf returns EXTCODEHASH(fresh) as its return data.
	hashOf := asm.MustAssemble(fmt.Sprintf(`
		PUSH20 0x%x
		EXTCODEHASH
		PUSH1 0x00
		MSTORE
		PUSH1 0x20
		PUSH1 0x00
		RETURN
	`, fresh[:]))

	setup := func(c *chain.Chain) {
		c.Fund(deployerAddr, 100_000_000_000)
		c.Fund(devAddr(0), 10_000_000_000)
		c.Fund(devAddr(1), 10_000_000_000)
		deployContracts(t, c, deployer, [][]byte{hashOf})
	}
	probe := types.ContractAddress(deployerAddr, 0)

	txs := func() []*chain.Transaction {
		// dev 0: materialize fresh via a transfer, then probe its code
		// hash — both in one group, committed speculatively. dev 1
		// keeps the batch on the parallel path.
		sink := devAddr(9)
		return []*chain.Transaction{
			signedTx(t, devKey(0), 0, &fresh, 5, nil),
			signedTx(t, devKey(0), 1, &probe, 0, nil),
			signedTx(t, devKey(1), 0, &sink, 1, nil),
		}
	}
	_, receipts := runBoth(t, setup, txs, engine.Options{Workers: 4})
	if !receipts[1].Status {
		t.Fatalf("probe call failed: %v", receipts[1].Err)
	}
	emptyHash := types.HashData(nil)
	if string(receipts[1].ReturnData) != string(emptyHash[:]) {
		t.Fatalf("EXTCODEHASH(fresh) = %x, want keccak(\"\") = %x",
			receipts[1].ReturnData, emptyHash[:])
	}
}

// TestFailedGasPurchaseDigest regression-tests state-digest equality
// when a transaction aborts before buying gas: the serial path
// materializes the unfunded sender's empty account record, the engine
// path does not, and the digest must treat the two as identical.
func TestFailedGasPurchaseDigest(t *testing.T) {
	setup := func(c *chain.Chain) {
		c.Fund(devAddr(0), 10_000_000_000)
		c.Fund(devAddr(1), 10_000_000_000)
		// devAddr(7) is deliberately unfunded.
	}
	txs := func() []*chain.Transaction {
		a, b := devAddr(3), devAddr(4)
		return []*chain.Transaction{
			signedTx(t, devKey(0), 0, &a, 1, nil),
			signedTx(t, devKey(7), 0, &b, 1, nil), // cannot pay gas
			signedTx(t, devKey(1), 0, &b, 2, nil),
		}
	}
	_, receipts := runBoth(t, setup, txs, engine.Options{Workers: 4})
	if receipts[1].Status || receipts[1].Err == nil {
		t.Fatalf("unfunded tx should fail, got %+v", receipts[1])
	}
}

// --- dynamic conflicts --------------------------------------------------

// deployContracts deploys the given runtimes from one deployer via the
// serial path (setup is identical on both chains) and returns their
// addresses.
func deployContracts(t *testing.T, c *chain.Chain, key *secp256k1.PrivateKey, runtimes [][]byte) []types.Address {
	t.Helper()
	addrs := make([]types.Address, len(runtimes))
	for i, rt := range runtimes {
		tx := chain.NewTx(uint64(i), nil, 0, deployInit(rt))
		if err := tx.Sign(key); err != nil {
			t.Fatal(err)
		}
		r, err := c.SendTransaction(tx)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Status {
			t.Fatalf("deploy %d failed: %v", i, r.Err)
		}
		addrs[i] = r.ContractAddress
	}
	return addrs
}

// TestDynamicConflictPartialFallback: two proxies dynamically hit the
// same backend contract — invisible to static grouping — while a third
// group stays clean. The conflicted groups must be repaired serially
// and the receipts still match the serial chain exactly.
func TestDynamicConflictPartialFallback(t *testing.T) {
	deployer := secp256k1.DeterministicKey("engine-test-deployer")
	deployerAddr := deployer.PublicKey.Address()
	backendAddr := types.ContractAddress(deployerAddr, 0)

	setup := func(c *chain.Chain) {
		c.Fund(deployerAddr, 100_000_000_000)
		for i := 0; i < 3; i++ {
			c.Fund(devAddr(i), 10_000_000_000)
		}
		deployContracts(t, c, deployer, [][]byte{
			counterRuntime(),          // backend (shared, dynamic)
			counterRuntime(),          // dev 0's private counter
			proxyRuntime(backendAddr), // proxy for dev 1
			proxyRuntime(backendAddr), // proxy for dev 2
		})
	}
	counter := types.ContractAddress(deployerAddr, 1)
	proxy1 := types.ContractAddress(deployerAddr, 2)
	proxy2 := types.ContractAddress(deployerAddr, 3)

	txs := func() []*chain.Transaction {
		return []*chain.Transaction{
			signedTx(t, devKey(0), 0, &counter, 0, nil),
			signedTx(t, devKey(1), 0, &proxy1, 0, nil),
			signedTx(t, devKey(2), 0, &proxy2, 0, nil),
		}
	}
	eng, receipts := runBoth(t, setup, txs, engine.Options{Workers: 4})
	for i, r := range receipts {
		if !r.Status {
			t.Fatalf("tx %d failed: %v", i, r.Err)
		}
	}
	st := eng.Stats()
	if st.ConflictGroups != 2 {
		t.Fatalf("expected 2 conflicted groups, got %+v", st)
	}
	if st.PartialFallbacks != 1 || st.FullFallbacks != 0 {
		t.Fatalf("expected one partial fallback, got %+v", st)
	}
	if st.ParallelTxs != 1 || st.SerialTxs != 2 {
		t.Fatalf("expected 1 parallel + 2 serial txs, got %+v", st)
	}
}

// TestFullFallbackEscapeHatch: the serial repair of a conflicted pair
// takes a branch the speculation never saw and touches a contract a
// committed group owns. The engine must detect the interference and
// re-execute the whole batch serially — receipts still identical.
func TestFullFallbackEscapeHatch(t *testing.T) {
	deployer := secp256k1.DeterministicKey("engine-test-deployer-2")
	deployerAddr := deployer.PublicKey.Address()
	targetAddr := types.ContractAddress(deployerAddr, 0)
	backendAddr := types.ContractAddress(deployerAddr, 1)

	setup := func(c *chain.Chain) {
		c.Fund(deployerAddr, 100_000_000_000)
		for i := 0; i < 3; i++ {
			c.Fund(devAddr(i), 10_000_000_000)
		}
		deployContracts(t, c, deployer, [][]byte{
			counterRuntime(),                  // target, owned by dev 0's group
			branchyBackendRuntime(targetAddr), // backend shared by the proxies
			proxyRuntime(backendAddr),         // proxy for dev 1
			proxyRuntime(backendAddr),         // proxy for dev 2
		})
	}
	proxy1 := types.ContractAddress(deployerAddr, 2)
	proxy2 := types.ContractAddress(deployerAddr, 3)

	txs := func() []*chain.Transaction {
		return []*chain.Transaction{
			signedTx(t, devKey(0), 0, &targetAddr, 0, nil),
			signedTx(t, devKey(1), 0, &proxy1, 0, nil),
			signedTx(t, devKey(2), 0, &proxy2, 0, nil),
		}
	}
	eng, receipts := runBoth(t, setup, txs, engine.Options{Workers: 4})
	for i, r := range receipts {
		if !r.Status {
			t.Fatalf("tx %d failed: %v", i, r.Err)
		}
	}
	st := eng.Stats()
	if st.FullFallbacks != 1 {
		t.Fatalf("expected the full-serial escape hatch, got %+v", st)
	}

	// The second proxy call must have reached the target through the
	// repaired branch: slot 0 of the target is 2 (one direct call, one
	// via the backend).
	// (Verified implicitly by the digest comparison in runBoth.)
}

// --- concurrency --------------------------------------------------------

// TestConcurrentSubmitRace hammers Engine.Submit from many goroutines
// while blocks are being mined; run under -race in CI.
func TestConcurrentSubmitRace(t *testing.T) {
	const devices = 16
	const perDevice = 8
	c := chain.New()
	for i := 0; i < devices; i++ {
		c.Fund(devAddr(i), 10_000_000_000)
	}
	eng := engine.New(c, engine.Options{Workers: 4})

	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sink := types.ContractAddress(devAddr(i), 999)
			for n := uint64(0); n < perDevice; n++ {
				tx := chain.NewTx(n, &sink, 1, nil)
				if err := tx.Sign(devKey(i)); err != nil {
					t.Error(err)
					return
				}
				if err := eng.Submit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	var receipts []*chain.Receipt
	for eng.Pending() > 0 {
		receipts = append(receipts, eng.MineBlock()...)
	}
	if len(receipts) != devices*perDevice {
		t.Fatalf("expected %d receipts, got %d", devices*perDevice, len(receipts))
	}
	for i, r := range receipts {
		if !r.Status {
			t.Fatalf("tx %d failed: %v", i, r.Err)
		}
	}
	for i := 0; i < devices; i++ {
		if got := c.NonceOf(devAddr(i)); got != perDevice {
			t.Fatalf("device %d nonce = %d, want %d", i, got, perDevice)
		}
	}
}

// TestSerialSmallBatch verifies tiny batches short-circuit to the
// serial path.
func TestSerialSmallBatch(t *testing.T) {
	c := chain.New()
	c.Fund(devAddr(0), 10_000_000_000)
	eng := engine.New(c, engine.Options{Workers: 4})
	a := devAddr(1)
	if err := eng.Submit(signedTx(t, devKey(0), 0, &a, 5, nil)); err != nil {
		t.Fatal(err)
	}
	receipts := eng.MineBlock()
	if len(receipts) != 1 || !receipts[0].Status {
		t.Fatalf("bad receipts: %+v", receipts)
	}
	if st := eng.Stats(); st.SerialTxs != 1 || st.ParallelTxs != 0 {
		t.Fatalf("expected serial path, got %+v", st)
	}
}

// TestWorkersShareJumpDestCache exercises the shared JUMPDEST-analysis
// cache from real engine workers: every device owns its own copy of an
// identical contract (same bytecode, same code hash), so all workers
// resolve their frames through the one cache entry on the base state —
// concurrently, during speculation. Receipts, state digest and block
// hash must stay byte-identical to the serial path; run with -race to
// check the cache's locking.
func TestWorkersShareJumpDestCache(t *testing.T) {
	const devices = 24
	contracts := make([]types.Address, devices)
	setup := func(c *chain.Chain) {
		for i := 0; i < devices; i++ {
			c.Fund(devAddr(i), 10_000_000_000)
		}
		runtimes := make([][]byte, devices)
		for i := range runtimes {
			runtimes[i] = counterRuntime() // identical code, one hash
		}
		deployer := secp256k1.DeterministicKey("engine-test-jdcache")
		c.Fund(deployer.PublicKey.Address(), 10_000_000_000)
		copy(contracts, deployContracts(t, c, deployer, runtimes))
	}
	txs := func() []*chain.Transaction {
		var out []*chain.Transaction
		for n := uint64(0); n < 3; n++ {
			for i := 0; i < devices; i++ {
				out = append(out, signedTx(t, devKey(i), n, &contracts[i], 0, nil))
			}
		}
		return out
	}
	eng, receipts := runBoth(t, setup, txs, engine.Options{Workers: 8})
	for i, r := range receipts {
		if !r.Status {
			t.Fatalf("tx %d failed: %v", i, r.Err)
		}
	}
	if st := eng.Stats(); st.ParallelTxs != devices*3 {
		t.Fatalf("expected %d parallel txs, got %+v", devices*3, st)
	}
}
