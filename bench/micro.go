package main

// The micro pass of the traced run: direct timing of each layer's
// public functions, from outside. Every figure is the median of `reps`
// repetitions; a repetition runs for at least repDur and at least
// minIters iterations.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tinyevm"
	"tinyevm/internal/chain"
	"tinyevm/internal/contracts"
	"tinyevm/internal/engine"
	"tinyevm/internal/eval"
	"tinyevm/internal/evm"
	"tinyevm/internal/keccak"
	"tinyevm/internal/mst"
	"tinyevm/internal/p2p"
	"tinyevm/internal/secp256k1"
	"tinyevm/internal/store"
	"tinyevm/internal/store/disk"
	"tinyevm/internal/txpool"
	"tinyevm/internal/types"
	"tinyevm/internal/uint256"
)

// microPass holds the repetition rule and collects the metrics.
type microPass struct {
	layerPassSize
	scratch string
	out     map[string]Metric
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// loop times fn(n) — n iterations of the operation — and returns the
// median nanoseconds and heap allocations per iteration.
func (p *microPass) loop(fn func(n int)) (ns, allocs float64, iters int) {
	fn(1) // warm caches and lazy set-up
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= p.repDur/4 || n >= 1<<24 {
			per := float64(d.Nanoseconds()) / float64(n)
			if per <= 0 {
				per = 1
			}
			n = int(float64(p.repDur.Nanoseconds())/per) + 1
			break
		}
		n *= 4
	}
	if n < p.minIters {
		n = p.minIters
	}
	var nss, als []float64
	var ms runtime.MemStats
	for r := 0; r < p.reps; r++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		nss = append(nss, float64(d.Nanoseconds())/float64(n))
		als = append(als, float64(ms.Mallocs-before)/float64(n))
	}
	return median(nss), median(als), n
}

func (p *microPass) put(name string, v float64, samples int) {
	def, _ := perLayerDef(name)
	p.out[name] = Metric{Value: v, Unit: def.Unit, Samples: samples}
}

// once times a whole operation heavyReps times (set-up excluded by the
// caller) and returns the median in nanoseconds.
func (p *microPass) once(fn func() (time.Duration, error)) (float64, error) {
	var ds []float64
	for r := 0; r < p.heavyReps; r++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d.Nanoseconds()))
	}
	return median(ds), nil
}

func runMicro(cfg *config, size layerPassSize) (map[string]Metric, error) {
	dir, err := os.MkdirTemp(cfg.Scratch, "micro-")
	if err != nil {
		return nil, err
	}
	p := &microPass{layerPassSize: size, scratch: dir, out: map[string]Metric{}}
	for _, part := range []func() error{
		p.crypto, p.words, p.interpreter, p.walStore, p.diskStore, p.chainAndEngine, p.merkle, p.gateway, p.gossip,
	} {
		if err := part(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func (p *microPass) crypto() error {
	key := secp256k1.DeterministicKey("bench-micro")
	digest := types.Hash{0x42, 0x01}
	sig, err := key.Sign(digest)
	if err != nil {
		return err
	}
	// Sign and recover are timed by the boundary pass (interleaved with
	// the boundaries they are subtracted from); here only their
	// allocation bills.
	_, al, n := p.loop(func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = key.Sign(digest)
		}
	})
	p.put("secp256k1.sign_allocs", al, n)
	_, al, n = p.loop(func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = secp256k1.RecoverAddress(digest, sig)
		}
	})
	p.put("secp256k1.recover_allocs", al, n)
	ns, _, n := p.loop(func(n int) {
		for i := 0; i < n; i++ {
			sink = secp256k1.Verify(&key.PublicKey, digest, sig)
		}
	})
	p.put("secp256k1.verify_us", ns/1e3, n)

	for _, c := range []struct {
		name string
		size int
	}{{"keccak.sum256_32b_ns", 32}, {"keccak.sum256_1kb_ns", 1024}} {
		buf := make([]byte, c.size)
		ns, _, n := p.loop(func(n int) {
			for i := 0; i < n; i++ {
				buf[0] = byte(i)
				sink = keccak.Sum256(buf)
			}
		})
		p.put(c.name, ns, n)
	}
	return nil
}

func (p *microPass) words() error {
	x := new(uint256.Int).SetAllOnes()
	y := new(uint256.Int).SetBytes([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	m := new(uint256.Int).SetBytes([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3})
	var z uint256.Int
	ns, _, n := p.loop(func(n int) {
		for i := 0; i < n; i++ {
			z.MulMod(x, y, m)
		}
	})
	p.put("uint256.mulmod_ns", ns, n)
	ns, _, n = p.loop(func(n int) {
		for i := 0; i < n; i++ {
			z.Div(x, m)
		}
	})
	p.put("uint256.div_ns", ns, n)
	sink = z
	return nil
}

// interpreter times the raw EVM over a MemState, no device, no service.
func (p *microPass) interpreter() error {
	caller, _ := tinyevm.HexToAddress("0x00000000000000000000000000000000000000bb")
	mix, err := callMix(caller)
	if err != nil {
		return err
	}
	rts := eval.WorkloadRuntimes()
	arith, err := tinyevm.Assemble(`
		PUSH2 0x0200
		:loop JUMPDEST
		PUSH1 1
		SWAP1
		SUB
		DUP1
		ISZERO
		PUSH :done
		JUMPI
		PUSH :loop
		JUMP
		:done JUMPDEST
		STOP
	`)
	if err != nil {
		return err
	}
	variants := []struct {
		metric string
		code   []byte
		input  []byte
		// seed writes the storage the call reads, at the slot the contract
		// is known to use; want (when set) is the word the call must then
		// return, so a changed layout fails here, not in the figures.
		seed func(st *evm.MemState, contract types.Address)
		want uint64
	}{
		{metric: "evm.call_erc20_ns", code: rts["erc20"], input: mix[0].input, want: 1,
			// ModeTiny truncates storage keys to their low byte.
			seed: func(st *evm.MemState, c types.Address) {
				st.SetState(c, uint256.NewInt(uint64(caller[19])), uint256.NewInt(erc20Supply))
			}},
		{metric: "evm.call_counter_ns", code: rts["inccounter"]},
		{metric: "evm.call_sensor_ns", code: contracts.PaymentChannelRuntime(), input: mix[2].input, want: sensorValue,
			seed: func(st *evm.MemState, c types.Address) {
				st.SetState(c, uint256.NewInt(0x0c), uint256.NewInt(sensorValue))
			}},
		{metric: "evm.arith_msteps_s", code: arith},
	}
	for _, v := range variants {
		state := evm.NewMemState()
		addr, _ := tinyevm.HexToAddress("0x00000000000000000000000000000000000000aa")
		state.SetCode(addr, v.code)
		if v.seed != nil {
			v.seed(state, addr)
		}
		vm := evm.New(evm.TinyConfig(), state)
		// Warm past the tier-1 promotion threshold: the steady state is
		// the fused interpreter.
		for i := 0; i < 8; i++ {
			res := vm.Call(caller, addr, v.input, uint256.NewInt(0), 0)
			if res.Err != nil {
				return fmt.Errorf("%s: %w", v.metric, res.Err)
			}
			if got, ok := wordUint(res.ReturnData); v.want != 0 && (!ok || got != v.want) {
				return fmt.Errorf("%s returned %x, want %d", v.metric, res.ReturnData, v.want)
			}
		}
		var steps uint64
		var failed error
		ns, al, n := p.loop(func(n int) {
			steps = 0
			for i := 0; i < n; i++ {
				res := vm.Call(caller, addr, v.input, uint256.NewInt(0), 0)
				if res.Err != nil {
					failed = res.Err
				}
				steps += res.Stats.Steps
			}
		})
		if failed != nil {
			return fmt.Errorf("%s: %w", v.metric, failed)
		}
		if v.metric == "evm.arith_msteps_s" {
			p.put(v.metric, float64(steps)/float64(n)/ns*1e3, n) // steps per ns -> millions per second
			continue
		}
		p.put(v.metric, ns, n)
		if v.metric == "evm.call_erc20_ns" {
			p.put("evm.call_allocs", al, n)
		}
	}

	// Nested snapshots over a populated state: 12 levels, two writes
	// each, odd levels discarded then even levels reverted outward.
	state := evm.NewMemState()
	for i := 0; i < 512; i++ {
		var a types.Address
		a[0], a[18], a[19] = 0x51, byte(i>>8), byte(i)
		state.AddBalance(a, uint256.NewInt(uint64(1000+i)))
	}
	var hot types.Address
	hot[19] = 0x51
	ns, _, n := p.loop(func(n int) {
		ids := make([]int, 0, 12)
		for i := 0; i < n; i++ {
			ids = ids[:0]
			for d := 0; d < 12; d++ {
				ids = append(ids, state.Snapshot())
				state.AddBalance(hot, uint256.NewInt(1))
				state.SetState(hot, uint256.NewInt(uint64(d)), uint256.NewInt(uint64(i+1)))
			}
			for d := 1; d < 12; d += 2 {
				state.DiscardSnapshot(ids[d])
			}
			for d := 10; d >= 0; d -= 2 {
				state.RevertToSnapshot(ids[d])
			}
		}
	})
	p.put("evm.snapshot_revert_ns", ns, n)
	return nil
}

func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

const storeValueBytes = 200

func storeKey(i int) []byte { return []byte(fmt.Sprintf("bench/%012d", i)) }

func (p *microPass) walStore() error {
	value := make([]byte, storeValueBytes)

	// A bare write + fsync on the same filesystem, so a reader can tell
	// the sandbox's disk from the program.
	f, err := os.Create(filepath.Join(p.scratch, "fsync.probe"))
	if err != nil {
		return err
	}
	ns, _, n := p.loop(func(n int) {
		for i := 0; i < n; i++ {
			f.Write(value)
			f.Sync()
		}
	})
	f.Close()
	p.put("fs.fsync_us", ns/1e3, n)

	path := filepath.Join(p.scratch, "micro.wal")
	w, err := store.OpenWAL(path)
	if err != nil {
		return err
	}
	next, userBytes := 0, int64(0)
	var failed error
	ns, _, n = p.loop(func(n int) {
		for i := 0; i < n; i++ {
			k := storeKey(next)
			next++
			userBytes += int64(len(k) + len(value))
			if err := w.Put(k, value); err != nil {
				failed = err
			}
		}
	})
	if failed != nil {
		return failed
	}
	p.put("store.wal_put_us", ns/1e3, n)
	size := dirSize(path)
	p.put("store.wal_bytes_per_user_byte", float64(size)/float64(userBytes), next)
	ns, _, n = p.loop(func(n int) {
		for i := 0; i < n; i++ {
			b := w.Batch()
			for j := 0; j < 16; j++ {
				b.Put(storeKey(next), value)
				next++
			}
			if err := b.Commit(); err != nil {
				failed = err
			}
		}
	})
	if failed != nil {
		return failed
	}
	p.put("store.wal_batch16_us", ns/1e3, n)
	if err := w.Close(); err != nil {
		return err
	}

	// Open cost: replay of a 10,000-record log.
	const records = 10_000
	path = filepath.Join(p.scratch, "open.wal")
	w, err = store.OpenWAL(path, store.WithNoSync())
	if err != nil {
		return err
	}
	for i := 0; i < records; i++ {
		if err := w.Put(storeKey(i), value); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	open, err := p.once(func() (time.Duration, error) {
		t0 := time.Now()
		w, err := store.OpenWAL(path)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		return d, w.Close()
	})
	if err != nil {
		return err
	}
	p.put("store.wal_open_ms_per_10k", open/1e6, p.heavyReps)
	return nil
}

func (p *microPass) diskStore() error {
	value := make([]byte, storeValueBytes)
	dir := filepath.Join(p.scratch, "micro.disk")
	db, err := disk.Open(dir)
	if err != nil {
		return err
	}
	next := 0
	var failed error
	ns, _, n := p.loop(func(n int) {
		for i := 0; i < n; i++ {
			if err := db.Put(storeKey(next), value); err != nil {
				failed = err
			}
			next++
		}
	})
	if failed != nil {
		return failed
	}
	p.put("store.disk_put_us", ns/1e3, n)
	// Reads: a small hot set written last, so it is certainly still in
	// the memtable (the put loop above may have flushed, 1 MiB at a
	// time); then the same keys again after a forced flush, from the
	// segment file.
	const hot = 256
	for i := 0; i < hot; i++ {
		if err := db.Put(storeKey(next+i), value); err != nil {
			return err
		}
	}
	get := func(n int) {
		for i := 0; i < n; i++ {
			v, ok, err := db.Get(storeKey(next + i%hot))
			if err != nil || !ok {
				failed = fmt.Errorf("disk get %d: ok=%v err=%v", i%hot, ok, err)
			}
			sink = v
		}
	}
	ns, _, n = p.loop(get)
	p.put("store.disk_get_mem_ns", ns, n)
	if err := db.Flush(); err != nil {
		return err
	}
	ns, _, n = p.loop(get)
	p.put("store.disk_get_seg_us", ns/1e3, n)
	if failed != nil {
		return failed
	}
	if err := db.Close(); err != nil {
		return err
	}

	// Open cost: 10,000 keys in one segment plus a 1,000-record WAL tail.
	dir = filepath.Join(p.scratch, "open.disk")
	if db, err = disk.Open(dir, disk.WithNoSync()); err != nil {
		return err
	}
	for i := 0; i < 11_000; i++ {
		if err := db.Put(storeKey(i), value); err != nil {
			return err
		}
		if i == 9_999 {
			if err := db.Flush(); err != nil {
				return err
			}
		}
	}
	if err := db.Close(); err != nil {
		return err
	}
	open, err := p.once(func() (time.Duration, error) {
		t0 := time.Now()
		db, err := disk.Open(dir)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		return d, db.Close()
	})
	if err != nil {
		return err
	}
	p.put("store.disk_open_ms", open/1e6, p.heavyReps)
	return nil
}

// sealChain builds a chain of `accounts` funded accounts with a store
// attached; each timed iteration dirties one account and seals an empty
// block, so the figure is seal + state commitment + persistSeal.
func (p *microPass) sealChain(mstMode bool, accounts int) (float64, int, error) {
	c := chain.New()
	if mstMode {
		c.EnableMSTCommitment()
	}
	if err := c.AttachStore(store.NewMem()); err != nil {
		return 0, 0, err
	}
	addr := func(i int) types.Address {
		var a types.Address
		a[0], a[18], a[19] = 0x77, byte(i>>8), byte(i)
		return a
	}
	for i := 0; i < accounts; i++ {
		c.Fund(addr(i), 1000)
	}
	c.MineBlock()
	next := 0
	ns, _, n := p.loop(func(n int) {
		for i := 0; i < n; i++ {
			c.Fund(addr(next%accounts), 1)
			next++
			c.MineBlock()
		}
	})
	return ns, n, c.StoreErr()
}

func (p *microPass) chainAndEngine() error {
	const accounts = 256
	ns, n, err := p.sealChain(false, accounts)
	if err != nil {
		return err
	}
	p.put("chain.seal_persist_us", ns/1e3, n)
	if ns, n, err = p.sealChain(true, accounts); err != nil {
		return err
	}
	p.put("chain.mst_commit_us", ns/1e3, n)

	// Serial and engine block production over the canonical multi-device
	// batch (64 devices x 8 txs). One repetition is one 512-tx block.
	params := eval.DefaultEngineWorkload()
	if p.smallEngine {
		params.Devices, params.TxPerDevice = 8, 2
	}
	wl, err := eval.BuildEngineWorkload(params)
	if err != nil {
		return err
	}
	txs := float64(len(wl.Batch()))
	workers := runtime.NumCPU()
	var digestChain *chain.Chain
	mine := func(workers int) (float64, error) {
		return p.once(func() (time.Duration, error) {
			c, err := wl.NewChain()
			if err != nil {
				return 0, err
			}
			var receipts []*chain.Receipt
			var d time.Duration
			if workers == 0 {
				for _, tx := range wl.Batch() {
					if err := c.Submit(tx); err != nil {
						return 0, err
					}
				}
				t0 := time.Now()
				receipts = c.MineBlock()
				d = time.Since(t0)
			} else {
				eng := engine.New(c, engine.Options{Workers: workers})
				for _, tx := range wl.Batch() {
					if err := eng.Submit(tx); err != nil {
						return 0, err
					}
				}
				t0 := time.Now()
				receipts = eng.MineBlock()
				d = time.Since(t0)
			}
			for _, r := range receipts {
				if !r.Status {
					return 0, fmt.Errorf("engine workload tx failed: %v", r.Err)
				}
			}
			digestChain = c
			return d, nil
		})
	}
	serial, err := mine(0)
	if err != nil {
		return err
	}
	par, err := mine(workers)
	if err != nil {
		return err
	}
	p.put("chain.mine_tx_us", serial/txs/1e3, p.heavyReps)
	p.put("engine.mine_tx_us", par/txs/1e3, p.heavyReps)
	p.out["engine.speedup"] = Metric{Value: serial / par, Unit: "ratio", Samples: p.heavyReps,
		Note: fmt.Sprintf("serial %.0f us/tx over engine with %d workers", serial/txs/1e3, workers)}

	// The legacy O(n) full-state digest over that chain's 66 accounts.
	ns, _, n = p.loop(func(n int) {
		for i := 0; i < n; i++ {
			sink = digestChain.State().Digest()
		}
	})
	p.put("chain.digest_us", ns/1e3, n)
	return nil
}

func (p *microPass) merkle() error {
	const keys = 1024
	m := mst.NewMap()
	key := func(i int) []byte { return []byte(fmt.Sprintf("acct-%06d", i)) }
	hashes := make([]types.Hash, keys)
	sums := make([]uint64, keys)
	set := func(i, v int) {
		hashes[i], sums[i] = types.Hash{byte(v), byte(v >> 8), byte(v >> 16)}, uint64(v)
		m.Update(key(i), hashes[i], sums[i])
	}
	for i := 0; i < keys; i++ {
		set(i, i)
	}
	next := keys
	ns, _, n := p.loop(func(n int) {
		for i := 0; i < n; i++ {
			next++
			set(next%keys, next)
		}
	})
	p.put("mst.update_us", ns/1e3, n)
	var failed error
	ns, _, n = p.loop(func(n int) {
		root := m.Root()
		for i := 0; i < n; i++ {
			k := i % keys
			proof, err := m.Prove(key(k))
			if err != nil {
				failed = err
				continue
			}
			if err := mst.VerifyMapProof(root, key(k), hashes[k], sums[k], proof); err != nil {
				failed = err
			}
		}
	})
	if failed != nil {
		return failed
	}
	p.put("mst.prove_verify_us", ns/1e3, n)
	return nil
}

// gateway times the cheapest RPC method over real loopback: the
// gateway's floor.
func (p *microPass) gateway() error {
	dep, err := openDeployment("hub", "", "", nil)
	if err != nil {
		return err
	}
	defer dep.close()
	gw, err := startGateway(dep.svc, nil)
	if err != nil {
		return err
	}
	defer gw.close()
	client, ht := newClient(gw.url, nil)
	defer ht.CloseIdleConnections()
	ctx := context.Background()
	var failed error
	ns, _, n := p.loop(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := client.Head(ctx); err != nil {
				failed = err
			}
		}
	})
	if failed != nil {
		return failed
	}
	p.put("rpc.head_us", ns/1e3, n)
	return nil
}

// gossip times the wire codec on a block shaped like cluster_replicate's
// (one signed transaction), and the transaction pool.
func (p *microPass) gossip() error {
	key := secp256k1.DeterministicKey("bench-gossip")
	to := types.Address{0xbe, 0xef}
	tx := chain.NewTx(0, &to, 1, []byte{0xd0, 0xe3, 0x0d, 0xb0})
	if err := tx.Sign(key); err != nil {
		return err
	}
	msg := &p2p.BlockMsg{
		Header: p2p.Header{Number: 7, ParentHash: types.Hash{1}, Hash: types.Hash{2}, Timestamp: 99,
			Coinbase: key.PublicKey.Address(), GasUsed: 21000, TxHashes: []types.Hash{tx.Hash()}},
		Txs:         []*chain.Transaction{tx},
		Sig:         make([]byte, 65),
		StateDigest: types.Hash{3},
	}
	frame := p2p.Encode(msg)
	ns, _, n := p.loop(func(n int) {
		for i := 0; i < n; i++ {
			sink = p2p.Encode(msg)
		}
	})
	p.put("p2p.block_encode_us", ns/1e3, n)
	var failed error
	ns, _, n = p.loop(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := p2p.Decode(frame); err != nil {
				failed = err
			}
		}
	})
	if failed != nil {
		return failed
	}
	p.put("p2p.block_decode_us", ns/1e3, n)
	p.put("p2p.block_bytes", float64(len(frame)), 1)

	pool := txpool.NewPool(0)
	ns, _, n = p.loop(func(n int) {
		for i := 0; i < n; i++ {
			pool.Add(tx)
			sink = pool.TakeAll()
		}
	})
	p.put("txpool.add_pop_us", ns/1e3, n)
	return nil
}
