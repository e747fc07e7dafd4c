package tinyevm_test

// Differential golden test for the interpreter: the observable outcome
// of executing the corpus workloads — receipts, state digests and block
// hashes on the full-mode chain, and deployment outcomes in Tiny mode —
// is pinned to digests captured from the interpreter before the
// jump-table refactor (testdata/golden-exec.json). Any change to
// dispatch, gas folding, pooling or JUMPDEST caching that alters a
// single observable byte fails this test.
//
// Refresh the golden file (only for intentional semantic changes) with:
//
//	go test -run TestInterpreterDifferentialGolden -update-golden .

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tinyevm/internal/chain"
	"tinyevm/internal/corpus"
	"tinyevm/internal/device"
	"tinyevm/internal/engine"
	"tinyevm/internal/eval"
	"tinyevm/internal/keccak"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-exec.json from the current interpreter")

const goldenPath = "testdata/golden-exec.json"

// goldenExec is the committed fingerprint of interpreter behavior.
type goldenExec struct {
	// ChainReceipts digests every receipt field (status, gas, return
	// data, logs, error text) of the engine workload mined serially.
	ChainReceipts string `json:"chain_receipts"`
	// ChainHead is the sealed block hash after the workload block.
	ChainHead string `json:"chain_head"`
	// ChainState is the MemState digest after the workload block.
	ChainState string `json:"chain_state"`
	// CorpusResults digests every Tiny-mode corpus deployment outcome.
	CorpusResults string `json:"corpus_results"`
	// CorpusState is the device state digest after all deployments.
	CorpusState string `json:"corpus_state"`
}

// differentialWorkload is the chain workload: smaller than the bench
// default so the test stays fast, but with enough devices and hot
// traffic to exercise calls, storage, hashing, jumps and conflicts.
func differentialWorkload() eval.EngineWorkloadParams {
	return eval.EngineWorkloadParams{Devices: 24, TxPerDevice: 4, ConflictFraction: 0.1, WorkLoops: 60}
}

func hashReceipts(receipts []*chain.Receipt) string {
	h := &keccak.Hasher{}
	var buf [8]byte
	for _, r := range receipts {
		h.Write(r.TxHash[:])
		if r.Status {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		binary.BigEndian.PutUint64(buf[:], r.GasUsed)
		h.Write(buf[:])
		h.Write(r.ContractAddress[:])
		binary.BigEndian.PutUint64(buf[:], uint64(len(r.ReturnData)))
		h.Write(buf[:])
		h.Write(r.ReturnData)
		binary.BigEndian.PutUint64(buf[:], r.BlockNumber)
		h.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], uint64(len(r.Logs)))
		h.Write(buf[:])
		for _, l := range r.Logs {
			h.Write(l.Address[:])
			for _, topic := range l.Topics {
				h.Write(topic[:])
			}
			h.Write(l.Data)
		}
		if r.Err != nil {
			h.Write([]byte(r.Err.Error()))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runChainFixture mines the engine workload and returns the receipt,
// head-block and state digests. workers == 0 runs the serial path.
func runChainFixture(t *testing.T, workers int) (receipts, head, state string) {
	t.Helper()
	w, err := eval.BuildEngineWorkload(differentialWorkload())
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.NewChain()
	if err != nil {
		t.Fatal(err)
	}
	var rs []*chain.Receipt
	if workers == 0 {
		for _, tx := range w.Batch() {
			if err := c.Submit(tx); err != nil {
				t.Fatal(err)
			}
		}
		rs = c.MineBlock()
	} else {
		eng := engine.New(c, engine.Options{Workers: workers})
		for _, tx := range w.Batch() {
			if err := eng.Submit(tx); err != nil {
				t.Fatal(err)
			}
		}
		rs = eng.MineBlock()
	}
	headHash := c.Head().Hash
	stateHash := c.State().Digest()
	return hashReceipts(rs), fmt.Sprintf("%x", headHash[:]), fmt.Sprintf("%x", stateHash[:])
}

// runCorpusFixture deploys a deterministic Tiny-mode corpus population
// on one device and digests every observable deployment outcome.
func runCorpusFixture(t *testing.T) (results, state string) {
	t.Helper()
	contracts := corpus.Generate(corpus.DefaultParams(120))
	dev := device.New("differential-golden")
	h := &keccak.Hasher{}
	var buf [8]byte
	for _, c := range contracts {
		r := dev.Deploy(c.InitCode, 0)
		binary.BigEndian.PutUint64(buf[:], uint64(c.Index))
		h.Write(buf[:])
		h.Write(r.Address[:])
		binary.BigEndian.PutUint64(buf[:], uint64(r.RuntimeSize))
		h.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], r.MemoryUsage)
		h.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], uint64(r.MaxStackPointer))
		h.Write(buf[:])
		if r.Err != nil {
			h.Write([]byte(r.Err.Error()))
		}
	}
	stateHash := dev.State.Digest()
	return fmt.Sprintf("%x", h.Sum(nil)), fmt.Sprintf("%x", stateHash[:])
}

func currentGolden(t *testing.T) goldenExec {
	t.Helper()
	var g goldenExec
	g.ChainReceipts, g.ChainHead, g.ChainState = runChainFixture(t, 0)
	g.CorpusResults, g.CorpusState = runCorpusFixture(t)
	return g
}

func TestInterpreterDifferentialGolden(t *testing.T) {
	got := currentGolden(t)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	var want goldenExec
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("interpreter behavior diverged from golden:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestEngineMatchesSerialGolden proves the parallel engine path stays
// byte-identical to the serial path on the same workload — receipts,
// head block hash and state digest all agree.
func TestEngineMatchesSerialGolden(t *testing.T) {
	sr, sh, ss := runChainFixture(t, 0)
	for _, workers := range []int{2, 4} {
		pr, ph, ps := runChainFixture(t, workers)
		if pr != sr || ph != sh || ps != ss {
			t.Errorf("workers=%d diverged from serial:\n receipts %s vs %s\n head %s vs %s\n state %s vs %s",
				workers, pr, sr, ph, sh, ps, ss)
		}
	}
}
