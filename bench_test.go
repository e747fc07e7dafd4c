package tinyevm_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VI), exposed through `go test -bench`. The heavier
// experiments use reduced populations here; cmd/benchtables runs the
// full-scale versions (7,000 contracts, 200 rounds) and prints the
// paper-style artifacts.
//
//	go test -bench=. -benchmem
//	go run ./cmd/benchtables -all
//
// Custom metrics are reported with benchmark-standard units so the
// measured values (on the simulated device clock) appear next to the
// host-side ns/op numbers.

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"tinyevm/internal/corpus"
	"tinyevm/internal/device"
	"tinyevm/internal/eval"
	"tinyevm/internal/protocol"
)

// BenchmarkTableI_OpcodeCategories regenerates Table I (spec comparison)
// by introspecting the live opcode tables.
func BenchmarkTableI_OpcodeCategories(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := eval.RunTableI()
		if t.Tiny.SmartContract != 21 {
			b.Fatal("Table I drifted")
		}
	}
}

// BenchmarkTableII_Fig3_Fig4_Deploy runs the corpus deployment
// experiment (Table II, Figures 3a-3c and 4) on a reduced population and
// reports the key measured values as custom metrics.
func BenchmarkTableII_Fig3_Fig4_Deploy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := eval.RunCorpus(context.Background(), 300, nil)
		b.ReportMetric(100*rep.SuccessRate(), "%deployable")
		b.ReportMetric(rep.TimeSummary.Mean, "ms-mean-deploy")
		b.ReportMetric(rep.StackSummary.Mean, "words-mean-SP")
	}
}

// BenchmarkTableIII_Footprint regenerates the Table III memory budget.
func BenchmarkTableIII_Footprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := eval.RunTableIII()
		if f.UsedRAM == 0 {
			b.Fatal("footprint empty")
		}
	}
	f := eval.RunTableIII()
	b.ReportMetric(float64(f.UsedRAM), "B-RAM-used")
}

// BenchmarkTableIV_Fig5_OffchainRound runs full off-chain rounds
// (Table IV / Figure 5) and reports the car-side energy and active time.
func BenchmarkTableIV_Fig5_OffchainRound(b *testing.B) {
	var lastEnergy, lastActive float64
	for i := 0; i < b.N; i++ {
		s, err := protocol.NewScenario(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		r, err := protocol.RunParkingRound(s, 10_000, 250, 300*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		lastEnergy = r.CarEnergy.TotalEnergyMJ
		lastActive = float64(r.ActiveTime.Microseconds()) / 1000
	}
	b.ReportMetric(lastEnergy, "mJ/round")
	b.ReportMetric(lastActive, "ms-active/round")
}

// BenchmarkTableV_CryptoOps measures the device crypto engine (Table V).
func BenchmarkTableV_CryptoOps(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		t := eval.RunTableV()
		total = t.Total()
	}
	b.ReportMetric(float64(total.Microseconds())/1000, "ms-crypto-round")
}

// BenchmarkPayment measures one off-chain payment end to end (the
// paper's 584 ms claim), on the simulated device clocks.
func BenchmarkPayment(b *testing.B) {
	s, err := protocol.NewScenario(7)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := s.Car.OpenChannel(s.Lot.Address(), 500_000_000, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Lot.AcceptChannel(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last time.Duration
	for i := 0; i < b.N; i++ {
		lat, err := protocol.PaymentLatency(s, cs.ID, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = lat
	}
	b.ReportMetric(float64(last.Microseconds())/1000, "ms-device-latency")
}

// BenchmarkDeploy4KBContract measures deploying one representative 4 KB
// contract (the corpus mean) — the unit behind Figure 4.
func BenchmarkDeploy4KBContract(b *testing.B) {
	params := corpus.DefaultParams(64)
	contracts := corpus.Generate(params)
	// Pick the contract closest to 4 KB.
	best := contracts[0]
	for _, c := range contracts {
		if diff(len(c.InitCode), 4096) < diff(len(best.InitCode), 4096) {
			best = c
		}
	}
	dev := device.New("bench-deploy")
	b.ResetTimer()
	var last time.Duration
	for i := 0; i < b.N; i++ {
		dev.ResetMeasurement()
		res := dev.Deploy(best.InitCode, 0)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		last = res.Time
	}
	b.ReportMetric(float64(last.Microseconds())/1000, "ms-device-time")
	b.ReportMetric(float64(len(best.InitCode)), "B-contract")
}

// BenchmarkAblationWordWidth runs the word-width ablation.
func BenchmarkAblationWordWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := eval.RunWordWidthAblation()
		if len(rows) != 3 {
			b.Fatal("ablation broken")
		}
	}
}

func diff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// TestBenchModuleBuilds compiles and vets the benchmark. bench/ is a
// module of its own (the root ./... patterns never enter it) that
// imports this one through a replace directive, so a change here that
// breaks it would otherwise only show in `make bench-check`.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	for _, args := range [][]string{
		{"build", "-C", "bench", "-o", os.DevNull, "./..."}, // no binary left in bench/
		{"vet", "-C", "bench", "./..."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
