package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Fatalf("mean = %f", s.Mean)
	}
	if s.Std != 2 {
		t.Fatalf("std = %f", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %f/%f", s.Min, s.Max)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %f", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Fatalf("p100 = %f", got)
	}
	if got := Percentile(xs, 50); got != 5.5 {
		t.Fatalf("p50 = %f", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty percentile = %f", got)
	}
}

func TestPercentileExact(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50},
		{10, 14}, {90, 46}, // interpolated ranks
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile sorted the caller's slice")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if len(h.Counts) != 5 {
		t.Fatalf("%d bins", len(h.Counts))
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Fatalf("counts sum %d", total)
	}
	// Each bin holds exactly two values.
	for i, c := range h.Counts {
		if c != 2 {
			t.Fatalf("bin %d = %d", i, c)
		}
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram([]float64{5, 5, 5}, 4)
	if h.Counts[0] != 3 {
		t.Fatalf("degenerate histogram: %+v", h)
	}
	empty := NewHistogram(nil, 4)
	if empty.Total != 0 {
		t.Fatal("empty histogram has entries")
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	f := func(seed int64) bool {
		xs := make([]float64, 200)
		v := float64(seed % 97)
		for i := range xs {
			v = math.Mod(v*1103515245+12345, 1000)
			xs[i] = v
		}
		h := NewHistogram(xs, 20)
		var integral float64
		for _, d := range h.Density() {
			integral += d * h.Width
		}
		return math.Abs(integral-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Correlation(xs, ys); math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect correlation got %f", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Correlation(xs, neg); math.Abs(got+1) > 1e-9 {
		t.Fatalf("perfect anticorrelation got %f", got)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if got := Correlation(xs, flat); got != 0 {
		t.Fatalf("flat correlation got %f", got)
	}
	if got := Correlation(xs, []float64{1}); got != 0 {
		t.Fatalf("mismatched lengths got %f", got)
	}
}

func TestRenderHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 2, 3, 3, 3}, 3)
	out := RenderHistogram(h, 20, "test histo")
	if !strings.Contains(out, "test histo") {
		t.Fatal("missing label")
	}
	if !strings.Contains(out, "#") {
		t.Fatal("no bars drawn")
	}
}

func TestRenderScatter(t *testing.T) {
	pts := []Point{{X: 1, Y: 1}, {X: 2, Y: 4}, {X: 3, Y: 9}}
	out := RenderScatter(pts, 40, 10, "squares", "x", "x^2", math.NaN(), 5)
	if !strings.Contains(out, "squares") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "+") {
		t.Fatal("no points drawn")
	}
	if !strings.Contains(out, "-") {
		t.Fatal("reference line missing")
	}
	if RenderScatter(nil, 10, 5, "empty", "", "", math.NaN(), math.NaN()) == "" {
		t.Fatal("empty scatter should render title")
	}
}

func TestRenderSpans(t *testing.T) {
	spans := []Span{
		{Start: 0, Duration: 0.1, Level: 13, Label: "cpu"},
		{Start: 0.1, Duration: 0.35, Level: 26, Label: "crypto"},
		{Start: 0.45, Duration: 0.05, Level: 24, Label: "tx"},
	}
	out := RenderSpans(spans, 60, 8, "current", "s", "mA")
	if !strings.Contains(out, "current") || !strings.Contains(out, "#") {
		t.Fatalf("span render broken:\n%s", out)
	}
}
