package main

import (
	"math"
	"math/bits"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before the harness prints it: with fewer, the figure is one or two
// outliers, not a property of the system. hist.quantile applies it; it is
// the harness's only percentile.
const minBeyond = 10

// median returns the middle value of values (mean of the two middle
// ones for an even count); 0 for an empty slice. values is not modified.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sortedCopy(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(values []float64) []float64 {
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method) — the rule
// the benchmark contract states its run-to-run spread in. Fewer than two
// values have no spread: both quartiles equal the single value.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return values[0], values[0]
	}
	s := sortedCopy(values)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return math.Abs(q3-q1) / math.Abs(m)
}

// selfTime is boundary-pass subtraction: the time a layer spends itself
// is what its boundary costs minus what the next boundary in costs. A
// negative difference means noise exceeded the layer's cost; it is
// clamped to zero and flagged so the stack never hides it.
func selfTime(outer, inner float64) (self float64, clamped bool) {
	if outer < inner {
		return 0, true
	}
	return outer - inner, false
}

// hist is a log-linear latency histogram in nanoseconds: 128 linear
// sub-buckets per power of two, so a bucket is at most 0.8 % wide.
// call_mem completes half a million ops a second; keeping every sample
// would make the harness, not the service, what peak_rss_mb measures.
type hist struct {
	counts [histBuckets]uint32
	n      int
	max    int64 // the largest sample, exact
}

const (
	histSubBits = 7
	histBuckets = (41-histSubBits)*(1<<histSubBits) + (1 << histSubBits) // values up to 2^41 ns (37 min)
)

func histIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	e := bits.Len64(v) - (histSubBits + 1)
	if e <= 0 {
		return int(v) // below 256 ns every value has its own bucket
	}
	idx := e<<histSubBits + int(v>>uint(e))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns bucket idx's lower bound and width.
func histBounds(idx int) (low, width float64) {
	e := idx>>histSubBits - 1
	if e <= 0 {
		return float64(idx), 1
	}
	m := idx - e<<histSubBits
	return float64(uint64(m) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile is the nearest-rank p-quantile (0 < p < 1): that sample's
// bucket, interpolated by the sample's position inside it, and whether
// at least minBeyond samples lie beyond that rank.
func (h *hist) quantile(p float64) (ns float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	k := int(math.Ceil(p*float64(h.n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= h.n {
		k = h.n - 1
	}
	seen := 0
	for idx, c := range h.counts {
		if c == 0 || seen+int(c) <= k {
			seen += int(c)
			continue
		}
		low, width := histBounds(idx)
		return low + width*(float64(k-seen)+0.5)/float64(c), h.n-1-k >= minBeyond
	}
	return 0, false
}

// p50 is the median in nanoseconds (0 for an empty histogram), whatever
// the sample count: a median of few samples is still the best single
// figure for them, and every metric states its sample count.
func (h *hist) p50() float64 {
	v, _ := h.quantile(0.5)
	return v
}
