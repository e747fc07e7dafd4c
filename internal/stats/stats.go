// Package stats provides the descriptive statistics and ASCII renderings
// used by the evaluation harness to regenerate the paper's tables and
// figures (density plots, scatter plots, summary rows).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the Table II style descriptive statistics of a sample.
type Summary struct {
	N    int
	Min  float64
	Max  float64
	Mean float64
	Std  float64
	P50  float64
	P95  float64
	P99  float64
}

// Summarize computes summary statistics; an empty sample yields zeros.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	s.P50 = Percentile(xs, 50)
	s.P95 = Percentile(xs, 95)
	s.P99 = Percentile(xs, 99)
	return s
}

// Percentile returns the p-th percentile (0-100) by nearest-rank with
// linear interpolation.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram bins xs into n equal-width buckets over [min, max].
type Histogram struct {
	Min, Max float64
	Width    float64
	Counts   []int
	Total    int
}

// NewHistogram builds an n-bin histogram. Degenerate samples produce a
// single full bin.
func NewHistogram(xs []float64, n int) Histogram {
	if n <= 0 {
		n = 10
	}
	h := Histogram{Counts: make([]int, n), Total: len(xs)}
	if len(xs) == 0 {
		return h
	}
	h.Min, h.Max = xs[0], xs[0]
	for _, x := range xs {
		if x < h.Min {
			h.Min = x
		}
		if x > h.Max {
			h.Max = x
		}
	}
	if h.Max == h.Min {
		h.Counts[0] = len(xs)
		h.Width = 1
		return h
	}
	h.Width = (h.Max - h.Min) / float64(n)
	for _, x := range xs {
		idx := int((x - h.Min) / h.Width)
		if idx >= n {
			idx = n - 1
		}
		h.Counts[idx] += 1
	}
	return h
}

// RenderHistogram draws a horizontal-bar histogram with bin labels.
func RenderHistogram(h Histogram, width int, label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", label, h.Total)
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		return b.String()
	}
	for i, c := range h.Counts {
		lo := h.Min + float64(i)*h.Width
		hi := lo + h.Width
		bar := strings.Repeat("#", c*width/maxCount)
		fmt.Fprintf(&b, "%10.0f-%-10.0f |%-*s %d\n", lo, hi, width, bar, c)
	}
	return b.String()
}

// Point is one (x, y) sample of a scatter plot.
type Point struct {
	X, Y float64
	// Mark selects the plot glyph; 0 uses '+'.
	Mark byte
}

// RenderScatter draws an ASCII scatter plot (the Figure 3b / Figure 4
// renderings). Horizontal and vertical reference lines can be drawn at
// refX/refY (NaN disables them).
func RenderScatter(points []Point, cols, rows int, title, xLabel, yLabel string, refX, refY float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(points) == 0 {
		return b.String()
	}
	minX, maxX := points[0].X, points[0].X
	minY, maxY := points[0].Y, points[0].Y
	for _, p := range points {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	if !math.IsNaN(refX) {
		maxX = math.Max(maxX, refX)
	}
	if !math.IsNaN(refY) {
		maxY = math.Max(maxY, refY)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	colOf := func(x float64) int {
		c := int((x - minX) / (maxX - minX) * float64(cols-1))
		return clamp(c, 0, cols-1)
	}
	rowOf := func(y float64) int {
		r := int((y - minY) / (maxY - minY) * float64(rows-1))
		return clamp(rows-1-r, 0, rows-1)
	}
	if !math.IsNaN(refY) {
		r := rowOf(refY)
		for c := 0; c < cols; c++ {
			grid[r][c] = '-'
		}
	}
	if !math.IsNaN(refX) {
		c := colOf(refX)
		for r := 0; r < rows; r++ {
			grid[r][c] = '|'
		}
	}
	for _, p := range points {
		mark := p.Mark
		if mark == 0 {
			mark = '+'
		}
		grid[rowOf(p.Y)][colOf(p.X)] = mark
	}
	fmt.Fprintf(&b, "%12.0f ┤\n", maxY)
	for _, row := range grid {
		fmt.Fprintf(&b, "%12s │%s\n", "", string(row))
	}
	fmt.Fprintf(&b, "%12.0f └%s\n", minY, strings.Repeat("─", cols))
	fmt.Fprintf(&b, "%12s  %-*s%*s\n", "", cols/2, fmt.Sprintf("%.0f", minX), cols/2, fmt.Sprintf("%.0f", maxX))
	fmt.Fprintf(&b, "  x: %s, y: %s\n", xLabel, yLabel)
	return b.String()
}

// RenderStepSeries draws a time series of (start, duration, level) spans
// as a step plot — the Figure 5 current-over-time rendering.
type Span struct {
	Start, Duration float64
	Level           float64
	Label           string
}

// RenderSpans draws spans as an ASCII step chart over [0, end].
func RenderSpans(spans []Span, cols, rows int, title, xUnit, yUnit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(spans) == 0 {
		return b.String()
	}
	var end, maxLevel float64
	for _, s := range spans {
		if e := s.Start + s.Duration; e > end {
			end = e
		}
		if s.Level > maxLevel {
			maxLevel = s.Level
		}
	}
	if end == 0 || maxLevel == 0 {
		return b.String()
	}
	// level per column = max level of any span overlapping the column.
	levels := make([]float64, cols)
	for _, s := range spans {
		c0 := clamp(int(s.Start/end*float64(cols)), 0, cols-1)
		c1 := clamp(int((s.Start+s.Duration)/end*float64(cols)), 0, cols-1)
		for c := c0; c <= c1; c++ {
			if s.Level > levels[c] {
				levels[c] = s.Level
			}
		}
	}
	for r := rows - 1; r >= 0; r-- {
		threshold := maxLevel * float64(r) / float64(rows-1)
		line := make([]byte, cols)
		for c := 0; c < cols; c++ {
			if levels[c] >= threshold && levels[c] > 0 {
				line[c] = '#'
			} else {
				line[c] = ' '
			}
		}
		fmt.Fprintf(&b, "%8.1f │%s\n", threshold, string(line))
	}
	fmt.Fprintf(&b, "%8s └%s\n", "", strings.Repeat("─", cols))
	fmt.Fprintf(&b, "%8s  0%*s\n", "", cols-1, fmt.Sprintf("%.2f %s", end, xUnit))
	fmt.Fprintf(&b, "  y: %s\n", yUnit)
	return b.String()
}

// Correlation returns the Pearson correlation coefficient of two
// equal-length samples.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	sx := Summarize(xs)
	sy := Summarize(ys)
	if sx.Std == 0 || sy.Std == 0 {
		return 0
	}
	var cov float64
	for i := range xs {
		cov += (xs[i] - sx.Mean) * (ys[i] - sy.Mean)
	}
	cov /= float64(len(xs))
	return cov / (sx.Std * sy.Std)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
