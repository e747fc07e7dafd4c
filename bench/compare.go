package main

// bench compare A.json B.json — the tool a performance claim is checked
// with. Per metric x workload it prints the median and quartiles of
// each side and ONE verdict:
//
//	better      B's median is better than A's by more than the bound
//	same        the medians are within the metric's bound
//	worse       B's median is worse than A's by more than the bound
//	unresolved  the run-to-run quartile spread of a side is wider than
//	            the bound and the sides' interquartile ranges overlap:
//	            the runs cannot tell
//
// One row per workload; every ratio is printed with its base.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
)

// setupAbsFloorS: set-up may also worsen by this much in absolute terms
// before it counts (a 60 ms set-up swinging by 20 ms is not a finding).
const setupAbsFloorS = 0.5

type side struct {
	values   []float64
	med      float64
	q1, q3   float64
	min, max float64
}

func newSide(values []float64) side {
	s := side{values: values, med: median(values)}
	s.q1, s.q3 = quartiles(values)
	sorted := sortedCopy(values)
	if len(sorted) > 0 {
		s.min, s.max = sorted[0], sorted[len(sorted)-1]
	}
	return s
}

func (s side) spread() float64 { return spread(s.values) }

func (s side) String() string {
	return fmt.Sprintf("%.4g [%.4g..%.4g] n=%d", s.med, s.q1, s.q3, len(s.values))
}

// verdict applies the rule above. worseBy is B's relative change in the
// bad direction (positive: worse), with A's median as the base.
func verdict(def metricDef, a, b side) (v string, worseBy float64) {
	if a.med != 0 {
		worseBy = (b.med - a.med) / math.Abs(a.med)
	} else if b.med != 0 {
		worseBy = math.Inf(1)
	}
	if def.Better == "higher" {
		worseBy = -worseBy
	}
	if def.Name == "failed_frac" {
		// Any increase is a regression; expected 0 on both sides.
		switch {
		case b.max > a.max:
			return "worse", worseBy
		case b.max < a.max:
			return "better", worseBy
		}
		return "same", worseBy
	}
	bound := def.Bound
	if def.Name == "setup_s" && a.med > 0 && setupAbsFloorS/a.med > bound {
		bound = setupAbsFloorS / a.med
	}
	overlap := a.q1 <= b.q3 && b.q1 <= a.q3
	if math.Max(a.spread(), b.spread()) > bound && overlap {
		return "unresolved", worseBy
	}
	switch {
	case worseBy > bound:
		return "worse", worseBy
	case worseBy < -bound:
		return "better", worseBy
	}
	return "same", worseBy
}

// collect gathers, for every workload, every run's value of a metric.
// pick chooses the map to read (end-to-end metrics or layers).
func collect(f *resultFile, name string, pick func(*result) map[string]Metric) map[string][]float64 {
	out := map[string][]float64{}
	for _, run := range f.Runs {
		for wl, res := range run.Workloads {
			if m, ok := pick(res)[name]; ok {
				out[wl] = append(out[wl], m.Value)
			}
		}
	}
	return out
}

func allEqual(values []float64) bool {
	for _, v := range values {
		if v != values[0] {
			return false
		}
	}
	return true
}

func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare A.json B.json")
	}
	a, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s  commit %s seed %d, %d run(s), fsync %.0f us\n", args[0], a.Env.Commit, a.Env.Seed, len(a.Runs), a.Env.FsyncUs)
	fmt.Fprintf(w, "B = %s  commit %s seed %d, %d run(s), fsync %.0f us\n", args[1], b.Env.Commit, b.Env.Seed, len(b.Runs), b.Env.FsyncUs)
	if diffs := incomparable(a.Env, b.Env); len(diffs) > 0 {
		fmt.Fprintln(w, "the environment blocks differ:")
		for _, d := range diffs {
			fmt.Fprintln(w, "  "+d)
		}
		return fmt.Errorf("result files are incomparable")
	}

	counts := map[string]int{}
	for _, def := range endToEnd {
		av := collect(a, def.Name, func(r *result) map[string]Metric { return r.Metrics })
		bv := collect(b, def.Name, func(r *result) map[string]Metric { return r.Metrics })
		if len(av) == 0 && len(bv) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s [%s, %s is better, bound %.0f %% of A's median]\n", def.Name, def.Unit, def.Better, 100*def.Bound)
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  workload\tA median [q1..q3]\tB median [q1..q3]\tB/A (base A)\tspread A / B\tverdict")
		for _, spec := range workloads {
			va, vb := av[spec.name], bv[spec.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := newSide(va), newSide(vb)
			v, _ := verdict(def, sa, sb)
			counts[v]++
			ratio := "-"
			if sa.med != 0 {
				ratio = fmt.Sprintf("%.3f (A = %.4g)", sb.med/sa.med, sa.med)
			}
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%.1f %% / %.1f %%\t%s\n",
				spec.name, sa, sb, ratio, 100*sa.spread(), 100*sb.spread(), v)
		}
		tw.Flush()
	}

	// Per-layer metrics have no bound: they are printed with their ratio
	// and whether they repeat exactly — the property a count-based claim
	// rests on.
	fmt.Fprintln(w, "\nper-layer metrics (no bound; 'exact' = every run on both sides reads the same)")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tworkload\tA median [q1..q3]\tB median [q1..q3]\tB/A (base A)\t")
	row := func(name, where string, va, vb []float64) {
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		sa, sb := newSide(va), newSide(vb)
		note := ""
		switch {
		case allEqual(append(append([]float64{}, va...), vb...)):
			note = "exact"
		case sa.med != 0:
			note = fmt.Sprintf("%+.2f %%", 100*(sb.med-sa.med)/math.Abs(sa.med))
		}
		ratio := "-"
		if sa.med != 0 {
			ratio = fmt.Sprintf("%.3f (A = %.4g)", sb.med/sa.med, sa.med)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\t%s\n", name, where, sa, sb, ratio, note)
	}
	for _, def := range perLayer {
		av := collect(a, def.Name, func(r *result) map[string]Metric { return r.Layers })
		bv := collect(b, def.Name, func(r *result) map[string]Metric { return r.Layers })
		for _, spec := range workloads {
			row(def.Name, spec.name, av[spec.name], bv[spec.name])
		}
		var ga, gb []float64
		for _, run := range a.Runs {
			if m, ok := run.Layers[def.Name]; ok {
				ga = append(ga, m.Value)
			}
		}
		for _, run := range b.Runs {
			if m, ok := run.Layers[def.Name]; ok {
				gb = append(gb, m.Value)
			}
		}
		row(def.Name, "(all)", ga, gb)
	}
	tw.Flush()

	var parts []string
	for _, v := range []string{"better", "same", "worse", "unresolved"} {
		parts = append(parts, fmt.Sprintf("%d %s", counts[v], v))
	}
	sort.Strings(parts)
	fmt.Fprintf(w, "\nend-to-end verdicts: %s\n", strings.Join(parts, ", "))
	return nil
}
