// Command benchtables regenerates every table and figure of the paper's
// evaluation section (§VI) from the simulation:
//
//	benchtables -all                # everything (default corpus 7000, 200 rounds)
//	benchtables -table 2 -n 7000    # Table II only
//	benchtables -fig 3a             # Figure 3a only
//	benchtables -ablations          # the DESIGN.md §5 ablation studies
//
// The output is plain text in the layout of the paper's artifacts so the
// two can be compared side by side; EXPERIMENTS.md records one such run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"tinyevm/internal/eval"
)

func main() {
	var (
		table     = flag.String("table", "", "table to produce: 1, 2, 3, 4 or 5")
		fig       = flag.String("fig", "", "figure to produce: 3a, 3b, 3c, 4 or 5")
		all       = flag.Bool("all", false, "produce every table and figure")
		ablations = flag.Bool("ablations", false, "run the ablation studies")
		n         = flag.Int("n", 7000, "corpus size for Table II / Figures 3-4")
		reps      = flag.Int("reps", 200, "repetitions for Table IV / Figure 5")
		quiet     = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the run cleanly between units of work
	// instead of leaving a half-written report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !*all && *table == "" && *fig == "" && !*ablations {
		*all = true
	}

	needCorpus := *all || *table == "2" || *fig == "3a" || *fig == "3b" || *fig == "3c" || *fig == "4"
	needRounds := *all || *table == "4" || *fig == "5"

	var corpusRep eval.CorpusReport
	if needCorpus {
		progress := func(done int) {
			if !*quiet && done%500 == 0 {
				fmt.Fprintf(os.Stderr, "  corpus: %d/%d deployed\n", done, *n)
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "deploying %d synthetic contracts...\n", *n)
		}
		corpusRep = eval.RunCorpus(ctx, *n, progress)
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "benchtables: interrupted")
			os.Exit(130)
		}
	}

	var roundRep *eval.RoundReport
	if needRounds {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %d off-chain rounds...\n", *reps)
		}
		var err error
		roundRep, err = eval.RunRounds(ctx, *reps)
		if err != nil {
			code := 1
			if errors.Is(err, context.Canceled) {
				code = 130
			}
			fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
			os.Exit(code)
		}
	}

	section := func(title string) { fmt.Printf("\n======== %s ========\n\n", title) }

	if *all || *table == "1" {
		section("Table I: EVM vs TinyEVM specification")
		fmt.Print(eval.RunTableI().String())
	}
	if *all || *fig == "3a" {
		section("Figure 3a")
		fmt.Print(corpusRep.Fig3a())
	}
	if *all || *fig == "3b" {
		section("Figure 3b")
		fmt.Print(corpusRep.Fig3b())
	}
	if *all || *fig == "3c" {
		section("Figure 3c")
		fmt.Print(corpusRep.Fig3c())
	}
	if *all || *fig == "4" {
		section("Figure 4")
		fmt.Print(corpusRep.Fig4())
	}
	if *all || *table == "2" {
		section("Table II: deployment statistics")
		fmt.Print(corpusRep.TableII())
	}
	if *all || *table == "3" {
		section("Table III: memory footprint")
		fmt.Print(eval.RunTableIII().String())
	}
	if *all || *table == "5" {
		section("Table V: cryptographic operations")
		fmt.Print(eval.RunTableV().String())
	}
	if *all || *table == "4" {
		section("Table IV: off-chain round energy")
		fmt.Print(roundRep.TableIV())
		fmt.Println()
		fmt.Print(roundRep.BatterySummary())
	}
	if *all || *fig == "5" {
		section("Figure 5")
		fmt.Print(roundRep.Fig5())
	}
	if *all || *ablations {
		section("Ablation: word width")
		fmt.Print(eval.RenderWordWidthAblation(eval.RunWordWidthAblation()))
		section("Ablation: storage budget")
		fmt.Print(eval.RenderStorageAblation(eval.RunStorageAblation(800)))
		section("Ablation: memory limit")
		fmt.Print(eval.RenderMemoryAblation(eval.RunMemoryAblation(800)))
		section("Comparison: IoT opcode vs oracle")
		cmp, err := eval.RunOracleComparison()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: oracle comparison: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(cmp.String())
		section("Extension: payment routing")
		var routes []*eval.RoutingReport
		for _, hops := range []int{1, 2, 3, 4} {
			r, err := eval.RunRouting(hops)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: routing: %v\n", err)
				os.Exit(1)
			}
			routes = append(routes, r)
		}
		fmt.Print(eval.RenderRouting(routes))
	}
}
