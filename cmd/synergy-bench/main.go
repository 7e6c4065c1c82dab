// Command synergy-bench regenerates the paper's evaluation (§IX): every
// figure and table, printed as text. By default it runs everything at a
// laptop-friendly scale; -cust and -scales raise the database sizes toward
// the paper's.
//
// Usage:
//
//	synergy-bench -experiment all -cust 1000 -reps 10
//	synergy-bench -experiment fig10 -scales 500,5000,50000
//	synergy-bench -experiment table3 -cust 2000
//	synergy-bench -experiment contention -hotrows 1,4,16 -workers 8 -rounds 50 -ops 10
//	synergy-bench -experiment maintenance -views 1,4,16
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"synergy/internal/bench"
)

// experiments are the names -experiment accepts.
var experiments = []string{"fig10", "fig11", "fig12", "fig13", "fig14", "table1", "table2", "table3",
	"design", "contention", "maintenance", "all"}

func main() {
	var (
		experiment = flag.String("experiment", "all", strings.Join(experiments, "|"))
		cust       = flag.Int("cust", 1000, "TPC-W customer count (paper: 1,000,000)")
		reps       = flag.Int("reps", 10, "repetitions per measurement (paper: 10)")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		scales     = flag.String("scales", "500,5000,20000", "Figure 10 customer scales (paper: 500,5000,50000)")
		locks      = flag.String("locks", "10,100,1000", "Figure 11 lock counts")
		hotRows    = flag.String("hotrows", "1,4,16", "contention sweep hot-row counts")
		workers    = flag.Int("workers", 4, "contention sweep concurrent workers")
		rounds     = flag.Int("rounds", 25, "contention sweep waves per cell")
		ops        = flag.Int("ops", 1, "contention sweep statements per transaction")
		views      = flag.String("views", "1,4,16", "maintenance sweep view counts")
	)
	flag.Parse()
	if !slices.Contains(experiments, *experiment) {
		fmt.Fprintf(os.Stderr, "synergy-bench: unknown experiment %q; want one of %s\n", *experiment, strings.Join(experiments, ", "))
		os.Exit(2)
	}

	if err := run(os.Stdout, *experiment, *cust, *reps, *seed, parseInts(*scales), parseInts(*locks),
		parseInts(*hotRows), *workers, *rounds, *ops, parseInts(*views)); err != nil {
		fmt.Fprintln(os.Stderr, "synergy-bench:", err)
		os.Exit(1)
	}
}

func parseInts(csv string) []int {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "synergy-bench: bad number %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func run(w io.Writer, experiment string, cust, reps int, seed int64, scales, locks, hotRows []int, workers, rounds, ops int, views []int) error {
	needSystems := map[string]bool{"fig12": true, "fig14": true, "table2": true, "table3": true, "all": true}
	var set *bench.SystemSet
	if needSystems[experiment] {
		fmt.Fprintf(w, "building the five evaluated systems over TPC-W with %d customers (seed %d)...\n\n", cust, seed)
		var err error
		set, err = bench.BuildSystems(cust, seed, nil)
		if err != nil {
			return err
		}
	}

	want := func(name string) bool { return experiment == name || experiment == "all" }

	if want("design") {
		sys := set
		if sys == nil {
			var err error
			sys, err = bench.BuildSystems(cust, seed, nil)
			if err != nil {
				return err
			}
			set = sys
		}
		fmt.Fprintln(w, "Synergy design for the TPC-W workload (§V, §VI):")
		fmt.Fprintln(w, set.Synergy.Design().Summary())
	}

	if want("fig10") {
		rows, err := bench.RunFigure10(scales, reps, seed, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderFigure10(rows))
	}
	if want("fig11") {
		rows, err := bench.RunFigure11(locks, reps, seed, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderFigure11(rows))
	}
	if want("fig12") {
		g, err := bench.RunFigure12(set, reps, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderGrid("Figure 12: TPC-W join queries", g))
		fmt.Fprintln(w, bench.RenderComparisons(g))
	}
	if want("fig13") {
		fmt.Fprintln(w, bench.Figure13Matrix())
	}
	if want("contention") {
		res, err := bench.RunContention(hotRows, workers, rounds, ops, seed, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderContention(res))
	}
	if want("maintenance") {
		res, err := bench.RunMaintenance(views, reps, seed, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderMaintenance(res))
	}
	if want("fig14") {
		g, err := bench.RunFigure14(set, reps, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderGrid("Figure 14: TPC-W write statements", g))
		fmt.Fprintln(w, bench.RenderComparisons(g))
	}
	if want("table1") {
		fmt.Fprintln(w, bench.TableIQualitative())
	}
	if want("table2") {
		rows, err := bench.RunTableII(set, reps, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderTableII(rows))
	}
	if want("table3") {
		rows := bench.RunTableIII(set)
		fmt.Fprintln(w, bench.RenderTableIII(rows, set.Data.Card.Customers))
	}
	return nil
}
