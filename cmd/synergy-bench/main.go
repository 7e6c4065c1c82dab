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
//	synergy-bench -experiment contention -herd
//	synergy-bench -experiment maintenance -views 1,4,16
//	synergy-bench -experiment skew -skew 0,0.99,1.2 -skewwaves 40
//	synergy-bench -experiment server -conns 8 -txns 16
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"synergy/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig10|fig11|fig12|fig13|fig14|table1|table2|table3|design|contention|maintenance|skew|server|all")
		cust       = flag.Int("cust", 1000, "TPC-W customer count (paper: 1,000,000)")
		reps       = flag.Int("reps", 10, "repetitions per measurement (paper: 10)")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		scales     = flag.String("scales", "500,5000,20000", "Figure 10 customer scales (paper: 500,5000,50000)")
		locks      = flag.String("locks", "10,100,1000", "Figure 11 lock counts")
		hotRows    = flag.String("hotrows", "1,4,16", "contention sweep hot-row counts")
		workers    = flag.Int("workers", 4, "contention sweep concurrent workers")
		rounds     = flag.Int("rounds", 25, "contention sweep waves per cell")
		ops        = flag.Int("ops", 1, "contention sweep statements per transaction")
		herd       = flag.Bool("herd", false, "contention sweep: conflict losers retry as an overlapping wave instead of solo")
		views      = flag.String("views", "1,4,16", "maintenance sweep view counts")
		skews      = flag.String("skew", "0,0.99,1.2", "skew sweep Zipf exponents (0 = uniform)")
		skewKeys   = flag.Int("skewkeys", 50000, "skew sweep keyspace size")
		skewOps    = flag.Int("skewops", 64, "skew sweep concurrent ops per wave")
		skewWaves  = flag.Int("skewwaves", 40, "skew sweep measured waves")
		conns      = flag.Int("conns", 8, "server experiment concurrent client connections per mode")
		txns       = flag.Int("txns", 16, "server experiment transactions per connection")
	)
	flag.Parse()

	if err := run(*experiment, *cust, *reps, *seed, parseInts(*scales), parseInts(*locks),
		parseInts(*hotRows), *workers, *rounds, *ops, *herd, parseInts(*views),
		parseFloats(*skews), bench.SkewOpts{Keys: *skewKeys, WaveOps: *skewOps, Waves: *skewWaves},
		bench.ServerOpts{Conns: *conns, Txns: *txns}); err != nil {
		fmt.Fprintln(os.Stderr, "synergy-bench:", err)
		os.Exit(1)
	}
}

func parseFloats(csv string) []float64 {
	var out []float64
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "synergy-bench: bad number %q\n", part)
			os.Exit(2)
		}
		out = append(out, f)
	}
	return out
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

func run(experiment string, cust, reps int, seed int64, scales, locks, hotRows []int, workers, rounds, ops int, herd bool, views []int, skews []float64, skewOpts bench.SkewOpts, serverOpts bench.ServerOpts) error {
	needSystems := map[string]bool{"fig12": true, "fig14": true, "table2": true, "table3": true, "all": true}
	var set *bench.SystemSet
	if needSystems[experiment] {
		fmt.Printf("building the five evaluated systems over TPC-W with %d customers (seed %d)...\n\n", cust, seed)
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
		fmt.Println("Synergy design for the TPC-W workload (§V, §VI):")
		fmt.Println(set.Synergy.Design().Summary())
	}

	if want("fig10") {
		rows, err := bench.RunFigure10(scales, reps, seed, nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFigure10(rows))
	}
	if want("fig11") {
		rows, err := bench.RunFigure11(locks, reps, seed, nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFigure11(rows))
	}
	if want("fig12") {
		g, err := bench.RunFigure12(set, reps, seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderGrid("Figure 12: TPC-W join queries", g))
		fmt.Println(bench.RenderComparisons(g))
	}
	if want("fig13") {
		fmt.Println(bench.Figure13Matrix())
	}
	if want("contention") {
		res, err := bench.RunContentionOpts(hotRows, workers, rounds, ops, seed, nil,
			bench.ContentionOpts{Herd: herd})
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderContention(res))
	}
	if want("maintenance") {
		res, err := bench.RunMaintenance(views, reps, seed, nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderMaintenance(res))
	}
	if want("server") {
		res, err := bench.RunServer(serverOpts, nil)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderServer(res))
	}
	if want("skew") {
		res, err := bench.RunSkew(skews, skewOpts, seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderSkew(res))
	}
	if want("fig14") {
		g, err := bench.RunFigure14(set, reps, seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderGrid("Figure 14: TPC-W write statements", g))
		fmt.Println(bench.RenderComparisons(g))
	}
	if want("table1") {
		fmt.Println(bench.TableIQualitative())
	}
	if want("table2") {
		rows, err := bench.RunTableII(set, reps, seed)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTableII(rows))
	}
	if want("table3") {
		rows := bench.RunTableIII(set)
		fmt.Println(bench.RenderTableIII(rows, set.Data.Card.Customers))
	}
	return nil
}
