// Command tpcwgen generates the TPC-W database used by the evaluation
// (§IX-D1) and prints its cardinalities and estimated sizes, or dumps a
// table as TSV. It can also emit a Zipf-skewed key-access trace over a
// keyspace — the request distribution the hot-region experiment drives the
// store with (rank 0 hottest, ranks in key order).
//
// Usage:
//
//	tpcwgen -cust 1000                     # summary
//	tpcwgen -cust 100 -dump Customer       # TSV rows to stdout
//	tpcwgen -zipf 0.99 -keys 50000 -draws 100000   # skew summary
//	tpcwgen -zipf 0.99 -keys 50000 -draws 1000 -trace   # one key per line
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"synergy/internal/sim"
	"synergy/internal/tpcw"
)

func main() {
	var (
		cust  = flag.Int("cust", 1000, "customer count (paper: 1,000,000)")
		seed  = flag.Int64("seed", 1, "deterministic seed")
		dump  = flag.String("dump", "", "table to dump as TSV (empty = summary)")
		zipf  = flag.Float64("zipf", -1, "emit a Zipf key-access summary with this exponent (0 = uniform)")
		keys  = flag.Int("keys", 50_000, "keyspace size for -zipf")
		draws = flag.Int("draws", 100_000, "samples for -zipf")
		trace = flag.Bool("trace", false, "with -zipf: print one drawn key per line instead of the summary")
	)
	flag.Parse()

	if *zipf >= 0 {
		zipfReport(*zipf, *keys, *draws, *seed, *trace)
		return
	}

	data := tpcw.Generate(*cust, *seed)
	if *dump == "" {
		summary(data)
		return
	}
	rows, ok := data.Tables[*dump]
	if !ok {
		fmt.Fprintf(os.Stderr, "tpcwgen: unknown table %q\n", *dump)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if len(rows) == 0 {
		return
	}
	cols := make([]string, 0, len(rows[0]))
	for c := range rows[0] {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		for i, c := range cols {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprintf(w, "%v", r[c])
		}
		fmt.Fprintln(w)
	}
}

// zipfReport draws from the skew generator and prints either the raw trace
// (keys in the hot-region experiment's key format) or a head-share summary
// comparing the analytic distribution with the empirical draw.
func zipfReport(s float64, keys, draws int, seed int64, trace bool) {
	z := sim.NewZipf(sim.NewRNG(seed).Derive("tpcwgen/zipf"), keys, s)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if trace {
		for i := 0; i < draws; i++ {
			fmt.Fprintf(w, "k%08d\n", z.Next())
		}
		return
	}
	counts := make([]int, keys)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	fmt.Fprintf(w, "Zipf(s=%g) over %d keys, %d draws (seed %d)\n\n", s, keys, draws, seed)
	fmt.Fprintf(w, "%-12s %12s %12s\n", "head (ranks)", "mass", "drawn")
	for _, head := range []int{1, 10, 100, keys / 100, keys / 10, keys} {
		if head <= 0 || head > keys {
			continue
		}
		drawn := 0
		for k := 0; k < head; k++ {
			drawn += counts[k]
		}
		fmt.Fprintf(w, "%-12d %11.2f%% %11.2f%%\n",
			head, z.Share(head)*100, 100*float64(drawn)/float64(draws))
	}
}

func summary(data *tpcw.Data) {
	fmt.Printf("TPC-W database (NUM_CUST=%d, NUM_ITEMS=%d)\n\n", data.Card.Customers, data.Card.Items)
	stats := data.Stats()
	fmt.Printf("%-22s %10s %14s %12s\n", "table", "rows", "avg row (B)", "raw (MB)")
	var total int64
	for _, n := range data.TableNames() {
		rows := stats.Rows[n]
		avg := stats.AvgRowBytes[n]
		total += rows * avg
		fmt.Printf("%-22s %10d %14d %12.2f\n", n, rows, avg, float64(rows*avg)/1e6)
	}
	fmt.Printf("%-22s %10s %14s %12.2f\n", "TOTAL", "", "", float64(total)/1e6)
}
