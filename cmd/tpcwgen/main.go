// Command tpcwgen generates the TPC-W database used by the evaluation
// (§IX-D1) and prints its cardinalities and estimated sizes, or dumps a
// table as TSV.
//
// Usage:
//
//	tpcwgen -cust 1000                     # summary
//	tpcwgen -cust 100 -dump Customer       # TSV rows to stdout
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"synergy/internal/tpcw"
)

func main() {
	var (
		cust = flag.Int("cust", 1000, "customer count (paper: 1,000,000)")
		seed = flag.Int64("seed", 1, "deterministic seed")
		dump = flag.String("dump", "", "table to dump as TSV (empty = summary)")
	)
	flag.Parse()

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
