package hbase

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"synergy/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// lenFold is the Folder of the golden's folding specs: it counts a region's
// rows by the length of their v cell and answers with one partial row per
// length, keyed by it.
type lenFold map[int]int

func newLenFold() Folder { return lenFold{} }

func (f lenFold) Add(r RowResult) { f[len(r.Get("v"))]++ }

func (f lenFold) Rows() []RowResult {
	var out []RowResult
	for n := range 16 {
		if f[n] > 0 {
			out = append(out, RowResult{Key: fmt.Sprint(n), Cells: Cells{{Qualifier: "n", Value: []byte(fmt.Sprint(f[n]))}}})
		}
	}
	return out
}

// TestScanChargesGolden pins what a scan is charged, spec by spec: the rows it
// returns, every sim.Stats counter of the request, and the request's elapsed
// time after its first Next — the time-to-first-row a consumer sees. The
// fixture has eight regions, store files, memstore rows and tombstones. Each
// spec runs without workers (Sequential) and with whatever Scan decides; a
// spec that stops early (a Limit reached before the range ends, a Close
// mid-stream) runs without workers only, because how far a worker gets before
// it is stopped depends on the scheduler. A folding spec's rows are its
// regions' partial rows. Run it at -cpu 1,2,4.
func TestScanChargesGolden(t *testing.T) {
	_, c := buildScanFixture(t, 4000, 8)
	odd := func(r RowResult) bool { return len(r.Get("v"))%2 == 0 }
	cases := []struct {
		name      string
		spec      ScanSpec
		closeAt   int  // Close after this many rows (0 = drain)
		earlyStop bool // stops before the range ends: no worker variant
	}{
		{name: "full", spec: ScanSpec{Batch: 100}},
		{name: "full-default-batch", spec: ScanSpec{}},
		{name: "range", spec: ScanSpec{Start: scanKey(500), Stop: scanKey(3500), Batch: 100}},
		{name: "stop-in-region", spec: ScanSpec{Stop: scanKey(1777), Batch: 100}},
		{name: "prefix-across-split", spec: ScanSpec{Prefix: "k001", Batch: 100}},
		{name: "reversed", spec: ScanSpec{Start: scanKey(300), Stop: scanKey(3333), Reversed: true, Batch: 100}},
		{name: "limit-below-batch", spec: ScanSpec{Limit: 37, Batch: 100}},
		{name: "limit-at-least-batch", spec: ScanSpec{Stop: scanKey(1400), Limit: 2000, Batch: 300}},
		{name: "limit-trims", spec: ScanSpec{Limit: 1234, Batch: 300}, earlyStop: true},
		{name: "limit-trims-reversed", spec: ScanSpec{Limit: 777, Batch: 100, Reversed: true}, earlyStop: true},
		{name: "filter", spec: ScanSpec{Filter: odd, Batch: 100}},
		{name: "columns", spec: ScanSpec{Columns: NewColumnSet("v"), Batch: 100}},
		{name: "snapshot", spec: ScanSpec{Read: ReadOpts{ReadTS: 1}, Batch: 100}},
		{name: "close-early", spec: ScanSpec{Batch: 100}, closeAt: 250, earlyStop: true},
		{name: "close-early-filter", spec: ScanSpec{Filter: odd, Batch: 64}, closeAt: 777, earlyStop: true},
		{name: "fold", spec: ScanSpec{Fold: newLenFold, Batch: 100}},
		{name: "fold-range", spec: ScanSpec{Start: scanKey(500), Stop: scanKey(3500), Fold: newLenFold}},
		{name: "fold-stop-in-region", spec: ScanSpec{Stop: scanKey(1777), Fold: newLenFold}},
		{name: "fold-prefix", spec: ScanSpec{Prefix: "k001", Fold: newLenFold}},
		{name: "fold-filter-columns", spec: ScanSpec{Filter: odd, Columns: NewColumnSet("v"), Fold: newLenFold}},
		{name: "fold-snapshot", spec: ScanSpec{Read: ReadOpts{ReadTS: 1}, Fold: newLenFold}},
		{name: "fold-empty", spec: ScanSpec{Start: scanKey(4001), Fold: newLenFold}},
	}
	var b strings.Builder
	for _, tc := range cases {
		for _, sequential := range []bool{true, false} {
			if !sequential && tc.earlyStop {
				continue
			}
			spec := tc.spec
			spec.Sequential = sequential
			ctx := sim.NewCtx()
			sc, err := c.Scan(ctx, "t", spec)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			rows := 0
			var firstNext sim.Micros
			for {
				row, ok := sc.Next(ctx)
				if rows == 0 {
					firstNext = ctx.Elapsed()
				}
				if !ok {
					break
				}
				rows++
				h.Write([]byte(row.Key))
				for _, p := range row.Cells {
					h.Write([]byte(p.Qualifier))
					h.Write(p.Value)
				}
				if rows == tc.closeAt {
					sc.Close(ctx)
					break
				}
			}
			fmt.Fprintf(&b, "%s sequential=%v rows=%d hash=%016x first-next-us=%d", tc.name, sequential, rows, h.Sum64(), firstNext)
			st := reflect.ValueOf(ctx.Snapshot())
			for i := 0; i < st.NumField(); i++ {
				fmt.Fprintf(&b, " %s=%d", st.Type().Field(i).Name, st.Field(i).Int())
			}
			b.WriteByte('\n')
		}
	}

	path := filepath.Join("testdata", "scan_charges.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("scan charges differ from %s at line %d:\n got  %s\n want %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("scan charges differ from %s: got %d lines, want %d", path, len(g), len(w))
	}
}
