package hbase

import (
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"synergy/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// lenFold is the Folder of the golden's folding specs: it counts a walk's
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
	clear(f)
	return out
}

// scanCase is one spec of the scan golden and the parity test.
type scanCase struct {
	name    string
	spec    ScanSpec
	closeAt int // Close after this many rows (0 = drain)
}

var oddV = FilterFunc(func(r RowResult) bool { return len(r.Get("v"))%2 == 0 })

// regionCases run on buildScanFixture(4000, 8): eight regions of 500 rows,
// too small for a guidepost, so a fanned-out scan's units are its regions.
var regionCases = []scanCase{
	{name: "full", spec: ScanSpec{Batch: 100}},
	{name: "full-default-batch", spec: ScanSpec{}},
	{name: "range", spec: ScanSpec{Start: scanKey(500), Stop: scanKey(3500), Batch: 100}},
	{name: "stop-in-region", spec: ScanSpec{Stop: scanKey(1777), Batch: 100}},
	{name: "prefix-across-split", spec: ScanSpec{Start: "k001", Stop: "k002", Batch: 100}},
	{name: "reversed", spec: ScanSpec{Start: scanKey(300), Stop: scanKey(3333), Reversed: true, Batch: 100}},
	{name: "limit-below-batch", spec: ScanSpec{Limit: 37, Batch: 100}},
	{name: "limit-at-least-batch", spec: ScanSpec{Stop: scanKey(1400), Limit: 2000, Batch: 300}},
	{name: "limit-trims", spec: ScanSpec{Limit: 1234, Batch: 300}},
	{name: "limit-trims-reversed", spec: ScanSpec{Limit: 777, Batch: 100, Reversed: true}},
	{name: "filter", spec: ScanSpec{Filter: oddV, Batch: 100}},
	{name: "columns", spec: ScanSpec{Columns: NewColumnSet("v"), Batch: 100}},
	{name: "snapshot", spec: ScanSpec{Read: ReadOpts{ReadTS: 1}, Batch: 100}},
	{name: "close-early", spec: ScanSpec{Batch: 100}, closeAt: 250},
	{name: "close-early-filter", spec: ScanSpec{Filter: oddV, Batch: 64}, closeAt: 777},
	{name: "fold", spec: ScanSpec{Fold: newLenFold, Batch: 100}},
	{name: "fold-range", spec: ScanSpec{Start: scanKey(500), Stop: scanKey(3500), Fold: newLenFold}},
	{name: "fold-stop-in-region", spec: ScanSpec{Stop: scanKey(1777), Fold: newLenFold}},
	{name: "fold-prefix", spec: ScanSpec{Start: "k001", Stop: "k002", Fold: newLenFold}},
	{name: "fold-filter-columns", spec: ScanSpec{Filter: oddV, Columns: NewColumnSet("v"), Fold: newLenFold}},
	{name: "fold-snapshot", spec: ScanSpec{Read: ReadOpts{ReadTS: 1}, Fold: newLenFold}},
	{name: "fold-empty", spec: ScanSpec{Start: scanKey(4001), Fold: newLenFold}},
}

// earlyStops are the regionCases that stop before their range ends — a Limit
// reached, a Close mid-stream. They were recorded without fan-out only while
// fanned-out scans ran on worker goroutines, so their fanned-out lines follow
// every other line of the golden.
var earlyStops = []string{"limit-trims", "limit-trims-reversed", "close-early", "close-early-filter"}

// guidepostCases run on buildScanFixture(20000, 1): one region whose largest
// store file holds 20,000 rows, so a full scan is cut into eight units.
var guidepostCases = []scanCase{
	{name: "gp-full", spec: ScanSpec{}},
	{name: "gp-range", spec: ScanSpec{Start: scanKey(3500), Stop: scanKey(9500), Batch: 700}},
	{name: "gp-reversed-limit", spec: ScanSpec{Reversed: true, Limit: 3333}},
	{name: "gp-filter-past-stop", spec: ScanSpec{Filter: oddV, Stop: scanKey(11111), Batch: 300}},
	{name: "gp-columns", spec: ScanSpec{Columns: NewColumnSet("v")}},
	{name: "gp-snapshot", spec: ScanSpec{Read: ReadOpts{ReadTS: 1}}},
	{name: "gp-fold", spec: ScanSpec{Fold: newLenFold}},
	{name: "gp-close-early", spec: ScanSpec{Batch: 500}, closeAt: 4500},
}

// scanRun is what one scan of a case returned and was charged.
type scanRun struct {
	rows      int
	hash      uint64
	firstNext sim.Micros // the request's elapsed after its first Next
	folded    map[string]int
	stats     sim.Stats
}

// runScan runs tc on c, fanned out or not, hashing the rows it returns and
// summing a folding spec's partial rows by key.
func runScan(t *testing.T, c *Client, tc scanCase, sequential bool) scanRun {
	t.Helper()
	spec := tc.spec
	spec.Sequential = sequential
	ctx := sim.NewCtx()
	sc, err := c.Scan(ctx, "t", spec)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	run := scanRun{folded: map[string]int{}}
	for {
		row, ok := sc.Next(ctx)
		if run.rows == 0 {
			run.firstNext = ctx.Elapsed()
		}
		if !ok {
			break
		}
		run.rows++
		h.Write([]byte(row.Key))
		for _, p := range row.Cells {
			h.Write([]byte(p.Qualifier))
			h.Write(p.Value)
		}
		if spec.Fold != nil {
			n, _ := strconv.Atoi(string(row.Get("n")))
			run.folded[row.Key] += n
		}
		if run.rows == tc.closeAt {
			sc.Close(ctx)
			break
		}
	}
	run.hash, run.stats = h.Sum64(), ctx.Snapshot()
	return run
}

// TestScanChargesGolden pins what a scan is charged, spec by spec: the rows it
// returns, every sim.Stats counter of the request, and the request's elapsed
// time after its first Next — the time-to-first-row a consumer sees. The
// first fixture has eight regions, the second one region cut into units;
// both have store files, memstore rows and tombstones. Each spec runs without
// fan-out (Sequential) and with whatever Scan decides. A folding spec's rows
// are its walks' partial rows. Run it at -cpu 1,2,4.
func TestScanChargesGolden(t *testing.T) {
	_, regions := buildScanFixture(t, 4000, 8)
	_, guided := buildScanFixture(t, 20000, 1)
	var b strings.Builder
	line := func(c *Client, tc scanCase, sequential bool) {
		run := runScan(t, c, tc, sequential)
		fmt.Fprintf(&b, "%s sequential=%v rows=%d hash=%016x first-next-us=%d", tc.name, sequential, run.rows, run.hash, run.firstNext)
		st := reflect.ValueOf(run.stats)
		for i := 0; i < st.NumField(); i++ {
			fmt.Fprintf(&b, " %s=%d", st.Type().Field(i).Name, st.Field(i).Int())
		}
		b.WriteByte('\n')
	}
	for _, tc := range regionCases {
		line(regions, tc, true)
		if !slices.Contains(earlyStops, tc.name) {
			line(regions, tc, false)
		}
	}
	for _, tc := range regionCases {
		if slices.Contains(earlyStops, tc.name) {
			line(regions, tc, false)
		}
	}
	for _, tc := range guidepostCases {
		line(guided, tc, true)
		line(guided, tc, false)
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

// TestGuidepostScanParity: cutting a region at its guideposts changes when
// the work is charged, not what the scan returns or walks. Fanned out, every
// case returns the rows the Sequential scan returns (a fold, the same groups
// once its units' partial rows are summed), and the full scan of the one big
// region finishes sooner. A scan that runs to its end or its Limit examines
// no more rows than the Sequential one, since its units partition that walk;
// one closed mid-stream has examined what the chunk it stopped in covers, and
// a unit ending at a guidepost moves where chunks end, so that case is
// pinned by the golden instead.
func TestGuidepostScanParity(t *testing.T) {
	_, regions := buildScanFixture(t, 4000, 8)
	_, guided := buildScanFixture(t, 20000, 1)
	for _, fx := range []struct {
		c     *Client
		cases []scanCase
	}{{regions, regionCases}, {guided, guidepostCases}} {
		for _, tc := range fx.cases {
			seq, par := runScan(t, fx.c, tc, true), runScan(t, fx.c, tc, false)
			if tc.spec.Fold != nil {
				if !maps.Equal(seq.folded, par.folded) {
					t.Errorf("%s: fanned out folds %v, sequential %v", tc.name, par.folded, seq.folded)
				}
			} else if seq.rows != par.rows || seq.hash != par.hash {
				t.Errorf("%s: fanned out %d rows hash %x, sequential %d rows hash %x", tc.name, par.rows, par.hash, seq.rows, seq.hash)
			}
			if tc.closeAt == 0 && par.stats.RowsScanned > seq.stats.RowsScanned {
				t.Errorf("%s: fanned out examined %d rows, sequential %d", tc.name, par.stats.RowsScanned, seq.stats.RowsScanned)
			}
			if tc.name == "gp-full" && par.stats.Elapsed >= seq.stats.Elapsed {
				t.Errorf("%s: fanned out took %v, sequential %v", tc.name, par.stats.Elapsed, seq.stats.Elapsed)
			}
		}
	}
}
