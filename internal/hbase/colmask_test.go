package hbase

import (
	"fmt"
	"testing"

	"synergy/internal/sim"
)

// TestColumnMaskAfterFileReplacement holds one ColumnSet — as a prepared
// statement holds its sets for its whole life — across a flush, a flush of
// rows whose store file numbers its qualifiers differently, and a major
// compaction that replaces every file: after each, a scan through the set
// returns exactly a scan of every column cut to the set's columns, forward
// and reversed, fanned out and sequential, and a point read through the set
// does too. A mask resolved against a replaced file and applied to its
// successor would keep or drop the wrong cells. Then more column lists than a
// file caches read the same files, and the first set still reads right.
func TestColumnMaskAfterFileReplacement(t *testing.T) {
	hc := NewHCluster(nil, nil)
	if err := hc.CreateTable(TableSpec{Name: "t"}); err != nil {
		t.Fatal(err)
	}
	c := hc.NewWarmClient()
	cols := NewColumnSet("k", "b")
	write := func(from, to int, quals ...string) {
		for i := from; i < to; i++ {
			var cells []Cell
			for _, q := range quals {
				cells = append(cells, put(q, fmt.Sprintf("%s-%d", q, i), 0))
			}
			if err := c.Put(sim.NewCtx(), "t", scanKey(i), cells); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan := func(spec ScanSpec) []RowResult {
		sc, err := c.Scan(sim.NewCtx(), "t", spec)
		if err != nil {
			t.Fatal(err)
		}
		return sc.All(sim.NewCtx())
	}
	check := func(stage string, cols *ColumnSet) {
		t.Helper()
		for _, spec := range []ScanSpec{{}, {Reversed: true}, {Sequential: true, Batch: 7}, {Start: scanKey(150), Stop: scanKey(260)}} {
			want := restrictRows(scan(spec), cols)
			spec.Columns = cols
			if got := scan(spec); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, %+v: the set reads %d rows %v,\nwant %d rows %v", stage, spec, len(got), got, len(want), want)
			}
		}
		for _, i := range []int{0, 120, 250} {
			got, err := c.GetRow(sim.NewCtx(), "t", scanKey(i), ScanSpec{Columns: cols})
			if err != nil {
				t.Fatal(err)
			}
			var want Cells
			for _, r := range scan(ScanSpec{Start: scanKey(i), Stop: scanKey(i) + "\x00"}) {
				want = restrictTo(r.Cells, cols)
			}
			if fmt.Sprint(got.Cells) != fmt.Sprint(want) {
				t.Fatalf("%s: point read of row %d through the set = %v, want %v", stage, i, got.Cells, want)
			}
		}
	}

	write(0, 200, "a", "b", "k") // the file numbers a, b, k as 0, 1, 2
	if err := hc.FlushTable("t"); err != nil {
		t.Fatal(err)
	}
	check("one file", cols)
	write(100, 300, "b", "k", "z") // this one b, k, z: b is 0, not 1
	check("a file and the memstore", cols)
	if err := hc.FlushTable("t"); err != nil {
		t.Fatal(err)
	}
	check("two files", cols)
	if err := hc.MajorCompact("t"); err != nil {
		t.Fatal(err)
	}
	check("compacted", cols)
	if st := hc.StoreStats("t"); st.Flushes < 2 || st.Compactions < 1 || st.Files != 1 {
		t.Fatalf("store stats %+v: want two flushes and a compaction down to one file", st)
	}

	for i := range 2 * maxColumnMasks {
		check(fmt.Sprintf("column list %d", i), NewColumnSet("k", fmt.Sprintf("q%d", i)))
	}
	check("after the cache turned over", cols)
}
