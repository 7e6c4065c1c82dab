//go:build !race

package hbase

import (
	"testing"

	"synergy/internal/sim"
)

// TestReusedScannerAllocs pins what a scan costs its caller when the caller
// owns the scanner (OpenScan into its storage), as an execution's scan and an index
// nested-loop join's probes do: with the filter and the column set the
// caller's too, opening and draining a scan allocates nothing — not the
// scanner, not its bounds, not the mask of a store file the set has read
// before, not a fanned-out scan's units, not the resume key of a chunk cut at
// its limit — whether it walks its regions whole or in units, forward or
// reversed. Through Client.Scan, which made the Scanner, its units and each
// resume key per scan, the four cost 2, 6, 4 and 2 allocations at the parent
// commit. (Not built under -race, which makes sync.Pool drop pooled chunk
// buffers at random.)
func TestReusedScannerAllocs(t *testing.T) {
	const rows = 6000 // past three guideposts: a whole-table scan fans out
	hc := NewHCluster(nil, nil)
	mustCreate(t, hc, TableSpec{Name: "t", SplitKeys: []string{scanKey(rows / 2)}})
	c := hc.NewWarmClient()
	for i := range rows {
		if err := c.Put(sim.NewCtx(), "t", scanKey(i), []Cell{put("v", "value", 0), put("w", "wide", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := hc.FlushTable("t"); err != nil {
		t.Fatal(err)
	}
	cols := NewColumnSet("v")
	odd := FilterFunc(func(r RowResult) bool { return r.Key[len(r.Key)-1]%2 == 1 })
	ctx := sim.NewCtx()
	var sc Scanner
	for _, tc := range []struct {
		name  string
		spec  ScanSpec
		want  int
		units bool
	}{
		{"prefix probe", ScanSpec{Start: scanKey(100), Stop: scanKey(140), Sequential: true, Columns: cols, Filter: odd}, 20, false},
		{"chunked at its batch", ScanSpec{Start: scanKey(100), Stop: scanKey(400), Sequential: true, Batch: 64, Columns: cols}, 300, false},
		{"fanned out", ScanSpec{Columns: cols, Filter: odd}, rows / 2, true},
		{"reversed", ScanSpec{Reversed: true, Columns: cols}, rows, true},
	} {
		scan := func() {
			if _, err := c.OpenScan(ctx, "t", tc.spec, &sc); err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, ok := sc.Next(ctx); ok; _, ok = sc.Next(ctx) {
				n++
			}
			if n != tc.want || (sc.units != nil) != tc.units {
				t.Fatalf("%s: %d rows, want %d; cut into units %v, want %v", tc.name, n, tc.want, sc.units != nil, tc.units)
			}
		}
		scan() // size the pooled chunk and merger, and the scanner's units
		if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
			t.Errorf("%s: a scan into a reused Scanner allocates %v, want 0", tc.name, allocs)
		}
	}
}
