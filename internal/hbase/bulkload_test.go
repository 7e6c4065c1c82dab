package hbase

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"synergy/internal/sim"
)

// loadedRegion bulk-loads rows into a fresh one-region table and returns the
// cluster and the region.
func loadedRegion(t *testing.T, spec TableSpec, rows []BulkRow) (*HCluster, *Region) {
	t.Helper()
	hc := newTestCluster(t)
	spec.Name = "t"
	mustCreate(t, hc, spec)
	if err := hc.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	tbl, err := hc.lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	regions := tbl.regionsInRange("", "")
	if len(regions) != 1 {
		t.Fatalf("%d regions, want 1", len(regions))
	}
	return hc, regions[0]
}

// TestBulkLoadCellOrderFastPath: BulkLoad appends a cell that sorts past the
// row's last qualifier and searches any other into place. Rows loaded with
// their cells in qualifier order and with them shuffled must leave
// byte-identical files, and the rows only the search can get right — a
// repeated key, tombstones, more versions than the table keeps — must read as
// they always have, whichever way their cells arrive.
func TestBulkLoadCellOrderFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	quals := []string{"a", "b", "c", "d", "e", "f", "g"}
	var ordered, shuffled []BulkRow
	for i := 0; i < 500; i++ {
		var cells []Cell
		for _, q := range quals {
			if rng.Intn(4) > 0 {
				cells = append(cells, put(q, fmt.Sprintf("%s-%d", q, i), 0))
			}
		}
		mixed := append([]Cell(nil), cells...)
		rng.Shuffle(len(mixed), func(a, b int) { mixed[a], mixed[b] = mixed[b], mixed[a] })
		ordered = append(ordered, BulkRow{Key: scanKey(i), Cells: cells})
		shuffled = append(shuffled, BulkRow{Key: scanKey(i), Cells: mixed})
	}
	_, a := loadedRegion(t, TableSpec{}, ordered)
	_, b := loadedRegion(t, TableSpec{}, shuffled)
	if len(a.files) != 1 || len(b.files) != 1 || !reflect.DeepEqual(a.files[0], b.files[0]) {
		t.Fatal("cells in qualifier order and shuffled cells built different files")
	}
	if !a.files[0].compacted() {
		t.Fatal("a load of single-version rows is not flagged uniform")
	}

	// The merging rows, cells in qualifier order where they have one:
	// a two-version row on a table that keeps one, a column tombstone over an
	// older put, a row tombstone, and a key given twice.
	special := []BulkRow{
		{Key: "k1", Cells: []Cell{put("a", "old", 5), put("a", "new", 9), put("b", "b1", 5)}},
		{Key: "k2", Cells: []Cell{put("a", "kept", 5), put("b", "hidden", 5), {Qualifier: "b", TS: 7, Type: TypeDeleteCol}}},
		{Key: "k3", Cells: []Cell{{TS: 6, Type: TypeDeleteRow}, put("a", "gone", 5), put("b", "after", 8)}},
		{Key: "k4", Cells: []Cell{put("a", "first", 5), put("c", "c1", 5)}},
		{Key: "k4", Cells: []Cell{put("a", "second", 6), put("b", "b2", 6)}},
	}
	hc, r := loadedRegion(t, TableSpec{MaxVersions: 1}, special)
	if r.files[0].compacted() {
		t.Fatal("a file holding tombstones is flagged uniform")
	}
	c := hc.NewWarmClient()
	for key, want := range map[string]string{
		"k1": "k1{a=new b=b1}",
		"k2": "k2{a=kept}",
		"k3": "k3{b=after}",
		"k4": "k4{a=second b=b2 c=c1}",
	} {
		got, err := c.Get(sim.NewCtx(), "t", key, ReadOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Errorf("row %s reads %s, want %s", key, got, want)
		}
	}
	if got, err := c.Get(sim.NewCtx(), "t", "k1", ReadOpts{ReadTS: 6}); err != nil || got.String() != "k1{b=b1}" {
		t.Errorf("k1 at snapshot 6 reads %s (%v): the older version of a should have been trimmed at load", got, err)
	}
}

// TestMajorCompactNoOp: a region that is one whole file of single-version
// rows has nothing to merge, trim or drop, so major compaction leaves it —
// the same file, the same counters. Anything else is rewritten as before: a
// memstore, a second file, a tombstone, the window a split left a daughter.
func TestMajorCompactNoOp(t *testing.T) {
	rows := make([]BulkRow, 200)
	for i := range rows {
		rows[i] = BulkRow{Key: scanKey(i), Cells: []Cell{put("a", fmt.Sprint(i), 0), put("b", "x", 0)}}
	}
	fresh := func(spec TableSpec) (*HCluster, *Region, *hfile) {
		hc, r := loadedRegion(t, spec, rows)
		return hc, r, r.files[0]
	}
	rewritten := func(what string, hc *HCluster, r *Region, loaded *hfile, wantRows int) {
		t.Helper()
		before := hc.StoreStats("t")
		if err := hc.MajorCompact("t"); err != nil {
			t.Fatal(err)
		}
		after := hc.StoreStats("t")
		if len(r.files) != 1 || r.files[0] == loaded || after.Compactions != before.Compactions+1 {
			t.Fatalf("%s: major compaction did not rewrite the region (files %d, compactions %d -> %d)", what, len(r.files), before.Compactions, after.Compactions)
		}
		if !r.files[0].compacted() || r.files[0].len() != wantRows || r.mem.len() != 0 {
			t.Fatalf("%s: rewritten into %d rows (compacted %v), want %d", what, r.files[0].len(), r.files[0].compacted(), wantRows)
		}
	}

	hc, r, loaded := fresh(TableSpec{})
	before := hc.StoreStats("t")
	if err := hc.MajorCompact("t"); err != nil {
		t.Fatal(err)
	}
	if len(r.files) != 1 || r.files[0] != loaded || hc.StoreStats("t") != before {
		t.Fatalf("a freshly loaded region was rewritten: stats %+v -> %+v", before, hc.StoreStats("t"))
	}

	hc, r, loaded = fresh(TableSpec{})
	putStamped(r, "zz", []Cell{put("a", "mem", 9)})
	rewritten("memstore", hc, r, loaded, len(rows)+1)

	hc, r, loaded = fresh(TableSpec{})
	putStamped(r, "zz", []Cell{put("a", "mem", 9)})
	r.flush()
	rewritten("second file", hc, r, loaded, len(rows)+1)

	hc, r, loaded = fresh(TableSpec{})
	r.deleteRow(scanKey(7), 9, nil, nil)
	rewritten("tombstone in the memstore", hc, r, loaded, len(rows)-1)

	// One whole file, but a loaded tombstone (and the put it hides) in it.
	hc, r = loadedRegion(t, TableSpec{}, append([]BulkRow{
		{Key: "a", Cells: []Cell{put("a", "hidden", 5), {Qualifier: "a", TS: 7, Type: TypeDeleteCol}}},
	}, rows...))
	rewritten("tombstone in the file", hc, r, r.files[0], len(rows))

	// A split's daughters share the parent's file through windows; each gets
	// a file of its own.
	hc, r, loaded = fresh(TableSpec{})
	left, right := r.split(scanKey(80), r.server)
	tbl, _ := hc.lookup("t")
	tbl.regions = []*Region{left, right}
	if err := hc.MajorCompact("t"); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Region{left, right} {
		if len(d.files) != 1 || !d.files[0].compacted() {
			t.Fatalf("daughter [%q,%q) was not rewritten into its own compact file", d.start, d.end)
		}
	}
	if left.files[0].len() != 80 || right.files[0].len() != 120 {
		t.Fatalf("daughters hold %d and %d rows, want 80 and 120", left.files[0].len(), right.files[0].len())
	}
	if err := hc.MajorCompact("t"); err != nil {
		t.Fatal(err)
	}
	if st := hc.StoreStats("t"); st.Compactions != 2 {
		t.Fatalf("compacting the rewritten daughters again ran %d compactions in all, want the first 2", st.Compactions)
	}
}
