package hbase

import (
	"fmt"
	"sync"
	"testing"

	"synergy/internal/sim"
)

// bkey maps i into the zero-padded key order the split tests split on.
func bkey(i int) string { return fmt.Sprintf("k%04d", i) }

// forceSplit lowers the table's size threshold to rows and splits every
// region over it, failing unless the region layout grew.
func forceSplit(t *testing.T, hc *HCluster, tbl *table, rows int) {
	t.Helper()
	before := hc.RegionCount(tbl.spec.Name)
	tbl.spec.SplitThreshold = rows
	hc.splitIfNeeded(tbl)
	if got := hc.RegionCount(tbl.spec.Name); got <= before {
		t.Fatalf("regions = %d after forced split, want > %d", got, before)
	}
}

// TestScanDrainsAcrossSplit: a scanner opened before a split keeps its
// *Region pointers and drains against the parent's flushed store files — the
// row stream is identical to an undisturbed scan.
func TestScanDrainsAcrossSplit(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t", SplitKeys: []string{bkey(50)}})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for i := 0; i < 100; i++ {
		if err := c.Put(ctx, "t", bkey(i), []Cell{put("v", fmt.Sprint(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}

	want := make([]string, 0, 100)
	sc, err := c.Scan(sim.NewCtx(), "t", ScanSpec{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range sc.All(sim.NewCtx()) {
		want = append(want, row.Key)
	}

	sc, err = c.Scan(sim.NewCtx(), "t", ScanSpec{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < 10; i++ { // partially drain before the split
		row, ok := sc.Next(sim.NewCtx())
		if !ok {
			t.Fatal("scan exhausted early")
		}
		got = append(got, row.Key)
	}
	tbl, err := hc.lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	r := tbl.regionFor(bkey(0))
	forceSplit(t, hc, tbl, 10)
	if tbl.regionFor(bkey(0)) == r {
		t.Fatal("table still routes to the pre-split region")
	}
	for {
		row, ok := sc.Next(sim.NewCtx())
		if !ok {
			break
		}
		got = append(got, row.Key)
	}
	if len(got) != len(want) {
		t.Fatalf("scan across split returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestMetaCacheRefreshOnSplit: after a split bumps the table's generation, a
// warm client's next op pays exactly one MetaLookup, then the cache is warm
// again.
func TestMetaCacheRefreshOnSplit(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t", SplitKeys: []string{bkey(50)}})
	c := hc.NewWarmClient()
	for i := 0; i < 20; i++ {
		if err := c.Put(sim.NewCtx(), "t", bkey(i), []Cell{put("v", "1", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	warm := sim.NewCtx()
	if _, err := c.Get(warm, "t", bkey(1), ReadOpts{}); err != nil {
		t.Fatal(err)
	}

	tbl, err := hc.lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	genBefore := tbl.gen.Load()
	forceSplit(t, hc, tbl, 10)
	if tbl.gen.Load() == genBefore {
		t.Fatal("split did not bump the table generation")
	}

	stale := sim.NewCtx()
	if _, err := c.Get(stale, "t", bkey(1), ReadOpts{}); err != nil {
		t.Fatal(err)
	}
	if got, want := stale.Elapsed()-warm.Elapsed(), hc.Costs().MetaLookup; got != want {
		t.Fatalf("post-split get cost %v extra, want one MetaLookup (%v)", got, want)
	}
	again := sim.NewCtx()
	if _, err := c.Get(again, "t", bkey(1), ReadOpts{}); err != nil {
		t.Fatal(err)
	}
	if again.Elapsed() != warm.Elapsed() {
		t.Fatalf("re-warmed get = %v, want %v", again.Elapsed(), warm.Elapsed())
	}
}

// TestStaleRegionWritesForwardAcrossSplit: writes applied through a *Region
// held from before a split — a mutation batch grouped concurrently with the
// split — forward to the owning daughter instead of vanishing into the dead
// parent's memstore.
func TestStaleRegionWritesForwardAcrossSplit(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t", SplitThreshold: 10_000})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for i := 0; i < 100; i++ {
		if err := c.Put(ctx, "t", bkey(i), []Cell{put("v", "old", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := hc.lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	stale := tbl.regionFor(bkey(0)) // held across the split, as a batch group would
	forceSplit(t, hc, tbl, 10)
	if tbl.regionFor(bkey(99)) == stale {
		t.Fatal("table still routes to the pre-split region")
	}

	putStamped(stale, bkey(99), []Cell{{Qualifier: "v", Value: []byte("new"), TS: hc.NextTS()}})
	if ok, _ := stale.checkAndPut(bkey(7), "n", nil, Cell{Qualifier: "n", Value: []byte("created")}, hc.NextTS); !ok {
		t.Fatal("create-if-absent through the stale region found a cell")
	}
	stale.deleteRow(bkey(3), hc.NextTS(), nil, nil)
	if ok, _ := stale.checkAndPut(bkey(42), "v", []byte("old"), Cell{Qualifier: "v", Value: []byte("cas")}, hc.NextTS); !ok {
		t.Fatal("checkAndPut through the stale region did not see current data")
	}

	if got, _ := c.Get(ctx, "t", bkey(99), ReadOpts{}); string(got.Get("v")) != "new" {
		t.Fatalf("put through stale region lost: v = %q", got.Get("v"))
	}
	if got, _ := c.Get(ctx, "t", bkey(7), ReadOpts{}); string(got.Get("n")) != "created" {
		t.Fatal("create-if-absent through stale region lost")
	}
	if got, _ := c.Get(ctx, "t", bkey(3), ReadOpts{}); !got.Empty() {
		t.Fatalf("delete through stale region lost: %v", got)
	}
	if got, _ := c.Get(ctx, "t", bkey(42), ReadOpts{}); string(got.Get("v")) != "cas" {
		t.Fatalf("checkAndPut through stale region lost: v = %q", got.Get("v"))
	}
}

// TestMutateBatchAcrossConcurrentSplitLosesNothing races a large MutateBatch
// against size splits of the same table and verifies every mutation landed.
// Run under -race this also pins the region/meta locking and the write-once
// server assignment of a split's daughters.
func TestMutateBatchAcrossConcurrentSplitLosesNothing(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t", SplitThreshold: 50})
	c := hc.NewWarmClient()
	const n = 600
	muts := make([]Mutation, 0, n)
	for i := 0; i < n; i++ {
		muts = append(muts, PutMutation("t", bkey(i), []Cell{{Qualifier: "v", Value: []byte("x")}}, 0))
	}
	tbl, err := hc.lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			hc.splitIfNeeded(tbl)
		}
	}()
	if err := c.MutateBatch(sim.NewCtx(), muts); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	hc.splitIfNeeded(tbl)
	if got := hc.RegionCount("t"); got < n/50 {
		t.Fatalf("regions = %d after splitting %d rows at 50, want >= %d", got, n, n/50)
	}
	ctx := sim.NewCtx()
	for i := 0; i < n; i++ {
		got, err := c.Get(ctx, "t", bkey(i), ReadOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Get("v")) != "x" {
			t.Fatalf("row %s lost across concurrent split", bkey(i))
		}
	}
}
