package hbase

import (
	"fmt"
	"sync"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/sim"
)

// key maps i into the zero-padded key order the balancer tests split on.
func bkey(i int) string { return fmt.Sprintf("k%04d", i) }

// heatRegion drives n gets at key through c so the hosting region's load
// score rises by n.
func heatRegion(t *testing.T, c *Client, tbl, key string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.Get(sim.NewCtx(), tbl, key, ReadOpts{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanDrainsAcrossMove: a scanner opened before a balancer move keeps its
// *Region pointers and drains against the old assignment — the row stream is
// identical to an undisturbed scan.
func TestScanDrainsAcrossMove(t *testing.T) {
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
	for i := 0; i < 10; i++ { // partially drain before the move
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
	hc.moveRegion(sim.NewCtx(), tbl, r, "slave-4")
	if r.Server() != "slave-4" {
		t.Fatalf("region server = %s after move, want slave-4", r.Server())
	}
	for {
		row, ok := sc.Next(sim.NewCtx())
		if !ok {
			break
		}
		got = append(got, row.Key)
	}
	if len(got) != len(want) {
		t.Fatalf("scan across move returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %s, want %s", i, got[i], want[i])
		}
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
	tbl.spec.SplitThreshold = 10
	hc.splitIfNeeded(tbl)
	if got := hc.RegionCount("t"); got < 2 {
		t.Fatalf("regions = %d after forced split, want >= 2", got)
	}
	if tbl.regionFor(bkey(99)) == stale {
		t.Fatal("table still routes to the pre-split region")
	}

	stale.put(bkey(99), []Cell{{Qualifier: "v", Value: []byte("new"), TS: hc.NextTS()}})
	if ok, _ := stale.checkAndPut(bkey(7), "n", nil, Cell{Qualifier: "n", Value: []byte("created")}, hc.NextTS); !ok {
		t.Fatal("create-if-absent through the stale region found a cell")
	}
	stale.deleteRow(bkey(3), hc.NextTS(), nil)
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
// against load splits of the same table and verifies every mutation landed.
// Run under -race this also pins the region/meta locking.
func TestMutateBatchAcrossConcurrentSplitLosesNothing(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t", SplitThreshold: 10_000, LoadSplitThreshold: 50})
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

// TestBalancerMovesCoHostedHotRegions: two hot regions sharing a server give
// the balancer a strictly improving move; it relocates one and the meta
// generation bumps.
func TestBalancerMovesCoHostedHotRegions(t *testing.T) {
	hc := newTestCluster(t)
	// 6 regions over 5 slaves: regions 0 and 5 both land on slave-0.
	var splits []string
	for i := 1; i < 6; i++ {
		splits = append(splits, bkey(i*100))
	}
	mustCreate(t, hc, TableSpec{Name: "t", SplitKeys: splits})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for i := 0; i < 600; i += 50 {
		if err := c.Put(ctx, "t", bkey(i), []Cell{put("v", "1", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := hc.lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	r0, r5 := tbl.regionFor(bkey(0)), tbl.regionFor(bkey(500))
	if r0.Server() != r5.Server() {
		t.Fatalf("fixture: regions on %s and %s, want co-hosted", r0.Server(), r5.Server())
	}

	bal, err := hc.NewBalancer("test")
	if err != nil {
		t.Fatal(err)
	}
	defer bal.Close()
	if !bal.IsLeader() {
		t.Fatal("sole balancer is not leader")
	}

	heatRegion(t, c, "t", bkey(0), 40)
	heatRegion(t, c, "t", bkey(500), 40)
	genBefore := tbl.gen.Load()
	if !bal.Tick(sim.NewCtx()) {
		t.Fatal("tick with two co-hosted hot regions performed no move")
	}
	if bal.Moves() != 1 {
		t.Fatalf("moves = %d, want 1", bal.Moves())
	}
	if r0.Server() == r5.Server() {
		t.Fatal("hot regions still co-hosted after balancing")
	}
	if tbl.gen.Load() == genBefore {
		t.Fatal("region move did not bump the table generation")
	}
}

// TestMetaCacheRefreshOnMove: after a move, a warm client's next op pays
// exactly one MetaLookup, then the cache is warm again.
func TestMetaCacheRefreshOnMove(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t", SplitKeys: []string{bkey(50)}})
	c := hc.NewWarmClient()
	if err := c.Put(sim.NewCtx(), "t", bkey(1), []Cell{put("v", "1", 0)}); err != nil {
		t.Fatal(err)
	}
	warm := sim.NewCtx()
	if _, err := c.Get(warm, "t", bkey(1), ReadOpts{}); err != nil {
		t.Fatal(err)
	}

	tbl, err := hc.lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	hc.moveRegion(sim.NewCtx(), tbl, tbl.regionFor(bkey(1)), "slave-4")

	stale := sim.NewCtx()
	if _, err := c.Get(stale, "t", bkey(1), ReadOpts{}); err != nil {
		t.Fatal(err)
	}
	if got, want := stale.Elapsed()-warm.Elapsed(), hc.Costs().MetaLookup; got != want {
		t.Fatalf("post-move get cost %v extra, want one MetaLookup (%v)", got, want)
	}
	again := sim.NewCtx()
	if _, err := c.Get(again, "t", bkey(1), ReadOpts{}); err != nil {
		t.Fatal(err)
	}
	if again.Elapsed() != warm.Elapsed() {
		t.Fatalf("re-warmed get = %v, want %v", again.Elapsed(), warm.Elapsed())
	}
}

// TestBalancerElectionFailover: the second balancer is a hot standby that
// takes the election when the leader closes; non-leader ticks are no-ops.
func TestBalancerElectionFailover(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	b1, err := hc.NewBalancer("b1")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := hc.NewBalancer("b2")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if !b1.IsLeader() || b2.IsLeader() {
		t.Fatalf("leadership = %v/%v, want b1 leading", b1.IsLeader(), b2.IsLeader())
	}
	if b2.Tick(sim.NewCtx()) {
		t.Fatal("standby tick performed a move")
	}
	b1.Close()
	if !b2.IsLeader() {
		t.Fatal("standby did not take over after leader close")
	}
}

// TestBalancerBackgroundLoopRaceClean drives the Start/Poke/Stop background
// loop against a concurrent read/write workload; -race is the assertion.
func TestBalancerBackgroundLoopRaceClean(t *testing.T) {
	cl := cluster.NewDefault(nil)
	cl.EnableQueueing()
	hc := NewHCluster(cl, nil, nil)
	if err := hc.CreateTable(TableSpec{Name: "t", SplitThreshold: 10_000, LoadSplitThreshold: 100,
		SplitKeys: []string{bkey(200), bkey(400)}}); err != nil {
		t.Fatal(err)
	}
	bal, err := hc.NewBalancer("bg")
	if err != nil {
		t.Fatal(err)
	}
	bal.Start()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := hc.NewWarmClient()
			for i := 0; i < 200; i++ {
				k := bkey((w*131 + i*17) % 600)
				if i%3 == 0 {
					if err := c.Put(sim.NewCtx(), "t", k, []Cell{put("v", "x", 0)}); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := c.Get(sim.NewCtx(), "t", k, ReadOpts{}); err != nil {
					t.Error(err)
					return
				}
				if i%25 == 0 {
					bal.Poke()
				}
			}
		}(w)
	}
	wg.Wait()
	bal.Stop()
	bal.Close()
	c := hc.NewWarmClient()
	if _, err := c.Get(sim.NewCtx(), "t", bkey(0), ReadOpts{}); err != nil {
		t.Fatal(err)
	}
}
