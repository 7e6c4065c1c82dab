package hbase

import (
	"fmt"
	"sync"
	"testing"

	"synergy/internal/sim"
)

func newTestCluster(t *testing.T) *HCluster {
	t.Helper()
	return NewHCluster(nil, nil)
}

func mustCreate(t *testing.T, hc *HCluster, spec TableSpec) {
	t.Helper()
	if err := hc.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	if err := c.Put(ctx, "t", "row1", []Cell{put("a", "1", 0), put("b", "2", 0)}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, "t", "row1", ReadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Get("a")) != "1" || string(got.Get("b")) != "2" {
		t.Fatalf("Get = %v", got)
	}
}

func TestGetMissingRow(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	got, err := c.Get(sim.NewCtx(), "t", "nothing", ReadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Fatalf("expected empty result, got %v", got)
	}
}

func TestTableErrors(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	if err := hc.CreateTable(TableSpec{Name: "t"}); err == nil {
		t.Fatal("duplicate create should fail")
	}
	c := hc.NewWarmClient()
	if _, err := c.Get(sim.NewCtx(), "missing", "k", ReadOpts{}); err == nil {
		t.Fatal("get on missing table should fail")
	}
	if err := hc.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if hc.HasTable("t") {
		t.Fatal("table still present after drop")
	}
}

func TestDeleteRow(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	c.Put(ctx, "t", "r", []Cell{put("a", "1", 0)})
	c.Delete(ctx, "t", "r")
	got, _ := c.Get(ctx, "t", "r", ReadOpts{})
	if !got.Empty() {
		t.Fatalf("row visible after delete: %v", got)
	}
	// Re-insert after delete must be visible (timestamps advance).
	c.Put(ctx, "t", "r", []Cell{put("a", "2", 0)})
	got, _ = c.Get(ctx, "t", "r", ReadOpts{})
	if string(got.Get("a")) != "2" {
		t.Fatalf("reinserted row = %v", got)
	}
}

func TestDeleteColumns(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	c.Put(ctx, "t", "r", []Cell{put("a", "1", 0), put("b", "2", 0)})
	c.Delete(ctx, "t", "r", "a")
	got, _ := c.Get(ctx, "t", "r", ReadOpts{})
	if got.Get("a") != nil || string(got.Get("b")) != "2" {
		t.Fatalf("after column delete = %v", got)
	}
}

func TestCheckAndPut(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "locks"})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	free, held := []byte("0"), []byte("1")
	c.Put(ctx, "locks", "k", []Cell{put("s", "0", 0)})

	ok, err := c.CheckAndPut(ctx, "locks", "k", "s", free, Cell{Qualifier: "s", Value: held})
	if err != nil || !ok {
		t.Fatalf("acquire = %v, %v; want true", ok, err)
	}
	ok, _ = c.CheckAndPut(ctx, "locks", "k", "s", free, Cell{Qualifier: "s", Value: held})
	if ok {
		t.Fatal("second acquire should fail while held")
	}
	ok, _ = c.CheckAndPut(ctx, "locks", "k", "s", held, Cell{Qualifier: "s", Value: free})
	if !ok {
		t.Fatal("release should succeed")
	}
	ok, _ = c.CheckAndPut(ctx, "locks", "k", "s", free, Cell{Qualifier: "s", Value: held})
	if !ok {
		t.Fatal("re-acquire after release should succeed")
	}
}

func TestCheckAndPutAbsent(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	ok, _ := c.CheckAndPut(ctx, "t", "new", "q", nil, Cell{Qualifier: "q", Value: []byte("v")})
	if !ok {
		t.Fatal("check-against-absent on missing row should succeed")
	}
	ok, _ = c.CheckAndPut(ctx, "t", "new", "q", nil, Cell{Qualifier: "q", Value: []byte("w")})
	if ok {
		t.Fatal("check-against-absent on existing row should fail")
	}
}

func TestCheckAndPutMutualExclusion(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "locks"})
	setup := hc.NewWarmClient()
	setup.Put(sim.NewCtx(), "locks", "k", []Cell{put("s", "0", 0)})

	const workers = 16
	var acquired sync.Map
	var wins int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := hc.NewWarmClient()
			ctx := sim.NewCtx()
			ok, err := c.CheckAndPut(ctx, "locks", "k", "s", []byte("0"), Cell{Qualifier: "s", Value: []byte("1")})
			if err != nil {
				t.Error(err)
				return
			}
			if ok {
				acquired.Store(id, true)
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("%d workers acquired the lock, want exactly 1", wins)
	}
}

func TestScanOrderAndBounds(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for _, k := range []string{"d", "b", "a", "c", "e"} {
		c.Put(ctx, "t", k, []Cell{put("v", k, 0)})
	}
	sc, err := c.Scan(ctx, "t", ScanSpec{Start: "b", Stop: "e"})
	if err != nil {
		t.Fatal(err)
	}
	rows := sc.All(ctx)
	want := []string{"b", "c", "d"}
	if len(rows) != len(want) {
		t.Fatalf("scan rows = %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i].Key != w {
			t.Fatalf("row %d = %q, want %q", i, rows[i].Key, w)
		}
	}
}

func TestScanPrefix(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for _, k := range []string{"user/1", "user/2", "item/1", "zz"} {
		c.Put(ctx, "t", k, []Cell{put("v", "x", 0)})
	}
	sc, _ := c.Scan(ctx, "t", ScanSpec{Prefix: "user/"})
	rows := sc.All(ctx)
	if len(rows) != 2 {
		t.Fatalf("prefix scan rows = %d, want 2", len(rows))
	}
}

func TestScanLimit(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for i := 0; i < 50; i++ {
		c.Put(ctx, "t", fmt.Sprintf("k%03d", i), []Cell{put("v", "x", 0)})
	}
	sc, _ := c.Scan(ctx, "t", ScanSpec{Limit: 7})
	if rows := sc.All(ctx); len(rows) != 7 {
		t.Fatalf("limited scan rows = %d, want 7", len(rows))
	}
}

func TestScanFilterPushdown(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for i := 0; i < 20; i++ {
		v := "even"
		if i%2 == 1 {
			v = "odd"
		}
		c.Put(ctx, "t", fmt.Sprintf("k%02d", i), []Cell{put("v", v, 0)})
	}
	sc, _ := c.Scan(ctx, "t", ScanSpec{Filter: FilterFunc(func(r RowResult) bool { return string(r.Get("v")) == "odd" })})
	rows := sc.All(ctx)
	if len(rows) != 10 {
		t.Fatalf("filtered rows = %d, want 10", len(rows))
	}
	if s := ctx.Snapshot(); s.RowsScanned < 20 {
		t.Fatalf("rows examined = %d, want >= 20 (filter must not skip examination)", s.RowsScanned)
	}
}

func TestBulkLoadAndScan(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	rows := make([]BulkRow, 1000)
	for i := range rows {
		rows[i] = BulkRow{Key: fmt.Sprintf("k%06d", i), Cells: []Cell{put("v", fmt.Sprint(i), 0)}}
	}
	if err := hc.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	sc, _ := c.Scan(ctx, "t", ScanSpec{})
	got := sc.All(ctx)
	if len(got) != 1000 {
		t.Fatalf("scanned %d rows, want 1000", len(got))
	}
	if got[500].Key != "k000500" {
		t.Fatalf("row 500 key = %q", got[500].Key)
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	err := hc.BulkLoad("t", []BulkRow{{Key: "b"}, {Key: "a"}})
	if err == nil {
		t.Fatal("unsorted bulk load should fail")
	}
}

func TestRegionSplitDistributesData(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t", SplitThreshold: 100})
	rows := make([]BulkRow, 1000)
	for i := range rows {
		rows[i] = BulkRow{Key: fmt.Sprintf("k%06d", i), Cells: []Cell{put("v", "x", 0)}}
	}
	if err := hc.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	if n := hc.RegionCount("t"); n < 4 {
		t.Fatalf("regions after load = %d, want >= 4", n)
	}
	// Scan must still see every row exactly once, in order.
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	sc, _ := c.Scan(ctx, "t", ScanSpec{})
	got := sc.All(ctx)
	if len(got) != 1000 {
		t.Fatalf("post-split scan rows = %d, want 1000", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key >= got[i].Key {
			t.Fatalf("scan out of order at %d: %q >= %q", i, got[i-1].Key, got[i].Key)
		}
	}
	// Regions should land on more than one server.
	servers := map[string]bool{}
	tbl, _ := hc.lookup("t")
	for _, r := range tbl.regionsInRange("", "") {
		servers[r.server] = true
	}
	if len(servers) < 2 {
		t.Fatalf("all regions on one server; want distribution")
	}
}

func TestPreSplitTable(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t", SplitKeys: []string{"g", "p"}})
	if n := hc.RegionCount("t"); n != 3 {
		t.Fatalf("pre-split regions = %d, want 3", n)
	}
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for _, k := range []string{"a", "h", "q"} {
		c.Put(ctx, "t", k, []Cell{put("v", k, 0)})
	}
	sc, _ := c.Scan(ctx, "t", ScanSpec{})
	if rows := sc.All(ctx); len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}

func TestMajorCompactReclaimsTombstones(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for i := 0; i < 100; i++ {
		c.Put(ctx, "t", fmt.Sprintf("k%03d", i), []Cell{put("v", "x", 0)})
	}
	for i := 0; i < 50; i++ {
		c.Delete(ctx, "t", fmt.Sprintf("k%03d", i))
	}
	before := hc.TableBytes("t")
	if err := hc.MajorCompact("t"); err != nil {
		t.Fatal(err)
	}
	after := hc.TableBytes("t")
	if after >= before {
		t.Fatalf("compaction did not reclaim space: %d -> %d", before, after)
	}
	sc, _ := c.Scan(ctx, "t", ScanSpec{})
	if rows := sc.All(ctx); len(rows) != 50 {
		t.Fatalf("rows after compact = %d, want 50", len(rows))
	}
}

func TestSnapshotScan(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t", MaxVersions: 10})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	c.Put(ctx, "t", "r", []Cell{{Qualifier: "v", Value: []byte("old"), TS: 5}})
	c.Put(ctx, "t", "r", []Cell{{Qualifier: "v", Value: []byte("new"), TS: 50}})
	sc, _ := c.Scan(ctx, "t", ScanSpec{Read: ReadOpts{ReadTS: 10}})
	rows := sc.All(ctx)
	if len(rows) != 1 || string(rows[0].Get("v")) != "old" {
		t.Fatalf("snapshot scan = %v, want old", rows)
	}
}

func TestColdClientPaysConnectionSetup(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	costs := hc.Costs()

	cold := hc.NewClient()
	coldCtx := sim.NewCtx()
	cold.Get(coldCtx, "t", "k", ReadOpts{})

	warm := hc.NewWarmClient()
	warmCtx := sim.NewCtx()
	warm.Get(warmCtx, "t", "k", ReadOpts{})

	if diff := coldCtx.Elapsed() - warmCtx.Elapsed(); diff < costs.ConnectionSetup {
		t.Fatalf("cold-warm difference = %v, want >= %v", diff, costs.ConnectionSetup)
	}
	// Second op on the cold client is warm.
	coldCtx2 := sim.NewCtx()
	cold.Get(coldCtx2, "t", "k", ReadOpts{})
	if coldCtx2.Elapsed() >= coldCtx.Elapsed() {
		t.Fatal("second op should not repay connection setup")
	}
}

func TestPutChargesWAL(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	c.Put(sim.NewCtx(), "t", "k", []Cell{put("v", "x", 0)})
	var edits int64
	for _, s := range []string{"slave-0", "slave-1", "slave-2", "slave-3", "slave-4"} {
		edits += hc.WALEdits(s)
	}
	if edits != 1 {
		t.Fatalf("WAL edits = %d, want 1", edits)
	}
}

func TestConcurrentPutsAndScans(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := hc.NewWarmClient()
			ctx := sim.NewCtx()
			for i := 0; i < 200; i++ {
				c.Put(ctx, "t", fmt.Sprintf("w%d-k%04d", w, i), []Cell{put("v", "x", 0)})
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := hc.NewWarmClient()
			ctx := sim.NewCtx()
			for i := 0; i < 20; i++ {
				sc, err := c.Scan(ctx, "t", ScanSpec{})
				if err != nil {
					t.Error(err)
					return
				}
				rows := sc.All(ctx)
				for j := 1; j < len(rows); j++ {
					if rows[j-1].Key >= rows[j].Key {
						t.Errorf("scan out of order under concurrency")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	c := hc.NewWarmClient()
	sc, _ := c.Scan(sim.NewCtx(), "t", ScanSpec{})
	if rows := sc.All(sim.NewCtx()); len(rows) != 800 {
		t.Fatalf("final rows = %d, want 800", len(rows))
	}
}

func TestScanChargesGrowWithRows(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	rows := make([]BulkRow, 5000)
	for i := range rows {
		rows[i] = BulkRow{Key: fmt.Sprintf("k%06d", i), Cells: []Cell{put("v", "0123456789", 0)}}
	}
	hc.BulkLoad("t", rows)
	c := hc.NewWarmClient()

	small := sim.NewCtx()
	sc, _ := c.Scan(small, "t", ScanSpec{Limit: 100})
	sc.All(small)

	big := sim.NewCtx()
	sc2, _ := c.Scan(big, "t", ScanSpec{})
	sc2.All(big)

	if big.Elapsed() <= small.Elapsed()*5 {
		t.Fatalf("full scan (%v) should cost much more than 100-row scan (%v)", big.Elapsed(), small.Elapsed())
	}
}

func TestTableBytesAccounting(t *testing.T) {
	hc := newTestCluster(t)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	c.Put(ctx, "t", "rowkey-1", []Cell{put("qual", "some-value", 0)})
	got := hc.TableBytes("t")
	want := KVSize("rowkey-1", Cell{Qualifier: "qual", Value: []byte("some-value")})
	if got != want {
		t.Fatalf("TableBytes = %d, want %d", got, want)
	}
	if hc.TotalBytes() != got {
		t.Fatalf("TotalBytes = %d, want %d", hc.TotalBytes(), got)
	}
}
