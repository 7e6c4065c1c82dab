package hbase

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"synergy/internal/sim"
)

// buildScanFixture creates a pre-split table with a mix of store files and
// memstore data: bulk-loaded base rows, overwrites, deletes and late puts
// that never get flushed. Deterministic by construction.
func buildScanFixture(t testing.TB, rowsN, regions int) (*HCluster, *Client) {
	t.Helper()
	hc := NewHCluster(nil, nil)
	var splits []string
	for i := 1; i < regions; i++ {
		splits = append(splits, scanKey(i*rowsN/regions))
	}
	if err := hc.CreateTable(TableSpec{Name: "t", MaxVersions: 3, SplitKeys: splits}); err != nil {
		t.Fatal(err)
	}
	bulk := make([]BulkRow, rowsN)
	for i := range bulk {
		bulk[i] = BulkRow{Key: scanKey(i), Cells: []Cell{
			put("v", fmt.Sprintf("base-%d", i), 0),
			put("w", fmt.Sprintf("wide-%d", i), 0),
		}}
	}
	if err := hc.BulkLoad("t", bulk); err != nil {
		t.Fatal(err)
	}
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	// Overwrite every 7th row, delete every 13th, then flush so the scan
	// has to merge multiple store files.
	for i := 0; i < rowsN; i += 7 {
		c.Put(ctx, "t", scanKey(i), []Cell{put("v", fmt.Sprintf("over-%d", i), 0)})
	}
	for i := 0; i < rowsN; i += 13 {
		c.Delete(ctx, "t", scanKey(i))
	}
	hc.FlushTable("t")
	// Late writes stay in the memstore.
	for i := 0; i < rowsN; i += 11 {
		c.Put(ctx, "t", scanKey(i), []Cell{put("v", fmt.Sprintf("late-%d", i), 0)})
	}
	return hc, c
}

func scanKey(i int) string { return fmt.Sprintf("k%06d", i) }

func drainSpec(t testing.TB, c *Client, spec ScanSpec) ([]RowResult, sim.Stats) {
	t.Helper()
	ctx := sim.NewCtx()
	sc, err := c.Scan(ctx, "t", spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := sc.All(ctx)
	return rows, ctx.Snapshot()
}

func requireSameRows(t *testing.T, seq, par []RowResult) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: sequential=%d parallel=%d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Key != par[i].Key {
			t.Fatalf("row %d key: sequential=%q parallel=%q", i, seq[i].Key, par[i].Key)
		}
		if len(seq[i].Cells) != len(par[i].Cells) {
			t.Fatalf("row %q cell counts differ", seq[i].Key)
		}
		for j, p := range seq[i].Cells {
			pp := par[i].Cells[j]
			if p.Qualifier != pp.Qualifier || !bytes.Equal(p.Value, pp.Value) {
				t.Fatalf("row %q pair %d: %s=%q != %s=%q", seq[i].Key, j, p.Qualifier, p.Value, pp.Qualifier, pp.Value)
			}
		}
	}
}

// TestScanParallelSequentialParity is the tentpole's contract: both modes
// return byte-identical rows in identical key order, across region splits,
// with multi-file merges, tombstones and memstore overlays in play.
func TestScanParallelSequentialParity(t *testing.T) {
	_, c := buildScanFixture(t, 4000, 8)
	specs := map[string]ScanSpec{
		"full":       {},
		"range":      {Start: scanKey(500), Stop: scanKey(3500)},
		"stop-mid":   {Stop: scanKey(1777)},
		"filter":     {Filter: FilterFunc(func(r RowResult) bool { return len(r.Get("v"))%2 == 0 })},
		"snapshot":   {Read: ReadOpts{ReadTS: 1}}, // bulk-load stamp only
		"filter-w":   {Filter: FilterFunc(func(r RowResult) bool { return bytes.HasSuffix(r.Cells.Get("w"), []byte("7")) })},
		"smallbatch": {Batch: 17},
	}
	for name, spec := range specs {
		seqSpec, parSpec := spec, spec
		seqSpec.Sequential = true
		seq, seqStats := drainSpec(t, c, seqSpec)
		par, parStats := drainSpec(t, c, parSpec)
		if len(seq) == 0 {
			t.Fatalf("%s: fixture returned no rows", name)
		}
		requireSameRows(t, seq, par)
		for i := 1; i < len(par); i++ {
			if par[i-1].Key >= par[i].Key {
				t.Fatalf("%s: out of order at %d", name, i)
			}
		}
		// The same physical work happens in either mode; only the
		// simulated elapsed time may differ.
		if seqStats.RowsScanned != parStats.RowsScanned || seqStats.RowsReturned != parStats.RowsReturned ||
			seqStats.RPCs != parStats.RPCs || seqStats.BytesMoved != parStats.BytesMoved {
			t.Fatalf("%s: work counters diverge: seq=%+v par=%+v", name, seqStats, parStats)
		}
	}
}

// A multi-region scatter-gather scan must simulate faster than draining the
// regions one at a time, and the gap must come from overlap, not from
// skipped work.
func TestScanParallelSimulatedSpeedup(t *testing.T) {
	_, c := buildScanFixture(t, 4000, 8)
	_, seqStats := drainSpec(t, c, ScanSpec{Sequential: true})
	_, parStats := drainSpec(t, c, ScanSpec{})
	if parStats.Elapsed >= seqStats.Elapsed {
		t.Fatalf("parallel elapsed %v not below sequential %v", parStats.Elapsed, seqStats.Elapsed)
	}
	// 8 regions of equal size: expect the fork/join max to be well under
	// half the sequential sum even after merge charges.
	if parStats.Elapsed*2 >= seqStats.Elapsed {
		t.Fatalf("parallel elapsed %v not at least 2x below sequential %v", parStats.Elapsed, seqStats.Elapsed)
	}
}

func TestScanStopKeyAcrossBatches(t *testing.T) {
	hc := NewHCluster(nil, nil)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for i := 0; i < 20; i++ {
		c.Put(ctx, "t", scanKey(i), []Cell{put("v", "x", 0)})
	}
	// Batch of 2 forces the stop key to be hit mid-chunk several fetches
	// in; the scanner must stop exactly at k5 and never fetch beyond.
	scanCtx := sim.NewCtx()
	sc, err := c.Scan(scanCtx, "t", ScanSpec{Stop: scanKey(5), Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := sc.All(scanCtx)
	if len(rows) != 5 || rows[4].Key != scanKey(4) {
		t.Fatalf("rows = %d (last %q), want 5 ending at %q", len(rows), rows[len(rows)-1].Key, scanKey(4))
	}
	// Chunks [0,1] [2,3] [4,5→trimmed]: exactly 3 scanner RPCs, and the
	// truncation must terminate the scan rather than re-open the region.
	if s := scanCtx.Snapshot(); s.RPCs != 3 {
		t.Fatalf("scanner RPCs = %d, want 3", s.RPCs)
	}
}

func TestScanStopKeyNeverOpensLaterRegions(t *testing.T) {
	hc := NewHCluster(nil, nil)
	mustCreate(t, hc, TableSpec{Name: "t", SplitKeys: []string{scanKey(10), scanKey(20)}})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for i := 0; i < 30; i++ {
		c.Put(ctx, "t", scanKey(i), []Cell{put("v", "x", 0)})
	}
	// Stop inside region 0: regions 1 and 2 must not contribute RPCs.
	scanCtx := sim.NewCtx()
	sc, _ := c.Scan(scanCtx, "t", ScanSpec{Stop: scanKey(5), Sequential: true})
	if rows := sc.All(scanCtx); len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	if s := scanCtx.Snapshot(); s.RPCs != 1 {
		t.Fatalf("RPCs = %d, want 1 (single chunk from region 0)", s.RPCs)
	}
}

func TestScanLimitBatchInteraction(t *testing.T) {
	hc := NewHCluster(nil, nil)
	mustCreate(t, hc, TableSpec{Name: "t", SplitKeys: []string{scanKey(10), scanKey(20)}})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for i := 0; i < 30; i++ {
		c.Put(ctx, "t", scanKey(i), []Cell{put("v", fmt.Sprint(i), 0)})
	}
	cases := []struct {
		limit, batch, want int
	}{
		{7, 3, 7},    // limit not a batch multiple
		{7, 100, 7},  // batch larger than limit: one trimmed chunk
		{15, 4, 15},  // limit crosses a region boundary
		{100, 8, 30}, // limit beyond table size
		{30, 30, 30}, // exact
	}
	for _, tc := range cases {
		for _, sequential := range []bool{true, false} {
			scanCtx := sim.NewCtx()
			sc, err := c.Scan(scanCtx, "t", ScanSpec{Limit: tc.limit, Batch: tc.batch, Sequential: sequential})
			if err != nil {
				t.Fatal(err)
			}
			rows := sc.All(scanCtx)
			if len(rows) != tc.want {
				t.Fatalf("limit=%d batch=%d seq=%v: rows = %d, want %d", tc.limit, tc.batch, sequential, len(rows), tc.want)
			}
			for i := range rows {
				if rows[i].Key != scanKey(i) {
					t.Fatalf("limit=%d batch=%d seq=%v: row %d = %q", tc.limit, tc.batch, sequential, i, rows[i].Key)
				}
			}
			// Fanned out or not, a Limit scan trims its last chunk
			// request, so rows shipped never exceed the limit.
			if s := scanCtx.Snapshot(); s.RowsReturned > int64(tc.limit) {
				t.Fatalf("limit=%d batch=%d seq=%v: shipped %d rows", tc.limit, tc.batch, sequential, s.RowsReturned)
			}
		}
	}
}

// TestScanLimitParallelSequentialParity is the limit-bounded fan-out
// contract: once Limit is at least a full chunk, a fanned-out scan returns
// exactly the rows the sequential one returns, and ships no more.
func TestScanLimitParallelSequentialParity(t *testing.T) {
	_, c := buildScanFixture(t, 4000, 8)
	specs := map[string]ScanSpec{
		"one-chunk":     {Limit: 64, Batch: 64},
		"multi-chunk":   {Limit: 900, Batch: 100},
		"cross-region":  {Limit: 2000, Batch: 250},
		"range":         {Start: scanKey(500), Stop: scanKey(3500), Limit: 700, Batch: 70},
		"filtered":      {Limit: 300, Batch: 50, Filter: FilterFunc(func(r RowResult) bool { return len(r.Get("v"))%2 == 0 })},
		"beyond-table":  {Limit: 100_000, Batch: 500},
		"exactly-table": {Limit: 4000, Batch: 400},
	}
	for name, spec := range specs {
		seqSpec, parSpec := spec, spec
		seqSpec.Sequential = true
		seq, _ := drainSpec(t, c, seqSpec)
		par, parStats := drainSpec(t, c, parSpec)
		if len(seq) == 0 {
			t.Fatalf("%s: fixture returned no rows", name)
		}
		requireSameRows(t, seq, par)
		if spec.Limit > 0 && parStats.RowsReturned > int64(spec.Limit) {
			t.Fatalf("%s: shipped %d rows, limit %d", name, parStats.RowsReturned, spec.Limit)
		}
	}
}

// A limit scan below one chunk does not fan out even without spec.Sequential:
// walking in order reaches it sooner. One at a full chunk fans out.
func TestScanSmallLimitStaysSequential(t *testing.T) {
	_, c := buildScanFixture(t, 4000, 8)
	ctx := sim.NewCtx()
	wide, err := c.Scan(ctx, "t", ScanSpec{Limit: 100, Batch: 100})
	if err != nil {
		t.Fatal(err)
	}
	if wide.units == nil {
		t.Fatal("Limit = chunk size over 8 regions must fan out")
	}
	wide.Close(ctx)
	sc, err := c.Scan(ctx, "t", ScanSpec{Limit: 5, Batch: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sc.units != nil {
		t.Fatal("Limit < chunk size must not fan out")
	}
	if rows := sc.All(ctx); len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
}

func TestScanCloseReleasesWorkers(t *testing.T) {
	_, c := buildScanFixture(t, 4000, 8)
	before := runtime.NumGoroutine()
	ctx := sim.NewCtx()
	sc, err := c.Scan(ctx, "t", ScanSpec{Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.Next(ctx); !ok {
		t.Fatal("expected at least one row")
	}
	sc.Close(ctx)
	if _, ok := sc.Next(ctx); ok {
		t.Fatal("Next after Close must report exhaustion")
	}
	// Abandoned fetch work is still charged.
	if ctx.Elapsed() <= 0 {
		t.Fatal("closed scan charged nothing")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("a closed scan left goroutines behind: %d, started with %d", n, before)
	}
}

// Prefix scans auto-select mode and must stay correct either way.
func TestScanPrefixAcrossRegions(t *testing.T) {
	hc := NewHCluster(nil, nil)
	mustCreate(t, hc, TableSpec{Name: "t", SplitKeys: []string{"user/3", "user/6"}})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	for i := 0; i < 9; i++ {
		c.Put(ctx, "t", fmt.Sprintf("user/%d", i), []Cell{put("v", fmt.Sprint(i), 0)})
	}
	c.Put(ctx, "t", "zother", []Cell{put("v", "no", 0)})
	for _, sequential := range []bool{true, false} {
		sc, _ := c.Scan(sim.NewCtx(), "t", ScanSpec{Start: "user/", Stop: "user0", Sequential: sequential})
		rows := sc.All(sim.NewCtx())
		if len(rows) != 9 {
			t.Fatalf("sequential=%v: prefix rows = %d, want 9", sequential, len(rows))
		}
	}
}

// TestRegionGuideposts pins how a fanned-out scan sizes and cuts a region's
// share of its range: the rows of the region's largest store file inside both
// the range and the region, one piece more than the file's guideposts (every
// guidepostRows-th key but the last) strictly inside them, and none in a
// region whose largest file holds under two guideposts' worth of rows. A
// share's units cut it at evenly spaced keys of that file. A newer, smaller
// file does not move them, and a split's daughters count from their own
// windows of the parent's files.
func TestRegionGuideposts(t *testing.T) {
	spec := &TableSpec{Name: "t", MaxVersions: 1, SplitThreshold: 1 << 30}
	region := func(rows int) *Region {
		r := newRegion(spec, "", "")
		for i := range rows {
			putStamped(r, scanKey(i), []Cell{put("v", "x", 1)})
		}
		r.majorCompact() // one store file
		return r
	}
	cuts := func(sh share, units int) []string {
		sh.units = units
		var out []string
		for j := 1; j < units; j++ {
			out = append(out, sh.cut(j))
		}
		return out
	}
	at := func(rows ...int) []string {
		var out []string
		for _, i := range rows {
			out = append(out, scanKey(i))
		}
		return out
	}
	if sh := region(2*guidepostRows-1).share("", ""); sh.pieces() != 1 {
		t.Fatalf("a %d-row file is cut into %d pieces", 2*guidepostRows-1, sh.pieces())
	}
	if sh := newRegion(spec, "", "").share("", ""); sh.pieces() != 1 || sh.b != sh.a {
		t.Fatalf("a region with no file has share %+v in %d pieces", sh, sh.pieces())
	}
	r := region(20000)
	// A newer, smaller file does not move them: the largest file decides.
	for i := 0; i < 300; i += 3 {
		putStamped(r, scanKey(i), []Cell{put("v", "y", 2)})
	}
	r.flush()
	for _, tc := range []struct {
		lo, hi       string
		rows, pieces int
		units        int
		want         []string
	}{
		{"", "", 20000, 10, 10, at(2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000, 18000)},
		{"", "", 20000, 10, 8, at(2500, 5000, 7500, 10000, 12500, 15000, 17500)},
		{scanKey(4000), scanKey(9000), 5000, 3, 3, at(5666, 7333)},
		{scanKey(3999), scanKey(8000), 4001, 3, 3, at(5332, 6666)},
		{scanKey(4001), scanKey(5999), 1998, 1, 1, nil},
		{scanKey(5100), scanKey(6100), 1000, 2, 2, at(5600)},
		{scanKey(18000), "", 2000, 1, 1, nil},
		{"z", "", 0, 1, 1, nil},
	} {
		sh := r.share(tc.lo, tc.hi)
		if sh.b-sh.a != tc.rows || sh.pieces() != tc.pieces {
			t.Errorf("share(%q, %q) holds %d rows in %d pieces; want %d in %d", tc.lo, tc.hi, sh.b-sh.a, sh.pieces(), tc.rows, tc.pieces)
		}
		if got := cuts(sh, tc.units); !slices.Equal(got, tc.want) {
			t.Errorf("share(%q, %q) in %d units cuts at %v, want %v", tc.lo, tc.hi, tc.units, got, tc.want)
		}
	}
	left, right := r.split(scanKey(11000), r.server)
	for _, tc := range []struct {
		d    *Region
		want []string
	}{
		{left, at(2200, 4400, 6600, 8800)},
		{right, at(13250, 15500, 17750)},
	} {
		sh := tc.d.share("", "")
		if got := cuts(sh, sh.pieces()); !slices.Equal(got, tc.want) {
			t.Errorf("daughter [%q, %q): cuts %v, want %v", tc.d.start, tc.d.end, got, tc.want)
		}
	}
}

// TestScanUnitsFillWaves pins how many units a fanned-out scan is cut into
// and how deep each is: the pieces the guideposts cut its regions' shares into
// (at least one per region) up to Costs.ScanParallelism, and whole waves of
// that width above it, with rows spread evenly over a region's units and no
// unit crossing a region. A reversed scan cuts at the same keys, walked the
// other way. Every case returns the rows the Sequential scan returns.
func TestScanUnitsFillWaves(t *testing.T) {
	load := func(rows int, splits ...int) *Client {
		hc := NewHCluster(nil, nil)
		var keys []string
		for _, s := range splits {
			keys = append(keys, scanKey(s))
		}
		if err := hc.CreateTable(TableSpec{Name: "t", MaxVersions: 1, SplitKeys: keys}); err != nil {
			t.Fatal(err)
		}
		bulk := make([]BulkRow, rows)
		for i := range bulk {
			bulk[i] = BulkRow{Key: scanKey(i), Cells: []Cell{put("v", "x", 0)}}
		}
		if err := hc.BulkLoad("t", bulk); err != nil {
			t.Fatal(err)
		}
		return hc.NewWarmClient()
	}
	// holds reports whether key lies in u's walk: from (open "") down to end
	// going backward, from up to end (open "") going forward.
	holds := func(u *scanUnit, key string, rev bool) bool {
		if rev {
			return key >= u.end && (u.from == "" || key < u.from)
		}
		return key >= u.from && (u.end == "" || key < u.end)
	}
	for _, tc := range []struct {
		name   string
		rows   int
		splits []int
		spec   ScanSpec
		depths []int // rows per unit, in scan order; nil: the scan is not cut
	}{
		{"20000", 20000, nil, ScanSpec{}, []int{2500, 2500, 2500, 2500, 2500, 2500, 2500, 2500}},
		{"13000", 13000, nil, ScanSpec{}, []int{2166, 2167, 2167, 2166, 2167, 2167}},
		{"5000", 5000, nil, ScanSpec{}, []int{2500, 2500}},
		{"3000", 3000, nil, ScanSpec{}, nil},
		{"sub-range", 20000, nil, ScanSpec{Start: scanKey(3000), Stop: scanKey(17000)}, []int{1750, 1750, 1750, 1750, 1750, 1750, 1750, 1750}},
		{"sub-range-reversed", 20000, nil, ScanSpec{Start: scanKey(3100), Stop: scanKey(17000), Reversed: true}, []int{1738, 1737, 1738, 1737, 1738, 1737, 1738, 1737}},
		{"sub-range-one-guidepost", 20000, nil, ScanSpec{Start: scanKey(5100), Stop: scanKey(6100)}, []int{500, 500}},
		{"two-regions", 40000, []int{15000}, ScanSpec{}, []int{2500, 2500, 2500, 2500, 2500, 2500, 2500, 2500, 2500, 2500, 2500, 2500, 2500, 2500, 2500, 2500}},
		{"two-regions-one-wave", 30000, []int{12000}, ScanSpec{}, []int{4000, 4000, 4000, 3600, 3600, 3600, 3600, 3600}},
	} {
		c := load(tc.rows, tc.splits...)
		seqSpec := tc.spec
		seqSpec.Sequential = true
		seq, _ := drainSpec(t, c, seqSpec)
		par, _ := drainSpec(t, c, tc.spec)
		requireSameRows(t, seq, par)

		sc, err := c.Scan(sim.NewCtx(), "t", tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.units) != len(tc.depths) {
			t.Errorf("%s: %d units, want %d", tc.name, len(sc.units), len(tc.depths))
			continue
		}
		if n, width := len(sc.units), c.hc.costs.ScanParallelism; n > width && n%width != 0 {
			t.Errorf("%s: %d units is not a whole number of %d-wide waves", tc.name, n, width)
		}
		depths := make([]int, len(sc.units))
		rev := tc.spec.Reversed
		if rev {
			fwd := tc.spec
			fwd.Reversed = false
			fc, err := c.Scan(sim.NewCtx(), "t", fwd)
			if err != nil {
				t.Fatal(err)
			}
			ends := func(units []scanUnit) []string {
				var out []string
				for i := range units[:len(units)-1] {
					out = append(out, units[i].end)
				}
				return out
			}
			back, ahead := ends(sc.units), ends(fc.units)
			slices.Reverse(back)
			if !slices.Equal(back, ahead) {
				t.Errorf("%s: cut at %v, the forward scan at %v", tc.name, back, ahead)
			}
			fc.Close(sim.NewCtx())
		}
		for i := range sc.units {
			u := &sc.units[i]
			for _, row := range seq {
				if holds(u, row.Key, rev) {
					depths[i]++
					if !u.r.contains(row.Key) {
						t.Errorf("%s: unit %d holds %q outside its region", tc.name, i, row.Key)
					}
				}
			}
		}
		if !slices.Equal(depths, tc.depths) {
			t.Errorf("%s: unit depths %v, want %v", tc.name, depths, tc.depths)
		}
		sum := 0
		for _, d := range depths {
			sum += d
		}
		if tc.depths != nil && sum != len(seq) {
			t.Errorf("%s: units hold %d rows, the scan returns %d", tc.name, sum, len(seq))
		}
		sc.Close(sim.NewCtx())
	}
}
