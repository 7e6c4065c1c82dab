package hbase

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"synergy/internal/sim"
)

// overlayFixture builds a 3-region table seeded with rows 0,2,4,...,18 and
// a transaction-scoped mutator over it.
func overlayFixture(t *testing.T) (*HCluster, *Client, *BufferedMutator) {
	t.Helper()
	hc, c := splitCluster(t, 3, 20)
	ctx := sim.NewCtx()
	for i := 0; i < 20; i += 2 {
		if err := c.Put(ctx, "t", scanKey(i), []Cell{put("v", fmt.Sprintf("stored-%d", i), 0), put("w", "base", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	return hc, c, c.NewBufferedMutator(0)
}

func drainStream(ctx *sim.Ctx, s RowStream) []RowResult {
	var out []RowResult
	for {
		r, ok := s.Next(ctx)
		if !ok {
			return out
		}
		// Streamed rows are valid only until the next Next call; retaining
		// them across the drain requires a deep copy (the Cells lifetime
		// rule).
		out = append(out, r.Clone())
	}
}

// The overlay contract: a get/scan through the ReadView before the flush
// sees exactly what a plain get/scan sees after the flush.
func TestOverlayReadsMatchPostFlushState(t *testing.T) {
	_, c, m := overlayFixture(t)
	ctx := sim.NewCtx()
	// A mixed pending buffer: new rows, overwrites, a row delete over a
	// stored row, a column delete, a delete-then-reput.
	steps := func(m *BufferedMutator) {
		mustDo := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		mustDo(m.Put(ctx, "t", scanKey(1), []Cell{put("v", "new-1", 0)}))
		mustDo(m.Put(ctx, "t", scanKey(2), []Cell{put("v", "overwritten-2", 0)}))
		mustDo(m.Delete(ctx, "t", scanKey(4), 0))
		mustDo(m.Delete(ctx, "t", scanKey(6), 0, "w"))
		mustDo(m.Delete(ctx, "t", scanKey(8), 0))
		mustDo(m.Put(ctx, "t", scanKey(8), []Cell{put("v", "reborn-8", 0)}))
		mustDo(m.Put(ctx, "t", scanKey(19), []Cell{put("v", "new-19", 0)}))
	}
	steps(m)

	view := m.View()
	var before []RowResult
	sc, err := view.OpenScan(ctx, "t", ScanSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before = drainStream(ctx, sc)

	// Point gets through the view, before flush.
	for _, k := range []int{1, 2, 4, 6, 8, 10, 19} {
		got, err := view.GetInto(ctx, "t", scanKey(k), ReadOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range before {
			if r.Key == scanKey(k) {
				found = true
				if r.String() != got.String() {
					t.Fatalf("get/scan mismatch for %s: %s vs %s", scanKey(k), got, r)
				}
			}
		}
		if !found && !got.Empty() {
			t.Fatalf("get %s returned %s but scan omitted it", scanKey(k), got)
		}
	}

	if err := m.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sc2, err := c.Scan(ctx, "t", ScanSpec{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	after := sc2.All(ctx)
	requireSameRows(t, after, before)
}

func TestOverlayGetSeesPendingWrites(t *testing.T) {
	_, c, m := overlayFixture(t)
	ctx := sim.NewCtx()
	view := m.View()

	if err := m.Put(ctx, "t", scanKey(1), []Cell{put("v", "pending", 0)}); err != nil {
		t.Fatal(err)
	}
	got, err := view.GetInto(ctx, "t", scanKey(1), ReadOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Get("v")) != "pending" {
		t.Fatalf("overlay get = %s, want pending value", got)
	}
	// The store must not have it yet, and a plain client read must not see it.
	plain, err := c.Get(ctx, "t", scanKey(1), ReadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Empty() {
		t.Fatalf("buffered write leaked to the store: %s", plain)
	}

	// Pending put over a stored row merges with the untouched column.
	if err := m.Put(ctx, "t", scanKey(2), []Cell{put("v", "pending-2", 0)}); err != nil {
		t.Fatal(err)
	}
	got, err = view.GetInto(ctx, "t", scanKey(2), ReadOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Get("v")) != "pending-2" || string(got.Get("w")) != "base" {
		t.Fatalf("merged get = %s, want pending v + stored w", got)
	}
}

// A pending row tombstone masks the store row entirely — and is served from
// the buffer with no store RPC.
func TestOverlayRowTombstoneSkipsStoreRPC(t *testing.T) {
	_, _, m := overlayFixture(t)
	ctx := sim.NewCtx()
	view := m.View()
	if err := m.Delete(ctx, "t", scanKey(2), 0); err != nil {
		t.Fatal(err)
	}
	probe := sim.NewCtx()
	got, err := view.GetInto(probe, "t", scanKey(2), ReadOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Fatalf("deleted row visible through overlay: %s", got)
	}
	if rpcs := probe.Snapshot().RPCs; rpcs != 0 {
		t.Fatalf("tombstoned read paid %d store RPCs, want 0", rpcs)
	}
}

// Limit scans through the overlay return exactly Limit merged rows even
// when pending deletes hide store rows at the front of the range.
func TestOverlayLimitScanSurvivesPendingDeletes(t *testing.T) {
	_, _, m := overlayFixture(t)
	ctx := sim.NewCtx()
	for _, k := range []int{0, 2, 4} {
		if err := m.Delete(ctx, "t", scanKey(k), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Put(ctx, "t", scanKey(5), []Cell{put("v", "new-5", 0)}); err != nil {
		t.Fatal(err)
	}
	sc, err := m.View().OpenScan(ctx, "t", ScanSpec{Limit: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(ctx, sc)
	want := []string{scanKey(5), scanKey(6), scanKey(8)}
	if len(got) != len(want) {
		t.Fatalf("limit scan returned %d rows, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Key != want[i] {
			t.Fatalf("row %d = %s, want %s", i, r.Key, want[i])
		}
	}
}

// A reversed scan through the overlay is the forward scan backwards: pending
// inserts, overwrites, a column delete, row deletes and a delete-then-reput
// interleave with store rows on both sides of region boundaries, over the
// whole table, a window and a prefix, with and without a filter, and a limit
// that pending deletes at the top of the range must not starve.
func TestOverlayReversedScan(t *testing.T) {
	_, _, m := overlayFixture(t)
	ctx := sim.NewCtx()
	mustDo := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustDo(m.Put(ctx, "t", scanKey(1), []Cell{put("v", "new-1", 0)}))
	mustDo(m.Put(ctx, "t", scanKey(2), []Cell{put("v", "overwritten-2", 0)}))
	mustDo(m.Delete(ctx, "t", scanKey(4), 0))
	mustDo(m.Delete(ctx, "t", scanKey(6), 0, "w"))
	mustDo(m.Delete(ctx, "t", scanKey(8), 0))
	mustDo(m.Put(ctx, "t", scanKey(8), []Cell{put("v", "reborn-8", 0)}))
	mustDo(m.Put(ctx, "t", scanKey(13), []Cell{put("v", "new-13", 0)}))
	mustDo(m.Delete(ctx, "t", scanKey(16), 0))
	mustDo(m.Delete(ctx, "t", scanKey(18), 0))
	mustDo(m.Put(ctx, "t", scanKey(19), []Cell{put("v", "new-19", 0)}))

	scan := func(spec ScanSpec) []RowResult {
		t.Helper()
		sc, err := m.View().OpenScan(ctx, "t", spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return drainStream(ctx, sc)
	}
	stored := FilterFunc(func(r RowResult) bool { return len(r.Get("w")) > 0 })
	for _, spec := range []ScanSpec{
		{},
		{Start: scanKey(2), Stop: scanKey(14)},
		{Start: "k00001", Stop: "k00002"},
		{Filter: stored},
	} {
		forward := scan(spec)
		if len(forward) == 0 {
			t.Fatalf("spec %+v: forward overlay scan is empty", spec)
		}
		spec.Reversed = true
		backward := scan(spec)
		slices.Reverse(backward)
		requireSameRows(t, forward, backward)

		// Three rows from either end, cells included (the limit-th row is
		// returned by the call that closes the store scan). From the top,
		// rows 16 and 18 are pending deletes the store still holds.
		spec.Limit = 3
		top := scan(spec)
		slices.Reverse(top)
		requireSameRows(t, forward[max(0, len(forward)-3):], top)
		spec.Reversed = false
		requireSameRows(t, forward[:min(3, len(forward))], scan(spec))
	}
	if top := scan(ScanSpec{Reversed: true, Limit: 2}); len(top) != 2 || top[0].Key != scanKey(19) || top[1].Key != scanKey(14) {
		t.Fatalf("top two rows = %v, want %s then %s", top, scanKey(19), scanKey(14))
	}
}

// Discard drops the pending buffer: the view reverts to plain store reads
// and a later flush ships nothing.
func TestOverlayDiscard(t *testing.T) {
	_, c, m := overlayFixture(t)
	ctx := sim.NewCtx()
	if err := m.Put(ctx, "t", scanKey(1), []Cell{put("v", "doomed", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(ctx, "t", scanKey(2), 0); err != nil {
		t.Fatal(err)
	}
	m.Discard()
	if m.Pending() != 0 {
		t.Fatalf("pending after discard = %d", m.Pending())
	}
	got, err := m.View().GetInto(ctx, "t", scanKey(1), ReadOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Fatalf("discarded write still visible through view: %s", got)
	}
	got, err = m.View().GetInto(ctx, "t", scanKey(2), ReadOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Empty() {
		t.Fatal("discarded delete still hides the stored row")
	}
	if err := m.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	stored, err := c.Get(ctx, "t", scanKey(1), ReadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !stored.Empty() {
		t.Fatalf("discarded write reached the store: %s", stored)
	}
}

// Filtered scans apply the filter to merged rows: a pending overwrite can
// move a row in or out of the filtered set.
func TestOverlayScanFilterSeesMergedRows(t *testing.T) {
	_, _, m := overlayFixture(t)
	ctx := sim.NewCtx()
	if err := m.Put(ctx, "t", scanKey(2), []Cell{put("v", "keep-me", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(ctx, "t", scanKey(3), []Cell{put("v", "keep-me", 0)}); err != nil {
		t.Fatal(err)
	}
	sc, err := m.View().OpenScan(ctx, "t", ScanSpec{Filter: FilterFunc(func(r RowResult) bool {
		return string(r.Get("v")) == "keep-me"
	})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(ctx, sc)
	if len(got) != 2 || got[0].Key != scanKey(2) || got[1].Key != scanKey(3) {
		t.Fatalf("filtered merge scan = %v, want rows 2 and 3", got)
	}
}

// TestOverlayFilterPushdownParity is the predicate-split contract: with
// pending writes in range, a filtered overlay scan whose store-safe split is
// pushed down must return the rows the plain store returns after the flush —
// including rows whose pending cells flip the filter verdict in either
// direction, with and without a limit.
func TestOverlayFilterPushdownParity(t *testing.T) {
	_, c, m := overlayFixture(t)
	ctx := sim.NewCtx()
	mustDo := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Stored rows 0..18 (even) carry v=stored-N. Pending: row 2 flips to a
	// passing value, row 4 flips a passing stored value away, row 5 is a
	// pending-only insert that passes, row 6 is deleted, row 8's filter
	// column is untouched but another column changes.
	filter := FilterFunc(func(r RowResult) bool { return string(r.Get("v")) == "keep" })
	mustDo(c.Put(ctx, "t", scanKey(4), []Cell{put("v", "keep", 0)}))
	mustDo(c.Put(ctx, "t", scanKey(8), []Cell{put("v", "keep", 0)}))
	mustDo(c.Put(ctx, "t", scanKey(12), []Cell{put("v", "keep", 0)}))
	mustDo(m.Put(ctx, "t", scanKey(2), []Cell{put("v", "keep", 0)}))
	mustDo(m.Put(ctx, "t", scanKey(4), []Cell{put("v", "not-any-more", 0)}))
	mustDo(m.Put(ctx, "t", scanKey(5), []Cell{put("v", "keep", 0)}))
	mustDo(m.Delete(ctx, "t", scanKey(12), 0))
	mustDo(m.Put(ctx, "t", scanKey(8), []Cell{put("w", "other-column", 0)}))

	for _, limit := range []int{0, 2} {
		sc1, err := m.View().OpenScan(ctx, "t", ScanSpec{Filter: filter, Limit: limit}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pushed := drainStream(ctx, sc1)
		want := []string{scanKey(2), scanKey(5), scanKey(8)}
		if limit > 0 {
			want = want[:limit]
		}
		if len(pushed) != len(want) {
			t.Fatalf("limit=%d: got %d rows, want %v", limit, len(pushed), want)
		}
		for i, k := range want {
			if pushed[i].Key != k {
				t.Fatalf("limit=%d row %d = %q, want %q", limit, i, pushed[i].Key, k)
			}
		}
	}

	// Post-flush, the plain store must agree with what the overlay served.
	sc, err := m.View().OpenScan(ctx, "t", ScanSpec{Filter: filter}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := drainStream(ctx, sc)
	mustDo(m.Flush(ctx))
	sc3, err := c.Scan(ctx, "t", ScanSpec{Filter: filter, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, sc3.All(ctx), before)
}

// TestOverlayPushdownSavesShipping pins that the split keeps pushdown: with
// pending rows present, the store examines every stored row but ships only
// the ones the filter keeps and the ones with pending cells, which the client
// must judge merged.
func TestOverlayPushdownSavesShipping(t *testing.T) {
	_, _, m := overlayFixture(t)
	ctx := sim.NewCtx()
	// Row 3 is pending only; row 4 is stored, and its pending cell flips the
	// filter to keep it. No stored row passes the filter.
	for _, k := range []int{3, 4} {
		if err := m.Put(ctx, "t", scanKey(k), []Cell{put("v", "keep", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	filter := FilterFunc(func(r RowResult) bool { return string(r.Get("v")) == "keep" })

	c := sim.NewCtx()
	sc, err := m.View().OpenScan(c, "t", ScanSpec{Filter: filter}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := drainStream(c, sc)
	if len(rows) != 2 || rows[0].Key != scanKey(3) || rows[1].Key != scanKey(4) {
		t.Fatalf("filtered overlay scan = %v, want rows 3 and 4", rows)
	}
	if st := c.Snapshot(); st.RowsScanned != 10 || st.RowsReturned != 1 {
		t.Fatalf("store examined %d rows and shipped %d, want all 10 examined and only row 4 shipped", st.RowsScanned, st.RowsReturned)
	}
}

// MVCC-stamped pending cells honor the snapshot read options, exactly as
// they will once flushed.
func TestOverlaySnapshotVisibility(t *testing.T) {
	costs := sim.DefaultCosts()
	hc := NewHCluster(costs, nil)
	mustCreate(t, hc, TableSpec{Name: "t", MaxVersions: 16})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	if err := c.Put(ctx, "t", "row", []Cell{{Qualifier: "v", Value: []byte("committed"), TS: 5}}); err != nil {
		t.Fatal(err)
	}
	m := c.NewBufferedMutator(0)
	if err := m.Put(ctx, "t", "row", []Cell{{Qualifier: "v", Value: []byte("mine"), TS: 10}}); err != nil {
		t.Fatal(err)
	}
	view := m.View()
	own, err := view.GetInto(ctx, "t", "row", ReadOpts{ReadTS: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(own.Get("v")) != "mine" {
		t.Fatalf("own snapshot read = %s, want pending version", own)
	}
	// A snapshot that excludes the pending transaction's timestamp falls
	// back to the committed version.
	older, err := view.GetInto(ctx, "t", "row", ReadOpts{ReadTS: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(older.Get("v")) != "committed" {
		t.Fatalf("older snapshot read = %s, want committed version", older)
	}
}

// Mutation buffers are recycled across flushes: a second statement's flush
// must not re-allocate the buffer the first returned to the pool.
func TestMutationBufferPooling(t *testing.T) {
	_, c, m := overlayFixture(t)
	ctx := sim.NewCtx()
	if err := m.Put(ctx, "t", scanKey(1), []Cell{put("v", "a", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	box := c.getMutBuf()
	if cap(*box) == 0 {
		t.Fatal("flush did not recycle the mutation buffer")
	}
	c.putMutBuf(box, *box)
	_ = m
}

// TestRecycledOverlayKeepsCap flushes a transaction that wrote 10,000 rows of
// one table: the overlay index the client's next transaction takes keeps at
// most maxOverlayRows rows of any table and the mutation buffer at most
// maxMutBufBytes; and the buffer a small flush hands back holds nothing of
// its mutations.
func TestRecycledOverlayKeepsCap(t *testing.T) {
	_, c, m := overlayFixture(t)
	ctx := sim.NewCtx()
	for i := 0; i < 10000; i++ {
		if err := m.Put(ctx, "t", scanKey(i), []Cell{put("v", "x", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	ov := c.overlayPool.Get()
	for name, ot := range ov.tables {
		if n := len(ot.rows) + len(ot.free); n > maxOverlayRows {
			t.Errorf("table %s keeps %d rows, above %d", name, n, maxOverlayRows)
		}
	}
	c.overlayPool.Put(ov)
	box := c.getMutBuf()
	if size := cap(*box) * int(unsafe.Sizeof(Mutation{})); size > maxMutBufBytes {
		t.Errorf("recycled buffer keeps %d bytes, above %d", size, maxMutBufBytes)
	}
	c.putMutBuf(box, *box)

	for i := 0; i < 3; i++ {
		if err := m.Put(ctx, "t", scanKey(i), []Cell{put("v", "y", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	box = c.getMutBuf()
	for i, mut := range (*box)[:cap(*box)] {
		if !reflect.ValueOf(mut).IsZero() {
			t.Fatalf("recycled buffer's mutation %d holds %s/%s", i, mut.Table, mut.Key)
		}
	}
}
