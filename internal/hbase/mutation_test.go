package hbase

import (
	"fmt"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/sim"
)

// splitCluster builds a table pre-split into `regions` regions over keys
// produced by scanKey.
func splitCluster(t *testing.T, regions, span int) (*HCluster, *Client) {
	t.Helper()
	hc := NewHCluster(cluster.NewDefault(nil), nil, nil)
	var splits []string
	for i := 1; i < regions; i++ {
		splits = append(splits, scanKey(i*span/regions))
	}
	mustCreate(t, hc, TableSpec{Name: "t", SplitKeys: splits})
	return hc, hc.NewWarmClient()
}

func totalWALEdits(hc *HCluster) int64 {
	var n int64
	for _, node := range []string{"master-0", "slave-0", "slave-1", "slave-2", "slave-3", "slave-4"} {
		n += hc.WALEdits(node)
	}
	return n
}

// TestMutateBatchMatchesEagerPath is the batch layer's core contract: a
// batch of puts and deletes leaves the store in exactly the state the same
// sequence of eager Put/DeleteAt calls produces, and logs the same number
// of WAL edits.
func TestMutateBatchMatchesEagerPath(t *testing.T) {
	build := func() (*HCluster, *Client) { return splitCluster(t, 4, 40) }
	type op struct {
		key   string
		del   bool
		cells []Cell
		quals []string
	}
	var ops []op
	for i := 0; i < 40; i++ {
		ops = append(ops, op{key: scanKey(i), cells: []Cell{put("v", fmt.Sprintf("val-%d", i), 0), put("w", "x", 0)}})
	}
	for i := 0; i < 40; i += 5 {
		ops = append(ops, op{key: scanKey(i), del: true})
	}
	for i := 1; i < 40; i += 7 {
		ops = append(ops, op{key: scanKey(i), del: true, quals: []string{"w"}})
	}
	// Re-put over a deleted row within the same batch: order must hold.
	ops = append(ops, op{key: scanKey(5), cells: []Cell{put("v", "resurrected", 0)}})

	hcBatch, cBatch := build()
	var muts []Mutation
	for _, o := range ops {
		if o.del {
			muts = append(muts, DeleteMutation("t", o.key, 0, o.quals...))
		} else {
			muts = append(muts, PutMutation("t", o.key, o.cells, 0))
		}
	}
	if err := cBatch.MutateBatch(sim.NewCtx(), muts); err != nil {
		t.Fatal(err)
	}

	hcEager, cEager := build()
	ctx := sim.NewCtx()
	for _, o := range ops {
		var err error
		if o.del {
			err = cEager.DeleteAt(ctx, "t", o.key, 0, o.quals...)
		} else {
			err = cEager.Put(ctx, "t", o.key, o.cells)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	drain := func(c *Client) []RowResult {
		sc, err := c.Scan(sim.NewCtx(), "t", ScanSpec{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		return sc.All(sim.NewCtx())
	}
	requireSameRows(t, drain(cEager), drain(cBatch))
	if eb, bb := totalWALEdits(hcEager), totalWALEdits(hcBatch); eb != bb {
		t.Fatalf("WAL edits diverge: eager=%d batch=%d", eb, bb)
	}
}

// One batch RPC per touched region, and fork/join accounting: the batch is
// charged like the slowest region, not the sum of all regions.
func TestMutateBatchRegionGroupingAndCost(t *testing.T) {
	_, c := splitCluster(t, 4, 40)
	var muts []Mutation
	for i := 0; i < 40; i++ {
		muts = append(muts, PutMutation("t", scanKey(i), []Cell{put("v", fmt.Sprint(i), 0)}, 0))
	}
	batchCtx := sim.NewCtx()
	if err := c.MutateBatch(batchCtx, muts); err != nil {
		t.Fatal(err)
	}
	if got := batchCtx.Snapshot().RPCs; got != 4 {
		t.Fatalf("batch RPCs = %d, want 4 (one per region)", got)
	}

	_, cEager := splitCluster(t, 4, 40)
	eagerCtx := sim.NewCtx()
	for i := 0; i < 40; i++ {
		if err := cEager.Put(eagerCtx, "t", scanKey(i), []Cell{put("v", fmt.Sprint(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if b, e := batchCtx.Elapsed(), eagerCtx.Elapsed(); b*4 >= e {
		t.Fatalf("batched elapsed %v not at least 4x below eager %v", b, e)
	}
}

// A batch holding a single mutation has nothing to amortize: it must charge
// exactly what the eager Put/DeleteAt path charges for the same mutation.
func TestMutateBatchOfOneCostsLikeEagerPath(t *testing.T) {
	_, cBatch := splitCluster(t, 2, 10)
	_, cEager := splitCluster(t, 2, 10)
	cells := []Cell{put("v", "x", 0)}

	bCtx, eCtx := sim.NewCtx(), sim.NewCtx()
	if err := cBatch.MutateBatch(bCtx, []Mutation{PutMutation("t", scanKey(1), cells, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := cEager.Put(eCtx, "t", scanKey(1), cells); err != nil {
		t.Fatal(err)
	}
	if bCtx.Elapsed() != eCtx.Elapsed() {
		t.Fatalf("put-of-one: batched %v != eager %v", bCtx.Elapsed(), eCtx.Elapsed())
	}

	bCtx, eCtx = sim.NewCtx(), sim.NewCtx()
	if err := cBatch.MutateBatch(bCtx, []Mutation{DeleteMutation("t", scanKey(1), 0, "v")}); err != nil {
		t.Fatal(err)
	}
	if err := cEager.DeleteAt(eCtx, "t", scanKey(1), 0, "v"); err != nil {
		t.Fatal(err)
	}
	if bCtx.Elapsed() != eCtx.Elapsed() {
		t.Fatalf("delete-of-one: batched %v != eager %v", bCtx.Elapsed(), eCtx.Elapsed())
	}
}

// Region groups larger than MutateMaxBatch split into several RPCs.
func TestMutateBatchMaxBatchSplit(t *testing.T) {
	costs := sim.DefaultCosts()
	costs.MutateMaxBatch = 5
	hc := NewHCluster(cluster.NewDefault(costs), nil, nil)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	var muts []Mutation
	for i := 0; i < 12; i++ {
		muts = append(muts, PutMutation("t", scanKey(i), []Cell{put("v", "x", 0)}, 0))
	}
	ctx := sim.NewCtx()
	if err := c.MutateBatch(ctx, muts); err != nil {
		t.Fatal(err)
	}
	// 12 mutations, one region, max 5 per RPC: ceil(12/5) = 3 RPCs.
	if got := ctx.Snapshot().RPCs; got != 3 {
		t.Fatalf("RPCs = %d, want 3", got)
	}
	if got := totalWALEdits(hc); got != 12 {
		t.Fatalf("WAL edits = %d, want 12", got)
	}
}

func TestMutateBatchUnknownTableAppliesNothing(t *testing.T) {
	_, c := splitCluster(t, 2, 10)
	muts := []Mutation{
		PutMutation("t", scanKey(0), []Cell{put("v", "x", 0)}, 0),
		PutMutation("missing", scanKey(1), []Cell{put("v", "x", 0)}, 0),
	}
	if err := c.MutateBatch(sim.NewCtx(), muts); err == nil {
		t.Fatal("expected unknown-table error")
	}
	got, err := c.Get(sim.NewCtx(), "t", scanKey(0), ReadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Fatalf("mutation applied despite batch error: %v", got)
	}
}

func TestBufferedMutatorAutoFlush(t *testing.T) {
	hc := NewHCluster(cluster.NewDefault(nil), nil, nil)
	mustCreate(t, hc, TableSpec{Name: "t"})
	c := hc.NewWarmClient()
	m := c.NewBufferedMutator(4)
	ctx := sim.NewCtx()
	for i := 0; i < 5; i++ {
		if err := m.Put(ctx, "t", scanKey(i), []Cell{put("v", "x", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	// The 4th put crossed the threshold and auto-flushed; the 5th waits.
	if got := m.Pending(); got != 1 {
		t.Fatalf("pending after auto-flush = %d, want 1", got)
	}
	if got, _ := c.Get(sim.NewCtx(), "t", scanKey(3), ReadOpts{}); got.Empty() {
		t.Fatal("auto-flushed row not visible")
	}
	if got, _ := c.Get(sim.NewCtx(), "t", scanKey(4), ReadOpts{}); !got.Empty() {
		t.Fatal("buffered row visible before Flush")
	}
	if err := m.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get(sim.NewCtx(), "t", scanKey(4), ReadOpts{}); got.Empty() {
		t.Fatal("row missing after Flush")
	}
	if m.Pending() != 0 {
		t.Fatalf("pending after Flush = %d", m.Pending())
	}
}

// TestFlushAtOneChargesLikeEagerClient pins what lets one write pipeline serve
// the paper's client: a mutator that flushes at 1 is charged, mutation by
// mutation, exactly what the eager Client.Put, DeleteAt and CheckAndPut — the
// reference, which the lock manager calls directly — are charged, and leaves
// the same cells under the same stamps. Both start from a cold client (so the
// connection and meta-lookup charges are in it), write keys on both sides of a
// region boundary, and run once more with the queueing model on.
func TestFlushAtOneChargesLikeEagerClient(t *testing.T) {
	type writer interface {
		put(ctx *sim.Ctx, key string, cells []Cell) error
		del(ctx *sim.Ctx, key string, ts int64, quals ...string) error
		cas(ctx *sim.Ctx, key, qual string, expected []byte, cell Cell) error
	}
	lo, hi := scanKey(2), scanKey(7) // the table splits at scanKey(5)
	ops := []struct {
		name string
		do   func(w writer, ctx *sim.Ctx) error
	}{
		{"single-cell put", func(w writer, ctx *sim.Ctx) error { return w.put(ctx, lo, []Cell{put("v", "one", 0)}) }},
		{"multi-cell put", func(w writer, ctx *sim.Ctx) error {
			return w.put(ctx, hi, []Cell{put("v", "two", 0), put("w", "wide", 0), put("x", "", 0)})
		}},
		{"explicit-TS put", func(w writer, ctx *sim.Ctx) error {
			return w.put(ctx, hi, []Cell{put("v", "old", 1), put("w", "now", 0)})
		}},
		{"column tombstone", func(w writer, ctx *sim.Ctx) error { return w.del(ctx, hi, 0, "w") }},
		{"passing conditional put", func(w writer, ctx *sim.Ctx) error {
			return w.cas(ctx, lo, "v", []byte("one"), put("v", "swapped", 0))
		}},
		{"failing conditional put", func(w writer, ctx *sim.Ctx) error {
			return w.cas(ctx, lo, "v", []byte("one"), put("v", "lost", 0))
		}},
		{"create-if-absent conditional put", func(w writer, ctx *sim.Ctx) error { return w.cas(ctx, hi, "l", nil, put("l", "0", 0)) }},
		{"row tombstone", func(w writer, ctx *sim.Ctx) error { return w.del(ctx, lo, 0) }},
		{"explicit-TS tombstone", func(w writer, ctx *sim.Ctx) error { return w.del(ctx, hi, 3, "x") }},
		{"put over the tombstone", func(w writer, ctx *sim.Ctx) error { return w.put(ctx, lo, []Cell{put("v", "back", 0)}) }},
	}
	for _, queueing := range []bool{false, true} {
		t.Run(fmt.Sprintf("queueing=%v", queueing), func(t *testing.T) {
			build := func() (*HCluster, *Client) {
				cl := cluster.NewDefault(nil)
				if queueing {
					cl.EnableQueueing()
				}
				hc := NewHCluster(cl, nil, nil)
				mustCreate(t, hc, TableSpec{Name: "t", MaxVersions: 8, SplitKeys: []string{scanKey(5)}})
				// Another request's work on both servers, late enough for even a
				// cold client to queue behind it when the model is on.
				busy := sim.NewCtx()
				busy.Charge(sim.FromMillis(10_000))
				for _, key := range []string{lo, hi} {
					if err := hc.NewWarmClient().Put(busy, "t", key, []Cell{put("u", "busy", 0)}); err != nil {
						t.Fatal(err)
					}
				}
				return hc, hc.NewClient()
			}
			hcM, cM := build()
			hcE, cE := build()
			mut, eager := flushAtOne{cM.NewBufferedMutator(1)}, eagerClient{cE}
			ctxM, ctxE := sim.NewCtx(), sim.NewCtx()
			for _, op := range ops {
				if err := op.do(mut, ctxM); err != nil {
					t.Fatal(err)
				}
				if err := op.do(eager, ctxE); err != nil {
					t.Fatal(err)
				}
				if m, e := ctxM.Snapshot(), ctxE.Snapshot(); m != e {
					t.Fatalf("%s: charged\n mutator %+v\n eager   %+v", op.name, m, e)
				}
				if mut.m.Pending() != 0 {
					t.Fatalf("%s: left %d mutations pending", op.name, mut.m.Pending())
				}
			}
			if queueing && ctxE.Snapshot().QueueWaits == 0 {
				t.Fatal("the queueing model charged no wait; fixture broken")
			}
			if m, e := hcM.WALSyncs(), hcE.WALSyncs(); m != e || e == 0 {
				t.Fatalf("WAL syncs: mutator %d, eager %d", m, e)
			}
			for _, srv := range hcE.Servers() {
				if m, e := hcM.WALEdits(srv), hcE.WALEdits(srv); m != e {
					t.Fatalf("WAL edits on %s: mutator %d, eager %d", srv, m, e)
				}
			}
			if mut.m.FlushTS() != hcM.CurrentTS() {
				t.Fatalf("FlushTS = %d, want the last stamp issued, %d", mut.m.FlushTS(), hcM.CurrentTS())
			}
			// The same cells under the same stamps: every snapshot reads alike.
			if m, e := hcM.CurrentTS(), hcE.CurrentTS(); m != e {
				t.Fatalf("clocks: mutator %d, eager %d", m, e)
			}
			for ts := int64(0); ts <= hcE.CurrentTS(); ts++ {
				rowsM, _ := drainSpec(t, cM, ScanSpec{Read: ReadOpts{ReadTS: ts}})
				rowsE, _ := drainSpec(t, cE, ScanSpec{Read: ReadOpts{ReadTS: ts}})
				requireSameRows(t, rowsE, rowsM)
			}
		})
	}
}

// flushAtOne and eagerClient give TestFlushAtOneChargesLikeEagerClient's two
// sides one shape.
type flushAtOne struct{ m *BufferedMutator }

func (w flushAtOne) put(ctx *sim.Ctx, key string, cells []Cell) error {
	return w.m.Put(ctx, "t", key, cells)
}
func (w flushAtOne) del(ctx *sim.Ctx, key string, ts int64, quals ...string) error {
	return w.m.Delete(ctx, "t", key, ts, quals...)
}
func (w flushAtOne) cas(ctx *sim.Ctx, key, qual string, expected []byte, cell Cell) error {
	return w.m.CheckAndPut(ctx, "t", key, qual, expected, cell, nil)
}

type eagerClient struct{ c *Client }

func (w eagerClient) put(ctx *sim.Ctx, key string, cells []Cell) error {
	return w.c.Put(ctx, "t", key, cells)
}
func (w eagerClient) del(ctx *sim.Ctx, key string, ts int64, quals ...string) error {
	return w.c.DeleteAt(ctx, "t", key, ts, quals...)
}
func (w eagerClient) cas(ctx *sim.Ctx, key, qual string, expected []byte, cell Cell) error {
	_, err := w.c.CheckAndPut(ctx, "t", key, qual, expected, cell)
	return err
}
