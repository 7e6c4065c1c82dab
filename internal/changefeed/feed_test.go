package changefeed

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synergy/internal/sim"
)

func testCosts() *sim.Costs {
	c := sim.DefaultCosts()
	return c
}

// collectFeed returns a feed whose deltas record their apply order.
func collectFeed(cfg Config) (*Feed, func(view string, ts int64) Delta, *[]int64, *sync.Mutex) {
	f := New(cfg)
	var mu sync.Mutex
	var order []int64
	mk := func(view string, ts int64) Delta {
		return Delta{View: view, CommitTS: ts, Apply: func(ctx *sim.Ctx) error {
			mu.Lock()
			order = append(order, ts)
			mu.Unlock()
			return nil
		}}
	}
	return f, mk, &order, &mu
}

// Deltas of one view apply in publish order (FIFO), and Drain applies all.
func TestFeedFIFOWithinLane(t *testing.T) {
	f, mk, order, mu := collectFeed(Config{Costs: testCosts()})
	ctx := sim.NewCtx()
	for ts := int64(1); ts <= 50; ts++ {
		f.Publish(ctx, []Delta{mk("V", ts)})
	}
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*order) != 50 {
		t.Fatalf("applied %d deltas, want 50", len(*order))
	}
	for i, ts := range *order {
		if ts != int64(i+1) {
			t.Fatalf("apply order[%d] = %d, want %d (FIFO)", i, ts, i+1)
		}
	}
	if f.Published() != 50 || f.Applied() != 50 {
		t.Fatalf("published=%d applied=%d, want 50/50", f.Published(), f.Applied())
	}
}

// The watermark advances to the highest applied CommitTS, and StaleBehind
// reports zero once drained.
func TestFeedWatermarkAdvances(t *testing.T) {
	f, mk, _, _ := collectFeed(Config{Costs: testCosts()})
	ctx := sim.NewCtx()
	f.Pause()
	f.Publish(ctx, []Delta{mk("V", 10), mk("V", 20)})
	if lag := f.StaleBehind("V", 15); lag != 15-0 {
		t.Fatalf("paused StaleBehind(15) = %d, want 15 (watermark 0)", lag)
	}
	if lag := f.StaleBehind("V", 5); lag != 0 {
		t.Fatalf("StaleBehind(5) = %d, want 0 — no unapplied delta ≤ 5", lag)
	}
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	if wm := f.Watermark("V"); wm != 20 {
		t.Fatalf("watermark = %d, want 20", wm)
	}
	if lag := f.StaleBehind("V", 15); lag != 0 {
		t.Fatalf("drained StaleBehind(15) = %d, want 0", lag)
	}
}

// Publish charges the writer exactly one queue hop regardless of delta
// count; the apply work lands on background contexts (AppliedCost).
func TestFeedWriterChargedOnlyQueueHop(t *testing.T) {
	costs := testCosts()
	f := New(Config{Costs: costs})
	f.Pause()
	ctx := sim.NewCtx()
	work := sim.FromMillis(5)
	var deltas []Delta
	for i := int64(1); i <= 4; i++ {
		deltas = append(deltas, Delta{View: "V", CommitTS: i, Apply: func(c *sim.Ctx) error {
			c.Charge(work)
			return nil
		}})
	}
	f.Publish(ctx, deltas)
	if got := ctx.Elapsed(); got != costs.AsyncQueueHop {
		t.Fatalf("writer charged %v, want one queue hop %v", got, costs.AsyncQueueHop)
	}
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	// One batch (4 ≤ batchMax): batch overhead + 4×work.
	want := costs.AsyncApplyBatch + 4*work
	if got := f.AppliedCost(); got != want {
		t.Fatalf("applied cost %v, want %v", got, want)
	}
}

// A full lane blocks the publisher (backpressure) and releases it once the
// applier frees space; nothing is dropped.
func TestFeedBackpressureBlocksNeverDrops(t *testing.T) {
	f, mk, order, mu := collectFeed(Config{QueueCap: 2, Costs: testCosts()})
	f.Pause()
	ctx := sim.NewCtx()
	f.Publish(ctx, []Delta{mk("V", 1), mk("V", 2)}) // lane now full

	var done atomic.Bool
	go func() {
		f.Publish(sim.NewCtx(), []Delta{mk("V", 3)})
		done.Store(true)
	}()
	time.Sleep(20 * time.Millisecond)
	if done.Load() {
		t.Fatal("publish into a full paused lane returned; want it blocked")
	}
	f.Resume()
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !done.Load(); i++ {
		time.Sleep(5 * time.Millisecond)
		f.Drain()
	}
	if !done.Load() {
		t.Fatal("blocked publisher never released")
	}
	f.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(*order) != 3 {
		t.Fatalf("applied %d deltas, want 3 (no drops)", len(*order))
	}
}

// WaitWatermark returns immediately when fresh, blocks on a paused feed
// until Resume, and charges the reader the waited-out applier work.
func TestFeedWaitWatermark(t *testing.T) {
	costs := testCosts()
	f := New(Config{Costs: costs})
	work := sim.FromMillis(3)
	f.Pause()
	f.Publish(sim.NewCtx(), []Delta{{View: "V", CommitTS: 7, Apply: func(c *sim.Ctx) error {
		c.Charge(work)
		return nil
	}}})

	fresh := sim.NewCtx()
	f.WaitWatermark(fresh, "V", 0) // nothing ≤ 0 pending
	if fresh.Elapsed() != 0 || fresh.Snapshot().WatermarkWaits != 0 {
		t.Fatalf("fresh read charged %v / %d waits, want none", fresh.Elapsed(), fresh.Snapshot().WatermarkWaits)
	}

	reader := sim.NewCtx()
	released := make(chan struct{})
	go func() {
		f.WaitWatermark(reader, "V", 7)
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("watermark wait returned while feed paused")
	case <-time.After(20 * time.Millisecond):
	}
	f.Resume()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("watermark wait never released after Resume")
	}
	s := reader.Snapshot()
	if s.WatermarkWaits != 1 {
		t.Fatalf("WatermarkWaits = %d, want 1", s.WatermarkWaits)
	}
	want := costs.WatermarkWait + costs.AsyncApplyBatch + work
	if got := reader.Elapsed(); got != want {
		t.Fatalf("reader charged %v, want %v (check + waited-out apply)", got, want)
	}
}

// Apply errors surface from Drain/Err without stopping later deltas.
func TestFeedApplyErrorSurfaces(t *testing.T) {
	f := New(Config{Costs: testCosts()})
	boom := errors.New("boom")
	var applied atomic.Int64
	f.Publish(sim.NewCtx(), []Delta{
		{View: "V", CommitTS: 1, Apply: func(*sim.Ctx) error { return boom }},
		{View: "V", CommitTS: 2, Apply: func(*sim.Ctx) error { applied.Add(1); return nil }},
	})
	if err := f.Drain(); !errors.Is(err, boom) {
		t.Fatalf("Drain err = %v, want %v", err, boom)
	}
	if applied.Load() != 1 {
		t.Fatal("delta after a failed one was not applied")
	}
	if wm := f.Watermark("V"); wm != 2 {
		t.Fatalf("watermark = %d, want 2", wm)
	}
}

// Lanes are independent: a slow view does not hold back another view's
// watermark.
func TestFeedLanesIndependent(t *testing.T) {
	f, mk, _, _ := collectFeed(Config{Costs: testCosts()})
	f.Pause()
	f.Publish(sim.NewCtx(), []Delta{mk("A", 5), mk("B", 9)})
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	if f.Watermark("A") != 5 || f.Watermark("B") != 9 {
		t.Fatalf("watermarks A=%d B=%d, want 5/9", f.Watermark("A"), f.Watermark("B"))
	}
}
