package synergy

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// concurrencyConfigs are the three concurrency modes every async-maintenance
// contract must hold under.
var concurrencyConfigs = []struct {
	name string
	cfg  Config
}{
	{"hierarchical", Config{}},
	{"mvcc", Config{Concurrency: MVCC, MaxVersions: 16}},
	{"occ", Config{Concurrency: OCC, MaxVersions: 16}},
}

func normalizeState(m map[string][]string) map[string][]string {
	return stripDirtyOff(dropLockTables(m))
}

// TestAsyncMaintenanceParity is the changefeed's correctness contract: after
// it drains, an async-maintained system holds exactly the state synchronous
// maintenance produces — store-wide and through SQL read-back — under all
// three concurrency modes.
func TestAsyncMaintenanceParity(t *testing.T) {
	const views, rowsPer = 4, 6
	for _, cm := range concurrencyConfigs {
		t.Run(cm.name+"/async", func(t *testing.T) {
			syncSys := fanoutSystem(t, views, rowsPer, cm.cfg)
			acfg := cm.cfg
			acfg.Maintenance = AsyncMaintenance
			asyncSys := fanoutSystem(t, views, rowsPer, acfg)
			if asyncSys.Feed == nil {
				t.Fatal("async-configured system has no changefeed")
			}

			// Single-statement churn (inserts, multi-row updates,
			// deletes, index moves) plus the multi-statement
			// transaction workload (read-your-writes, same-tx
			// insert+update+delete).
			writeWorkload(t, syncSys)
			writeWorkload(t, asyncSys)
			stmts, params := txnWorkload(views)
			if err := syncSys.ExecTxn(sim.NewCtx(), stmts, params); err != nil {
				t.Fatal(err)
			}
			if err := asyncSys.ExecTxn(sim.NewCtx(), stmts, params); err != nil {
				t.Fatal(err)
			}
			if err := asyncSys.Feed.Drain(); err != nil {
				t.Fatal(err)
			}

			// Synchronous maintenance leaves _dirty=0 cells behind
			// (hierarchical un-mark phase); the async applier never
			// marks. An off mark is semantically absent — normalize
			// both sides before comparing.
			requireSameState(t, normalizeState(dumpState(t, syncSys)),
				normalizeState(dumpState(t, asyncSys)))

			// SQL read-back parity through the view-routed plans.
			for i, sel := range syncSys.Design.Workload.Selects() {
				ps := []schema.Value{fmt.Sprintf("Leaf%02d-%d", i, 4)}
				s, err := syncSys.Query(sim.NewCtx(), sel, ps)
				if err != nil {
					t.Fatal(err)
				}
				a, err := asyncSys.Query(sim.NewCtx(), sel, ps)
				if err != nil {
					t.Fatal(err)
				}
				if len(s.Rows) != len(a.Rows) {
					t.Fatalf("query %d: %d vs %d rows", i, len(s.Rows), len(a.Rows))
				}
				if len(s.Rows) == 0 {
					t.Fatalf("query %d returned nothing; fixture broken", i)
				}
				for j := range s.Rows {
					for col, v := range s.Rows[j] {
						if !schema.ValuesEqual(v, a.Rows[j][col]) {
							t.Fatalf("query %d row %d col %s: sync %v vs async %v", i, j, col, v, a.Rows[j][col])
						}
					}
				}
			}
		})
	}
}

// querier is a System or a Session.
type querier interface {
	Query(*sim.Ctx, *sqlparser.SelectStmt, []schema.Value) (*phoenix.ResultSet, error)
}

// queryRVals runs the fixture's view query and collects the RVal column.
func queryRVals(t *testing.T, q querier, sel *sqlparser.SelectStmt, ctx *sim.Ctx) []string {
	t.Helper()
	rs, err := q.Query(ctx, sel, []schema.Value{"Leaf00-0"})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range rs.Rows {
		out = append(out, fmt.Sprintf("%v", r["RVal"]))
	}
	if len(out) == 0 {
		t.Fatal("fixture query returned no rows")
	}
	return out
}

// TestWatermarkReadNeverStale pins the ReadWatermark guarantee under every
// concurrency mode: a query issued after a committed base write never
// observes the async view older than its snapshot — the wait happens before
// the snapshot is taken, so MVCC/OCC snapshot horizons include the applied
// deltas.
func TestWatermarkReadNeverStale(t *testing.T) {
	for _, cm := range concurrencyConfigs {
		t.Run(cm.name, func(t *testing.T) {
			cfg := cm.cfg
			cfg.Maintenance = AsyncMaintenance
			cfg.AsyncReads = ReadWatermark
			sys := fanoutSystem(t, 1, 4, cfg)
			sel := sys.Design.Workload.Selects()[0]
			up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")
			for round := 1; round <= 5; round++ {
				want := fmt.Sprintf("v%d", round)
				if err := sys.Exec(sim.NewCtx(), up, []schema.Value{want, int64(1)}); err != nil {
					t.Fatal(err)
				}
				for _, got := range queryRVals(t, sys, sel, sim.NewCtx()) {
					if got != want {
						t.Fatalf("round %d: watermark read observed %q, want %q", round, got, want)
					}
				}
			}
		})
	}
}

// TestWatermarkReadBlocksOnPausedFeed drives the race deterministically: a
// paused feed holds the delta, the watermark reader blocks, and Resume
// releases it with the fresh value and the wait recorded. A ReadStale query
// meanwhile returns immediately with the old value and the lag recorded.
func TestWatermarkReadBlocksOnPausedFeed(t *testing.T) {
	cfg := Config{Maintenance: AsyncMaintenance, AsyncReads: ReadStale}
	sys := fanoutSystem(t, 1, 4, cfg)
	sel := sys.Design.Workload.Selects()[0]
	up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")

	sys.Feed.Pause()
	if err := sys.Exec(sim.NewCtx(), up, []schema.Value{"pending", int64(1)}); err != nil {
		t.Fatal(err)
	}

	// ReadStale: old value, staleness recorded.
	staleCtx := sim.NewCtx()
	for _, got := range queryRVals(t, sys, sel, staleCtx) {
		if got != "one" {
			t.Fatalf("stale read observed %q, want pre-update %q", got, "one")
		}
	}
	if s := staleCtx.Snapshot(); s.StaleReads != 1 || s.StaleLag < 1 {
		t.Fatalf("stale read stats = %+v, want StaleReads=1 with positive lag", s)
	}

	// ReadWatermark, on a session of the same system: blocks until the feed
	// resumes, then sees the update.
	wm := sys.NewSession()
	wm.SetReads(ReadWatermark)
	wmCtx := sim.NewCtx()
	got := make(chan []string, 1)
	go func() { got <- queryRVals(t, wm, sel, wmCtx) }()
	select {
	case <-got:
		t.Fatal("watermark read returned while the feed was paused")
	case <-time.After(30 * time.Millisecond):
	}
	sys.Feed.Resume()
	select {
	case vals := <-got:
		for _, v := range vals {
			if v != "pending" {
				t.Fatalf("watermark read observed %q, want %q", v, "pending")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watermark read never released after Resume")
	}
	if s := wmCtx.Snapshot(); s.WatermarkWaits != 1 {
		t.Fatalf("WatermarkWaits = %d, want 1", s.WatermarkWaits)
	}
}

// TestAsyncBackpressureBlocksWriters pins the bounded-queue contract: a full
// lane blocks the committing writer until the applier frees space; no delta
// is ever dropped.
func TestAsyncBackpressureBlocksWriters(t *testing.T) {
	cfg := Config{Maintenance: AsyncMaintenance, AsyncQueueCap: 2}
	sys := fanoutSystem(t, 1, 4, cfg)
	up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")

	sys.Feed.Pause()
	for i := 0; i < 2; i++ { // fill the lane to its cap
		if err := sys.Exec(sim.NewCtx(), up, []schema.Value{fmt.Sprintf("fill-%d", i), int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	var done atomic.Bool
	go func() {
		if err := sys.Exec(sim.NewCtx(), up, []schema.Value{"blocked", int64(1)}); err != nil {
			t.Error(err)
		}
		done.Store(true)
	}()
	time.Sleep(30 * time.Millisecond)
	if done.Load() {
		t.Fatal("writer committed into a full lane; want it blocked on backpressure")
	}
	sys.Feed.Resume()
	deadline := time.Now().Add(5 * time.Second)
	for !done.Load() {
		if time.Now().After(deadline) {
			t.Fatal("blocked writer never released")
		}
		time.Sleep(5 * time.Millisecond)
		if err := sys.Feed.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Feed.Drain(); err != nil {
		t.Fatal(err)
	}
	if p, a := sys.Feed.Published(), sys.Feed.Applied(); p != 3 || a != 3 {
		t.Fatalf("published=%d applied=%d, want 3/3 (nothing dropped)", p, a)
	}
	wm := sys.NewSession()
	wm.SetReads(ReadWatermark)
	sel := sys.Design.Workload.Selects()[0]
	for _, got := range queryRVals(t, wm, sel, sim.NewCtx()) {
		if got != "blocked" {
			t.Fatalf("final view value %q, want %q", got, "blocked")
		}
	}
}

// TestAbortDropsDeferredDeltas: a transaction that captured view deltas and
// aborted publishes nothing — the changefeed never sees the work and the
// store is untouched, under every concurrency mode.
func TestAbortDropsDeferredDeltas(t *testing.T) {
	for _, cm := range concurrencyConfigs {
		t.Run(cm.name, func(t *testing.T) {
			cfg := cm.cfg
			cfg.Maintenance = AsyncMaintenance
			sys := fanoutSystem(t, 2, 4, cfg)
			before := dumpState(t, sys)

			ctx := sim.NewCtx()
			tx := sys.BeginTx(ctx)
			if err := tx.Exec(ctx, sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?"),
				[]schema.Value{"doomed", int64(1)}); err != nil {
				t.Fatal(err)
			}
			if len(tx.deltas) == 0 {
				t.Fatal("update captured no deferred deltas; fixture broken")
			}
			if err := tx.Abort(ctx); err != nil {
				t.Fatal(err)
			}
			if p := sys.Feed.Published(); p != 0 {
				t.Fatalf("aborted transaction published %d deltas, want 0", p)
			}
			if err := sys.Feed.Drain(); err != nil {
				t.Fatal(err)
			}
			requireSameState(t, normalizeState(before), normalizeState(dumpState(t, sys)))
		})
	}
}

// TestAsyncMaintenanceSpeedup: at 16 views the async lane takes the
// multi-row maintenance off the writer — its write is no slower than sync's —
// and the drained async state matches sync exactly. Sync runs the §VIII-B
// phases once for all 16 views, so its write stays within 20 sim-ms (15.1;
// 136.6 while each view paid its own locate and three barriers, when async was
// 18x faster rather than 2x).
func TestAsyncMaintenanceSpeedup(t *testing.T) {
	const views, rowsPer = 16, 8
	syncSys := fanoutSystem(t, views, rowsPer, Config{})
	asyncSys := fanoutSystem(t, views, rowsPer, Config{Maintenance: AsyncMaintenance})
	up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")
	run := func(sys *System) sim.Micros {
		ctx := sim.NewCtx()
		if err := sys.Exec(ctx, up, []schema.Value{"renamed", int64(1)}); err != nil {
			t.Fatal(err)
		}
		return ctx.Elapsed()
	}
	syncCost, asyncCost := run(syncSys), run(asyncSys)
	if asyncCost > syncCost {
		t.Errorf("async write %v slower than sync %v", asyncCost, syncCost)
	}
	if limit := sim.FromMillis(20); syncCost > limit {
		t.Errorf("sync write at %d views %v, want at most %v: one maintenance pass for every view", views, syncCost, limit)
	}
	t.Logf("views=%d: sync %v, async %v (%.1fx)", views, syncCost, asyncCost, float64(syncCost)/float64(asyncCost))

	if err := asyncSys.Feed.Drain(); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, normalizeState(dumpState(t, syncSys)),
		normalizeState(dumpState(t, asyncSys)))
}

// TestAsyncDeltasOutliveScratch: a committed transaction's deltas wait in the
// changefeed while the session's next transaction takes the same recycled
// scratch and binds, reads and writes through it — first with the feed paused,
// so every delta is still queued when the scratch is reused, then with the
// lanes applying beside the session. Once drained, the async deployment holds
// what synchronous maintenance leaves, under every concurrency mode.
func TestAsyncDeltasOutliveScratch(t *testing.T) {
	const views, rounds = 4, 8
	stmt := func(q string) sqlparser.Statement { return sqlparser.MustParse(q) }
	type write struct {
		stmt   sqlparser.Statement
		params []schema.Value
	}
	round := func(r int) []write {
		var ws []write
		for i := 0; i < views; i++ {
			leaf := fmt.Sprintf("Leaf%02d", i)
			ws = append(ws, write{stmt(fmt.Sprintf("INSERT INTO %[1]s (%[1]sID, %[1]s_RID, %[1]sVal) VALUES (?, ?, ?)", leaf)),
				[]schema.Value{int64(600 + 10*r + i), int64(1 + (r+i)%2), fmt.Sprintf("r%d-%s", r, leaf)}})
		}
		ws = append(ws,
			write{stmt("UPDATE Leaf00 SET Leaf00Val = ? WHERE Leaf00ID = ?"), []schema.Value{fmt.Sprintf("r%d-updated", r), int64(600 + 10*r)}},
			write{stmt("UPDATE Root SET RVal = ? WHERE RID = ?"), []schema.Value{fmt.Sprintf("root-r%d", r), int64(1 + r%2)}},
			write{stmt("UPDATE Leaf02 SET Leaf02Val = ? WHERE Leaf02ID = ?"), []schema.Value{fmt.Sprintf("moved-r%d", r), int64(1 + r%6)}})
		if r > 0 {
			ws = append(ws, write{stmt("DELETE FROM Leaf01 WHERE Leaf01ID = ?"), []schema.Value{int64(600 + 10*(r-1) + 1)}})
		}
		return ws
	}
	run := func(t *testing.T, sys *System, from, to int) {
		t.Helper()
		sess := sys.NewSession()
		for r := from; r < to; r++ {
			ctx := sim.NewCtx()
			if err := sess.Begin(ctx); err != nil {
				t.Fatal(err)
			}
			for _, w := range round(r) {
				if err := sess.Exec(ctx, w.stmt, w.params); err != nil {
					t.Fatalf("round %d: %s: %v", r, w.stmt, err)
				}
			}
			if err := sess.Commit(ctx); err != nil {
				t.Fatalf("round %d: commit: %v", r, err)
			}
		}
	}
	for _, cm := range concurrencyConfigs {
		t.Run(cm.name, func(t *testing.T) {
			syncSys := fanoutSystem(t, views, 6, cm.cfg)
			acfg := cm.cfg
			acfg.Maintenance = AsyncMaintenance
			asyncSys := fanoutSystem(t, views, 6, acfg)
			run(t, syncSys, 0, rounds)

			// The session's transactions must share one scratch, or nothing
			// here is reused.
			scratches := map[*txScratch]bool{}
			asyncSys.Feed.Pause()
			run(t, asyncSys, 0, 1)
			for _, s := range spareScratches(asyncSys) {
				scratches[s] = true
			}
			run(t, asyncSys, 1, rounds/2)
			if asyncSys.Feed.Applied() != 0 {
				t.Fatal("the paused feed applied deltas")
			}
			for _, s := range spareScratches(asyncSys) {
				if !scratches[s] {
					t.Error("a transaction of the session took a new scratch")
				}
			}
			asyncSys.Feed.Resume()
			run(t, asyncSys, rounds/2, rounds)
			if err := asyncSys.Feed.Drain(); err != nil {
				t.Fatal(err)
			}
			requireSameState(t, normalizeState(dumpState(t, syncSys)), normalizeState(dumpState(t, asyncSys)))
		})
	}
}
