package synergy

import (
	"fmt"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// benchModes are the two flush thresholds of the write pipeline — 1, one RPC
// per mutation (paper-faithful), and the transaction's commit and phase
// barriers (default) — plus the optimistic concurrency mode, which buffers to
// its commit with commit-time validation instead of locks and dirty marks.
var benchModes = []struct {
	name string
	cfg  Config
}{
	{"sequential", Config{SequentialWrites: true}},
	{"txn", Config{}},
	{"occ", Config{Concurrency: OCC, MaxVersions: 16}},
}

// BenchmarkMaintenanceWrite measures the maintenance-heavy write path: one
// UPDATE on the root relation fans out to `views` multi-row view
// maintenances (locate + mark + update + un-mark over 16 view rows each),
// across benchModes. Reported sim-ms/op is the simulated statement response
// time; txn must sit strictly below sequential from 4 views up (pinned by
// TestBatchedWriteSimulatedSpeedup and
// TestTxnScopedWriteBatchesAcrossStatements).
func BenchmarkMaintenanceWrite(b *testing.B) {
	for _, views := range []int{1, 4, 16} {
		for _, mode := range benchModes {
			b.Run(fmt.Sprintf("views=%d/%s", views, mode.name), func(b *testing.B) {
				sys := fanoutSystem(b, views, 16, mode.cfg)
				up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")
				b.ReportAllocs()
				var total sim.Micros
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx := sim.NewCtx()
					if err := sys.Exec(ctx, up, []schema.Value{fmt.Sprintf("v-%d", i), int64(1)}); err != nil {
						b.Fatal(err)
					}
					total += ctx.Elapsed()
				}
				b.ReportMetric(total.Milliseconds()/float64(b.N), "sim-ms/op")
			})
		}
	}
}

// BenchmarkMaintenanceLanes measures the same fanout update across the two
// view-maintenance lanes: sync pays the full §VIII-B protocol inline, async
// defers every view's maintenance to the changefeed.
// The feed is paused during timed sections and drained under StopTimer so
// the applier's work never lands on the timed writer — sim-ms/op isolates
// the writer-visible latency each lane produces.
func BenchmarkMaintenanceLanes(b *testing.B) {
	lanes := []struct {
		name string
		mode MaintenanceMode
	}{
		{"sync", SyncMaintenance},
		{"async", AsyncMaintenance},
	}
	for _, views := range []int{1, 4, 16} {
		for _, lane := range lanes {
			b.Run(fmt.Sprintf("views=%d/%s", views, lane.name), func(b *testing.B) {
				sys := fanoutSystem(b, views, 16, Config{Maintenance: lane.mode})
				if sys.Feed != nil {
					sys.Feed.Pause()
				}
				up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")
				b.ReportAllocs()
				var total sim.Micros
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx := sim.NewCtx()
					if err := sys.Exec(ctx, up, []schema.Value{fmt.Sprintf("v-%d", i), int64(1)}); err != nil {
						b.Fatal(err)
					}
					total += ctx.Elapsed()
					if sys.Feed != nil && (i+1)%64 == 0 {
						// Keep the paused backlog bounded below the queue cap
						// without the drain showing up in time or allocs.
						b.StopTimer()
						sys.Feed.Resume()
						if err := sys.Feed.Drain(); err != nil {
							b.Fatal(err)
						}
						sys.Feed.Pause()
						b.StartTimer()
					}
				}
				b.StopTimer()
				if sys.Feed != nil {
					sys.Feed.Resume()
					if err := sys.Feed.Drain(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(total.Milliseconds()/float64(b.N), "sim-ms/op")
			})
		}
	}
}

// BenchmarkTxnWrite measures a multi-statement TPC-W-like write
// transaction (repeated leaf inserts, a read-your-writes update, a delete)
// across benchModes. The default mutator pays one commit flush instead of
// an RPC per mutation; sim-ms/op is the simulated transaction response time.
func BenchmarkTxnWrite(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			sys := fanoutSystem(b, 4, 16, mode.cfg)
			// Inserts are upserts, so re-running the transaction reaches a
			// steady state after the first iteration.
			stmts, params := txnWorkload(4)
			b.ReportAllocs()
			var total sim.Micros
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := sim.NewCtx()
				if err := sys.ExecTxn(ctx, stmts, params); err != nil {
					b.Fatal(err)
				}
				total += ctx.Elapsed()
			}
			b.ReportMetric(total.Milliseconds()/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkTxnRootInsert measures the lock-table maintenance cost of
// inserting fresh root rows inside a transaction — the path that pays
// lock-entry creation. Keys rotate so every iteration inserts a brand-new
// root. The "root" shape is a root-insert-only transaction; "rootLeaf"
// follows the insert with a leaf insert referencing it, which re-locks the
// just-created group within the same transaction. In txn mode the lock entry
// rides the commit flush as a conditional batch entry instead of being
// self-acquired and released through standalone checkAndPut RPCs; sequential
// keeps the eager protocol and occ never locks, so those columns are the
// unchanged references.
func BenchmarkTxnRootInsert(b *testing.B) {
	insRoot := sqlparser.MustParse("INSERT INTO Root (RID, RVal) VALUES (?, ?)")
	insLeaf := sqlparser.MustParse("INSERT INTO Leaf00 (Leaf00ID, Leaf00_RID, Leaf00Val) VALUES (?, ?, ?)")
	shapes := []struct {
		name  string
		stmts []sqlparser.Statement
	}{
		{"root", []sqlparser.Statement{insRoot}},
		{"rootLeaf", []sqlparser.Statement{insRoot, insLeaf}},
	}
	for _, shape := range shapes {
		for _, mode := range benchModes {
			b.Run(fmt.Sprintf("%s/%s", shape.name, mode.name), func(b *testing.B) {
				sys := fanoutSystem(b, 4, 16, mode.cfg)
				b.ReportAllocs()
				var total sim.Micros
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx := sim.NewCtx()
					rid := int64(100_000 + i)
					params := [][]schema.Value{{rid, fmt.Sprintf("r-%d", i)}}
					if len(shape.stmts) > 1 {
						params = append(params, []schema.Value{rid, rid, fmt.Sprintf("l-%d", i)})
					}
					if err := sys.ExecTxn(ctx, shape.stmts, params); err != nil {
						b.Fatal(err)
					}
					total += ctx.Elapsed()
				}
				b.ReportMetric(total.Milliseconds()/float64(b.N), "sim-ms/op")
			})
		}
	}
}

// BenchmarkCommitRelease measures the commit of an interactive transaction
// holding six root locks over two lock tables: its commit flush, then the
// lock releases beside the transaction layer's log append. The txn mutator
// frees the six locks in one round, a batch RPC per lock table; sequential
// (the paper's client) pays an RPC per lock. sim-ms/op is the commit alone.
func BenchmarkCommitRelease(b *testing.B) {
	upAddr := sqlparser.MustParse("UPDATE Address SET Street = ? WHERE AID = ?")
	upDept := sqlparser.MustParse("UPDATE Department SET DName = ? WHERE DNo = ?")
	for _, mode := range benchModes[:2] { // occ takes no locks
		b.Run(mode.name, func(b *testing.B) {
			sys := companySystemWith(b, mode.cfg)
			b.ReportAllocs()
			var total sim.Micros
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := sys.NewSession()
				if err := s.Begin(sim.NewCtx()); err != nil {
					b.Fatal(err)
				}
				for _, stmt := range []struct {
					up sqlparser.Statement
					n  int64
				}{{upAddr, 1}, {upDept, 1}, {upAddr, 2}, {upAddr, 3}, {upDept, 2}, {upAddr, 4}} {
					if err := s.Exec(sim.NewCtx(), stmt.up, []schema.Value{fmt.Sprintf("v-%d", i), stmt.n}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				ctx := sim.NewCtx()
				if err := s.Commit(ctx); err != nil {
					b.Fatal(err)
				}
				total += ctx.Elapsed()
			}
			b.ReportMetric(total.Milliseconds()/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkInsertWithViews measures view-tuple construction on insert (one
// parent read + view put + index puts per applicable view) across
// benchModes. Keys rotate so every iteration inserts a fresh row.
func BenchmarkInsertWithViews(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			sys := fanoutSystem(b, 4, 16, mode.cfg)
			ins := sqlparser.MustParse("INSERT INTO Leaf00 (Leaf00ID, Leaf00_RID, Leaf00Val) VALUES (?, ?, ?)")
			b.ReportAllocs()
			var total sim.Micros
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := sim.NewCtx()
				params := []schema.Value{int64(1000 + i), int64(1), fmt.Sprintf("ins-%d", i)}
				if err := sys.Exec(ctx, ins, params); err != nil {
					b.Fatal(err)
				}
				total += ctx.Elapsed()
			}
			b.ReportMetric(total.Milliseconds()/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkDeleteWithViews measures view-tuple teardown on delete (base
// tombstone + index tombstones + view and view-index tombstones) across
// benchModes. Each iteration inserts (untimed) then deletes (timed).
func BenchmarkDeleteWithViews(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			sys := fanoutSystem(b, 4, 16, mode.cfg)
			ins := sqlparser.MustParse("INSERT INTO Leaf00 (Leaf00ID, Leaf00_RID, Leaf00Val) VALUES (?, ?, ?)")
			del := sqlparser.MustParse("DELETE FROM Leaf00 WHERE Leaf00ID = ?")
			b.ReportAllocs()
			var total sim.Micros
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				id := int64(1000 + i)
				if err := sys.Exec(sim.NewCtx(), ins, []schema.Value{id, int64(1), "doomed"}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				ctx := sim.NewCtx()
				if err := sys.Exec(ctx, del, []schema.Value{id}); err != nil {
					b.Fatal(err)
				}
				total += ctx.Elapsed()
			}
			b.ReportMetric(total.Milliseconds()/float64(b.N), "sim-ms/op")
		})
	}
}
