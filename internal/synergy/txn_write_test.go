package synergy

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// txnWorkload is a multi-statement TPC-W-like write transaction over the
// fanout fixture: repeated inserts into every leaf (same tables touched
// again and again, which is where cross-statement batching pays), one
// update of a row inserted earlier in the same transaction (read-your-
// writes), and a delete.
func txnWorkload(views int) ([]sqlparser.Statement, [][]schema.Value) {
	var stmts []sqlparser.Statement
	var params [][]schema.Value
	add := func(q string, ps ...schema.Value) {
		stmts = append(stmts, sqlparser.MustParse(q))
		params = append(params, ps)
	}
	for i := 0; i < views; i++ {
		leaf := fmt.Sprintf("Leaf%02d", i)
		for j := 0; j < 2; j++ {
			add(fmt.Sprintf("INSERT INTO %[1]s (%[1]sID, %[1]s_RID, %[1]sVal) VALUES (?, ?, ?)", leaf),
				int64(500+j), int64(1), fmt.Sprintf("tx-%s-%d", leaf, j))
		}
	}
	// Update a row this transaction inserted: the read-before-write and the
	// view-row locate must resolve from the buffer.
	add("UPDATE Leaf00 SET Leaf00Val = ? WHERE Leaf00ID = ?", "tx-updated", int64(500))
	add("DELETE FROM Leaf01 WHERE Leaf01ID = ?", int64(501))
	return stmts, params
}

// dropLockTables filters the lock tables out of a state dump: an aborted
// transaction may legitimately leave a (free) lock entry behind for a root
// row it never ended up inserting.
func dropLockTables(state map[string][]string) map[string][]string {
	out := map[string][]string{}
	for tbl, rows := range state {
		if strings.HasPrefix(tbl, "LK_") {
			continue
		}
		out[tbl] = rows
	}
	return out
}

// TestTxnScopedWriteBatchesAcrossStatements: a multi-statement transaction at
// 4 materialized views issues strictly fewer RPCs and WAL syncs — and
// simulates strictly faster — when its mutator flushes at the transaction's
// barriers than when it flushes at every mutation, while leaving an identical
// visible state.
func TestTxnScopedWriteBatchesAcrossStatements(t *testing.T) {
	const views, rowsPer = 4, 6
	run := func(cfg Config) (stats sim.Stats, walSyncs int64, state map[string][]string) {
		sys := fanoutSystem(t, views, rowsPer, cfg)
		stmts, params := txnWorkload(views)
		base := sys.Store.WALSyncs()
		ctx := sim.NewCtx()
		if err := sys.ExecTxn(ctx, stmts, params); err != nil {
			t.Fatal(err)
		}
		return ctx.Snapshot(), sys.Store.WALSyncs() - base, dumpState(t, sys)
	}

	txn, txnSyncs, txnState := run(Config{})
	seq, seqSyncs, seqState := run(Config{SequentialWrites: true})

	if txn.RPCs >= seq.RPCs {
		t.Errorf("txn-scoped RPCs = %d, not below sequential %d", txn.RPCs, seq.RPCs)
	}
	if txnSyncs >= seqSyncs {
		t.Errorf("txn-scoped WAL syncs = %d, not below sequential %d", txnSyncs, seqSyncs)
	}
	if txn.Elapsed >= seq.Elapsed {
		t.Errorf("txn-scoped sim latency %v not below sequential %v", txn.Elapsed, seq.Elapsed)
	}
	t.Logf("RPCs: txn=%d seq=%d; WAL syncs: txn=%d seq=%d; sim: txn=%v seq=%v",
		txn.RPCs, seq.RPCs, txnSyncs, seqSyncs, txn.Elapsed, seq.Elapsed)

	requireSameState(t, seqState, txnState)
}

// TestTxnReadYourWrites: a transaction that inserts a row and then updates
// it in a later statement must see its own buffered write — while the store
// and concurrent transactions see nothing until commit.
func TestTxnReadYourWrites(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"hierarchical", Config{}},
		{"mvcc", Config{Concurrency: MVCC, MaxVersions: 16}},
		{"occ", Config{Concurrency: OCC, MaxVersions: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sys := fanoutSystem(t, 4, 6, mode.cfg)
			ctx := sim.NewCtx()
			tx := sys.BeginTx(ctx)
			exec := func(q string, params ...schema.Value) {
				t.Helper()
				if err := tx.Exec(ctx, sqlparser.MustParse(q), params); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			exec("INSERT INTO Leaf00 (Leaf00ID, Leaf00_RID, Leaf00Val) VALUES (?, ?, ?)",
				int64(700), int64(1), "buffered")

			// The store must not have the row yet...
			raw, err := sys.Engine.Client().Get(sim.NewCtx(), "Leaf00", schema.EncodeKey(int64(700)), hbase.ReadOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !raw.Empty() {
				t.Fatalf("buffered insert leaked to the store: %s", raw)
			}
			// ...and a concurrent reader must not see it.
			sel := sys.Design.Workload.Selects()[0] // Root ⋈ Leaf00 by Leaf00Val
			rs, err := sys.Query(sim.NewCtx(), sel, []schema.Value{"buffered"})
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) != 0 {
				t.Fatalf("concurrent reader saw %d uncommitted rows", len(rs.Rows))
			}

			// The update's read-before-write (and the view-row locate) must
			// resolve from the transaction's own buffer.
			exec("UPDATE Leaf00 SET Leaf00Val = ? WHERE Leaf00ID = ?", "updated", int64(700))
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}

			rs, err = sys.Query(sim.NewCtx(), sel, []schema.Value{"updated"})
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) != 1 {
				t.Fatalf("committed transaction produced %d rows, want 1 (update lost its own insert)", len(rs.Rows))
			}
			if got := rs.Rows[0]["Leaf00Val"]; !schema.ValuesEqual(got, "updated") {
				t.Fatalf("Leaf00Val = %v, want updated", got)
			}
		})
	}
}

// TestTxnDeleteThenReinsert: a row deleted and re-inserted by later
// statements of the same transaction survives commit — in both
// concurrency configurations (under MVCC this needs the per-statement
// checkpoints; under hierarchical locking flush-time stamping orders the
// tombstone below the re-insert).
func TestTxnDeleteThenReinsert(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"hierarchical", Config{}},
		{"mvcc", Config{Concurrency: MVCC, MaxVersions: 16}},
		{"occ", Config{Concurrency: OCC, MaxVersions: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sys := fanoutSystem(t, 2, 4, mode.cfg)
			stmts := []sqlparser.Statement{
				sqlparser.MustParse("DELETE FROM Leaf00 WHERE Leaf00ID = ?"),
				sqlparser.MustParse("INSERT INTO Leaf00 (Leaf00ID, Leaf00_RID, Leaf00Val) VALUES (?, ?, ?)"),
			}
			params := [][]schema.Value{{int64(1)}, {int64(1), int64(1), "reborn"}}
			if err := sys.ExecTxn(sim.NewCtx(), stmts, params); err != nil {
				t.Fatal(err)
			}
			sel := sys.Design.Workload.Selects()[0]
			rs, err := sys.Query(sim.NewCtx(), sel, []schema.Value{"reborn"})
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) != 1 {
				t.Fatalf("re-inserted row query = %d rows, want 1 (tombstone shadowed the re-insert)", len(rs.Rows))
			}
		})
	}
}

// TestTxnAbortDiscards is the abort-path regression: an aborted transaction
// leaves base tables, views and indexes untouched, holds no locks, and no
// dirty mark survives — in both concurrency configurations.
func TestTxnAbortDiscards(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"hierarchical", Config{}},
		{"mvcc", Config{Concurrency: MVCC, MaxVersions: 16}},
		{"occ", Config{Concurrency: OCC, MaxVersions: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sys := fanoutSystem(t, 4, 6, mode.cfg)
			before := dropLockTables(dumpState(t, sys))

			ctx := sim.NewCtx()
			tx := sys.BeginTx(ctx)
			exec := func(q string, params ...schema.Value) {
				t.Helper()
				if err := tx.Exec(ctx, sqlparser.MustParse(q), params); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			exec("INSERT INTO Leaf00 (Leaf00ID, Leaf00_RID, Leaf00Val) VALUES (?, ?, ?)",
				int64(800), int64(1), "doomed")
			exec("INSERT INTO Root (RID, RVal) VALUES (?, ?)", int64(9), "doomed-root")
			exec("DELETE FROM Leaf01 WHERE Leaf01ID = ?", int64(1))
			if err := tx.Abort(ctx); err != nil {
				t.Fatalf("abort: %v", err)
			}

			after := dropLockTables(dumpState(t, sys))
			requireSameState(t, before, after)
			for tbl, rows := range dumpState(t, sys) {
				for _, r := range rows {
					if strings.Contains(r, phoenix.DirtyQualifier+"=1") {
						t.Fatalf("dirty mark survived abort in %s: %s", tbl, r)
					}
				}
			}

			// Locks must be free again: the same root row must be writable.
			if err := sys.Exec(sim.NewCtx(), sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?"),
				[]schema.Value{"post-abort", int64(1)}); err != nil {
				t.Fatalf("write after abort blocked: %v", err)
			}
		})
	}
}

// TestAbortAfterBarrierSemantics pins the documented §VIII-B durability
// caveat: a marked multi-row update's phase barriers flush the transaction
// buffer, and hierarchical locking has no undo log — an abort after such a
// barrier keeps the flushed statement durable (with no dirty mark left and
// locks released), while MVCC makes the same flushed work invisible via
// the invalidated transaction id. A mutator that flushes at every mutation
// has published the statement before its barriers, with the same outcome.
func TestAbortAfterBarrierSemantics(t *testing.T) {
	stmts := []sqlparser.Statement{
		sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?"), // barriers under hierarchical
		sqlparser.MustParse("INSERT INTO Nonexistent (X) VALUES (?)"), // aborts the transaction
	}
	params := [][]schema.Value{{"barrier-flushed", int64(1)}, {int64(1)}}
	sel := "SELECT * FROM Root as r, Leaf00 as l WHERE r.RID = l.Leaf00_RID and l.Leaf00Val = ?"

	for _, mode := range []struct {
		name    string
		cfg     Config
		durable bool
	}{
		{"hierarchical", Config{}, true},                            // no undo log: barrier-flushed work survives
		{"mvcc", Config{Concurrency: MVCC, MaxVersions: 16}, false}, // invalidated: invisible
		{"hierarchical/sequential", Config{SequentialWrites: true}, true},
		{"mvcc/sequential", Config{Concurrency: MVCC, MaxVersions: 16, SequentialWrites: true}, false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sys := fanoutSystem(t, 4, 6, mode.cfg)
			if err := sys.ExecTxn(sim.NewCtx(), stmts, params); err == nil {
				t.Fatal("transaction against missing table succeeded")
			}
			rs, err := sys.Query(sim.NewCtx(), sqlparser.MustParse(sel).(*sqlparser.SelectStmt),
				[]schema.Value{"Leaf00-0"})
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) == 0 {
				t.Fatal("fixture query returned nothing")
			}
			got := fmt.Sprint(rs.Rows[0]["RVal"])
			if mode.durable && got != "barrier-flushed" {
				t.Fatalf("RVal = %q; hierarchical barrier-flushed update should be durable", got)
			}
			if !mode.durable && got == "barrier-flushed" {
				t.Fatal("aborted MVCC transaction's flushed update is visible")
			}
			// Either way: no dirty mark survives and the root lock is free.
			for tbl, rows := range dumpState(t, sys) {
				for _, r := range rows {
					if strings.Contains(r, phoenix.DirtyQualifier+"=1") {
						t.Fatalf("dirty mark survived abort in %s: %s", tbl, r)
					}
				}
			}
			if err := sys.Exec(sim.NewCtx(), sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?"),
				[]schema.Value{"post-abort", int64(1)}); err != nil {
				t.Fatalf("write after abort blocked: %v", err)
			}
		})
	}
}

// TestAbortUnmarksFlushedDirtyMarks covers the hardening path: when an
// abort happens after a mark phase barrier flushed dirty marks (a failure
// between protocol phases), Abort un-marks them — through the transaction's
// own mutator, whatever its flush threshold — so readers do not restart
// forever against a dead transaction's marks. The views=4 case fails a real
// update that maintains four views right after its one mark barrier. In both,
// the root lock frees only after the un-marks have landed.
func TestAbortUnmarksFlushedDirtyMarks(t *testing.T) {
	for _, cfg := range []Config{{}, {SequentialWrites: true}} {
		t.Run(fmt.Sprintf("sequential=%v", cfg.SequentialWrites), func(t *testing.T) {
			testAbortUnmarksFlushedDirtyMarks(t, cfg)
		})
		t.Run(fmt.Sprintf("views=4/sequential=%v", cfg.SequentialWrites), func(t *testing.T) {
			testAbortAfterMarkBarrier(t, cfg)
		})
	}
}

// markedRows counts the rows of each table that carry a dirty mark.
func markedRows(t *testing.T, sys *System) map[string]int {
	t.Helper()
	out := map[string]int{}
	for tbl, rows := range dumpState(t, sys) {
		for _, r := range rows {
			if strings.Contains(r, phoenix.DirtyQualifier+"=1") {
				out[tbl]++
			}
		}
	}
	return out
}

// newestStamp is the highest stamp among the visible cells of table (of row
// key only, when key is not empty), read off the visibility check the read
// path runs on every cell.
func newestStamp(t *testing.T, sys *System, table, key string) int64 {
	t.Helper()
	var newest int64
	spec := hbase.ScanSpec{Sequential: true, Read: hbase.ReadOpts{Excluded: func(ts int64) bool {
		newest = max(newest, ts)
		return false
	}}}
	if key != "" {
		spec.Start, spec.Stop = key, key+"\x00"
	}
	sc, err := sys.Engine.Client().Scan(sim.NewCtx(), table, spec)
	if err != nil {
		t.Fatal(err)
	}
	sc.All(sim.NewCtx())
	return newest
}

// requireUnmarkedBeforeFree checks that the root lock ref reads free and was
// freed after everything else was written — the un-marks of an abort
// included: no table outside the lock tables holds a cell stamped after the
// lock's free one.
func requireUnmarkedBeforeFree(t *testing.T, sys *System, ref lockRef) {
	t.Helper()
	lockTable := LockTableName(ref.root)
	r, err := sys.Engine.Client().Get(sim.NewCtx(), lockTable, ref.key, hbase.ReadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Cells.Get(lockQualifier); string(v) != string(lockFree) {
		t.Fatalf("%s/%q reads %q after the abort, want free", ref.root, ref.key, v)
	}
	freed := newestStamp(t, sys, lockTable, ref.key)
	for _, tbl := range sys.Store.Tables() {
		if strings.HasPrefix(tbl, LockTableName("")) {
			continue
		}
		if ts := newestStamp(t, sys, tbl, ""); ts > freed {
			t.Fatalf("%s holds a cell stamped %d, after %s/%q was freed at %d", tbl, ts, ref.root, ref.key, freed)
		}
	}
}

func testAbortAfterMarkBarrier(t *testing.T, cfg Config) {
	const views, rowsPer = 4, 4
	sys := fanoutSystem(t, views, rowsPer, cfg)
	injected := errors.New("injected failure after the mark barrier")
	var atBarrier map[string]int
	sys.afterPhase = func(phase int) error {
		if phase != phaseMarked {
			t.Errorf("phase %d ran after a failed mark barrier", phase)
			return nil
		}
		atBarrier = markedRows(t, sys)
		return injected
	}
	up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")
	if err := sys.Exec(sim.NewCtx(), up, []schema.Value{"doomed", int64(1)}); !errors.Is(err, injected) {
		t.Fatalf("update returned %v, want the injected failure", err)
	}
	for _, v := range sys.Design.Views {
		if n := atBarrier[v.Name()]; n != rowsPer {
			t.Errorf("%s: %d rows marked at the mark barrier, want %d", v.Name(), n, rowsPer)
		}
	}
	if left := markedRows(t, sys); len(left) > 0 {
		t.Fatalf("marks survived the abort: %v", left)
	}
	requireUnmarkedBeforeFree(t, sys, lockRef{"Root", schema.EncodeKey(int64(1))})
	sys.afterPhase = nil
	if err := sys.Exec(sim.NewCtx(), up, []schema.Value{"after", int64(1)}); err != nil {
		t.Fatalf("write after abort: %v", err)
	}
}

func testAbortUnmarksFlushedDirtyMarks(t *testing.T, cfg Config) {
	sys := fanoutSystem(t, 1, 4, cfg)
	view := sys.Design.Views[0].Name()
	client := sys.Engine.Client()

	sc, err := client.Scan(sim.NewCtx(), view, hbase.ScanSpec{Sequential: true, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := sc.All(sim.NewCtx())
	if len(rows) == 0 {
		t.Fatal("fixture view empty")
	}
	key := rows[0].Key

	// Simulate a crashed update phase: the root lock is held and the mark
	// flushed, the un-mark phase never ran.
	ctx := sim.NewCtx()
	lock := lockRef{"Root", schema.EncodeKey(int64(1))}
	tx := sys.BeginTx(ctx)
	if err := tx.acquireLock(ctx, lock.root, lock.key); err != nil {
		t.Fatal(err)
	}
	if err := client.Put(ctx, view, key, []hbase.Cell{{Qualifier: phoenix.DirtyQualifier, Value: []byte("1")}}); err != nil {
		t.Fatal(err)
	}
	tx.marks = []markRef{{table: view, key: key}}
	if err := tx.Abort(ctx); err != nil {
		t.Fatalf("abort: %v", err)
	}

	got, err := client.Get(sim.NewCtx(), view, key, hbase.ReadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if phoenix.IsDirty(got) {
		t.Fatalf("dirty mark survived abort: %s", got)
	}
	requireUnmarkedBeforeFree(t, sys, lock)
	// And the dirty-checked read path must not restart on the row anymore.
	sel := sys.Design.Workload.Selects()[0]
	if _, err := sys.Query(sim.NewCtx(), sel, []schema.Value{"Leaf00-0"}); err != nil {
		t.Fatalf("query after unmark: %v", err)
	}
}

// TestAbortedTxnNotReplayed: a transaction that aborts writes an abort
// record, so WAL recovery skips it instead of re-applying (or re-failing)
// its statements.
func TestAbortedTxnNotReplayed(t *testing.T) {
	sys := fanoutSystem(t, 2, 4, Config{})
	stmts := []sqlparser.Statement{
		sqlparser.MustParse("INSERT INTO Leaf00 (Leaf00ID, Leaf00_RID, Leaf00Val) VALUES (?, ?, ?)"),
		sqlparser.MustParse("INSERT INTO Nonexistent (X) VALUES (?)"),
	}
	params := [][]schema.Value{{int64(900), int64(1), "ghost"}, {int64(1)}}
	if err := sys.ExecTxn(sim.NewCtx(), stmts, params); err == nil {
		t.Fatal("transaction against missing table succeeded")
	}

	for _, s := range sys.Txn.Slaves() {
		s.Kill()
	}
	if _, err := sys.Txn.DetectAndRecover(sim.NewCtx()); err != nil {
		t.Fatalf("recovery replayed an aborted transaction: %v", err)
	}
	raw, err := sys.Engine.Client().Get(sim.NewCtx(), "Leaf00", schema.EncodeKey(int64(900)), hbase.ReadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !raw.Empty() {
		t.Fatalf("aborted transaction's write resurrected by replay: %s", raw)
	}
}

// TestTxnGroupedReplay: a multi-statement transaction that died without a
// commit record replays as one transaction and leaves the same state a
// normal execution would.
func TestTxnGroupedReplay(t *testing.T) {
	sys := fanoutSystem(t, 2, 4, Config{})
	slave := sys.Txn.Slaves()[0]
	stmts, params := txnWorkload(2)

	// Log the statements, then die before executing them.
	slave.KillBeforeNextExec()
	if err := slave.ExecuteTxn(sim.NewCtx(), stmts, params); err == nil {
		t.Fatal("expected mid-transaction crash")
	}
	if _, err := sys.Txn.DetectAndRecover(sim.NewCtx()); err != nil {
		t.Fatal(err)
	}

	// A reference system executes the same transaction normally.
	ref := fanoutSystem(t, 2, 4, Config{})
	if err := ref.ExecTxn(sim.NewCtx(), stmts, params); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, dumpState(t, ref), dumpState(t, sys))
}
