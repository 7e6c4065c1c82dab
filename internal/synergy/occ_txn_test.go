package synergy

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/occ"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// occConfig is the standard OCC deployment of the fanout fixture.
var occConfig = Config{Concurrency: OCC, MaxVersions: 16}

// TestOCCTxnMultiStatementParity: the full multi-statement transaction
// workload (leaf inserts, a read-your-writes update, a delete, view
// maintenance throughout) leaves the same visible state under OCC as under
// hierarchical locking.
func TestOCCTxnMultiStatementParity(t *testing.T) {
	const views, rowsPer = 4, 6
	stmts, params := txnWorkload(views)

	hier := fanoutSystem(t, views, rowsPer, Config{})
	if err := hier.ExecTxn(sim.NewCtx(), stmts, params); err != nil {
		t.Fatal(err)
	}
	optimistic := fanoutSystem(t, views, rowsPer, occConfig)
	if err := optimistic.ExecTxn(sim.NewCtx(), stmts, params); err != nil {
		t.Fatal(err)
	}
	// Hierarchical leaves _dirty=0 cells behind (the un-mark phase writes
	// them); OCC never marks at all. An off mark is semantically absent, so
	// normalize it away before comparing.
	requireSameState(t, stripDirtyOff(dropLockTables(dumpState(t, hier))),
		stripDirtyOff(dropLockTables(dumpState(t, optimistic))))
}

// stripDirtyOff removes dirty-off marker cells from a state dump: a mark
// that is off is semantically the same as a mark never written.
func stripDirtyOff(state map[string][]string) map[string][]string {
	out := map[string][]string{}
	for tbl, rows := range state {
		cleaned := make([]string, len(rows))
		for i, r := range rows {
			r = strings.ReplaceAll(r, " "+phoenix.DirtyQualifier+"=0", "")
			r = strings.ReplaceAll(r, "{"+phoenix.DirtyQualifier+"=0}", "{}")
			cleaned[i] = r
		}
		out[tbl] = cleaned
	}
	return out
}

// TestOCCValidationConflict pins the backward-validation contract at the
// system level: a transaction that read a root row loses to a write on that
// row committed while it ran, and its buffered writes (including view
// maintenance) never reach the store.
func TestOCCValidationConflict(t *testing.T) {
	sys := fanoutSystem(t, 2, 4, occConfig)
	up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")

	ctx := sim.NewCtx()
	tx := sys.BeginTx(ctx)
	if err := tx.Exec(ctx, up, []schema.Value{"loser", int64(1)}); err != nil {
		t.Fatal(err)
	}
	// A concurrent transaction writes the same root row and commits first
	// (through the WAL-logged transaction layer, with its own retry loop).
	if err := sys.Exec(sim.NewCtx(), up, []schema.Value{"winner", int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, occ.ErrConflict) {
		t.Fatalf("commit after overlapping committed write = %v, want occ.ErrConflict", err)
	}

	// The winner's value (and its view maintenance) stands; the loser left
	// nothing — no partial writes, no dirty marks.
	sel := sys.Design.Workload.Selects()[0]
	rs, err := sys.Query(sim.NewCtx(), sel, []schema.Value{"Leaf00-0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("fixture query returned nothing")
	}
	for _, r := range rs.Rows {
		if got := r["RVal"]; !schema.ValuesEqual(got, "winner") {
			t.Fatalf("RVal = %v, want winner (view out of sync or loser leaked)", got)
		}
	}
	requireNoDirtyMarks(t, sys)
}

// TestOCCRetryAfterInjectedConflict pins the ExecuteTxn retry loop
// deterministically: the fault-injection hook commits a conflicting write
// inside the first attempt's validation window, so attempt one must abort
// on validation, the retry must run from a fresh snapshot, and exactly one
// retry must be recorded — with the final state reflecting the retried
// transaction over the interloper's.
func TestOCCRetryAfterInjectedConflict(t *testing.T) {
	sys := fanoutSystem(t, 4, 6, occConfig)
	up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")

	injected := false
	sys.postBegin = func(*Tx) {
		if injected {
			return
		}
		injected = true
		hook := sys.postBegin
		sys.postBegin = nil // the interloper's own attempt must not recurse
		defer func() { sys.postBegin = hook }()
		if err := sys.ExecuteTxn(sim.NewCtx(), []sqlparser.Statement{up},
			[][]schema.Value{{schema.Value("interloper"), int64(1)}}); err != nil {
			t.Errorf("injected write: %v", err)
		}
	}

	ctx := sim.NewCtx()
	if err := sys.ExecTxn(ctx, []sqlparser.Statement{up},
		[][]schema.Value{{schema.Value("final"), int64(1)}}); err != nil {
		t.Fatal(err)
	}
	sys.postBegin = nil
	if got := ctx.Snapshot().OCCRetries; got != 1 {
		t.Fatalf("OCC retries = %d, want exactly 1 (conflict injected into attempt one only)", got)
	}
	st := sys.OCC.Stats()
	if st.Conflicts != 1 {
		t.Fatalf("validator conflicts = %d, want 1", st.Conflicts)
	}
	// The retried transaction committed over the interloper; views agree.
	sel := sys.Design.Workload.Selects()[0]
	rs, err := sys.Query(sim.NewCtx(), sel, []schema.Value{"Leaf00-0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("fixture query returned nothing")
	}
	for _, r := range rs.Rows {
		if got := r["RVal"]; !schema.ValuesEqual(got, "final") {
			t.Fatalf("RVal = %v, want final (retry lost or view stale)", got)
		}
	}
	requireNoDirtyMarks(t, sys)
}

// TestOCCLastAttemptRunsAlone: a losing commit injected into every
// optimistic attempt fails each of them, and the last attempt, which runs
// alone, commits — the retry budget never surfaces occ.ErrConflict, and every
// attempt but the last is one recorded retry.
func TestOCCLastAttemptRunsAlone(t *testing.T) {
	sys := fanoutSystem(t, 2, 4, occConfig)
	up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")

	injected := 0
	sys.postBegin = func(tx *Tx) {
		if c := tx.ctl.(*occControl); c.exclusive {
			// An interloper's commit would wait for this attempt to end: the
			// read side of the gate, which every commit takes, is held off.
			if c.gate.TryRLock() {
				c.gate.RUnlock()
				t.Error("a commit could land while the last attempt ran")
			}
			return
		}
		injected++
		hook := sys.postBegin
		sys.postBegin = nil // the interloper's own attempt must not recurse
		defer func() { sys.postBegin = hook }()
		if err := sys.ExecuteTxn(sim.NewCtx(), []sqlparser.Statement{up},
			[][]schema.Value{{schema.Value("interloper"), int64(1)}}); err != nil {
			t.Errorf("injected write: %v", err)
		}
	}

	ctx := sim.NewCtx()
	if err := sys.ExecTxn(ctx, []sqlparser.Statement{up},
		[][]schema.Value{{schema.Value("final"), int64(1)}}); err != nil {
		t.Fatalf("after %d lost attempts: %v", injected, err)
	}
	sys.postBegin = nil
	if got := ctx.Snapshot().OCCRetries; injected != occMaxRetries-1 || got != occMaxRetries-1 {
		t.Fatalf("%d attempts lost to an injected commit, %d retries recorded; want %d of each", injected, got, occMaxRetries-1)
	}
	if st := sys.OCC.Stats(); st.Conflicts != occMaxRetries-1 {
		t.Fatalf("validator conflicts = %d, want %d", st.Conflicts, occMaxRetries-1)
	}
	rs, err := sys.Query(sim.NewCtx(), sys.Design.Workload.Selects()[0], []schema.Value{"Leaf00-0"})
	if err != nil || len(rs.Rows) == 0 {
		t.Fatalf("fixture query: %d rows, err %v", len(rs.Rows), err)
	}
	for _, r := range rs.Rows {
		if got := r["RVal"]; !schema.ValuesEqual(got, "final") {
			t.Fatalf("RVal = %v, want final (the last attempt's write)", got)
		}
	}
	requireNoDirtyMarks(t, sys)
}

// TestOCCConflictRetrySerializable: concurrent conflicting transactions
// through System.ExecTxn all commit — validation aborts are absorbed by the
// retry loop, whose last attempt runs alone — and the validator's counters
// balance: every begun writer either committed or was retried.
func TestOCCConflictRetrySerializable(t *testing.T) {
	sys := fanoutSystem(t, 2, 4, occConfig)
	up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")

	const workers, perWorker = 6, 5
	var wg sync.WaitGroup
	var retries sync.Map
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine int64
			for i := 0; i < perWorker; i++ {
				ctx := sim.NewCtx()
				// All workers hammer root row 1: every transaction reads
				// the row (read-before-write + lock-chain walk) and
				// writes it, so any overlap in flight is a conflict.
				if err := sys.ExecTxn(ctx, []sqlparser.Statement{up},
					[][]schema.Value{{schema.Value("w"), int64(1)}}); err != nil {
					errs <- err
					return
				}
				mine += ctx.Snapshot().OCCRetries
			}
			retries.Store(w, mine)
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("contended transaction failed despite retry: %v", err)
	}

	var totalRetries int64
	retries.Range(func(_, v any) bool { totalRetries += v.(int64); return true })
	st := sys.OCC.Stats()
	if st.Commits != workers*perWorker {
		t.Fatalf("validator commits = %d, want %d", st.Commits, workers*perWorker)
	}
	if st.Conflicts != totalRetries {
		t.Fatalf("validator conflicts (%d) != observed retries (%d): an abort was not retried",
			st.Conflicts, totalRetries)
	}
	requireNoDirtyMarks(t, sys)
	t.Logf("commits=%d conflicts=%d retries=%d", st.Commits, st.Conflicts, totalRetries)
}

// TestOCCViewMaintenanceSurvivesConflictRetry: a multi-row view update that
// loses validation leaves no dirty marks and no partial view state (OCC runs
// the §VIII-B phases without marks and without barriers — nothing flushes
// before validation), and a retried execution converges to the same state a
// clean run produces.
func TestOCCViewMaintenanceSurvivesConflictRetry(t *testing.T) {
	sys := fanoutSystem(t, 4, 6, occConfig)
	up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")

	// First attempt loses: a conflicting write commits mid-flight.
	ctx := sim.NewCtx()
	tx := sys.BeginTx(ctx)
	if err := tx.Exec(ctx, up, []schema.Value{"retry-me", int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Exec(sim.NewCtx(), up, []schema.Value{"interloper", int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, occ.ErrConflict) {
		t.Fatalf("commit = %v, want occ.ErrConflict", err)
	}
	requireNoDirtyMarks(t, sys)

	// The retry (fresh snapshot, whole transaction re-executed) succeeds.
	if err := sys.ExecTxn(sim.NewCtx(), []sqlparser.Statement{up},
		[][]schema.Value{{schema.Value("retry-me"), int64(1)}}); err != nil {
		t.Fatal(err)
	}

	// Reference: the same two committed updates on a fresh system.
	ref := fanoutSystem(t, 4, 6, occConfig)
	for _, v := range []string{"interloper", "retry-me"} {
		if err := ref.Exec(sim.NewCtx(), up, []schema.Value{schema.Value(v), int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	requireSameState(t, dropLockTables(dumpState(t, ref)), dropLockTables(dumpState(t, sys)))
	requireNoDirtyMarks(t, sys)
}

// TestOCCAbortedTxnNotReplayed mirrors TestAbortedTxnNotReplayed for OCC:
// a transaction that fails writes an abort record under its txid, so WAL
// recovery skips it and its buffered writes never resurrect.
func TestOCCAbortedTxnNotReplayed(t *testing.T) {
	sys := fanoutSystem(t, 2, 4, occConfig)
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

// TestOCCTxnGroupedReplay: a multi-statement OCC transaction logged but not
// executed before a slave died replays as one transaction — the replay
// validates like any other commit and lands the same state as a normal run.
func TestOCCTxnGroupedReplay(t *testing.T) {
	sys := fanoutSystem(t, 2, 4, occConfig)
	slave := sys.Txn.Slaves()[0]
	stmts, params := txnWorkload(2)

	slave.KillBeforeNextExec()
	if err := slave.ExecuteTxn(sim.NewCtx(), stmts, params); err == nil {
		t.Fatal("expected mid-transaction crash")
	}
	if _, err := sys.Txn.DetectAndRecover(sim.NewCtx()); err != nil {
		t.Fatal(err)
	}

	ref := fanoutSystem(t, 2, 4, occConfig)
	if err := ref.ExecTxn(sim.NewCtx(), stmts, params); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, dumpState(t, ref), dumpState(t, sys))
}

// TestOCCMovedIndexTombstoneInWriteSet pins write-set completeness: when a
// view-indexed column changes, the old index entry's tombstone must enter
// the OCC write set — a quiet delete there would let a transaction that
// scanned the old key's range validate as conflict-free against this one.
func TestOCCMovedIndexTombstoneInWriteSet(t *testing.T) {
	sys := fanoutSystem(t, 1, 4, occConfig)
	viewInfo, err := sys.Catalog.Table(sys.Design.Views[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewCtx()
	oldRow, err := phoenix.GetCells(ctx, sys.Engine.Client(), viewInfo.Name, schema.EncodeKey(int64(1)), hbase.ReadOpts{})
	if err != nil || oldRow == nil {
		t.Fatalf("fixture view row: %v, err=%v", oldRow, err)
	}
	newRow := phoenix.MergeCells(nil, oldRow, phoenix.RowToCells(schema.Row{"Leaf00Val": "moved"}))

	tx := sys.BeginTx(ctx)
	if err := tx.Exec(ctx, sqlparser.MustParse("UPDATE Leaf00 SET Leaf00Val = ? WHERE Leaf00ID = ?"),
		[]schema.Value{"moved", int64(1)}); err != nil {
		t.Fatal(err)
	}
	movedKeys := 0
	for _, idx := range viewInfo.Indexes {
		oldKey := string(phoenix.AppendIndexKey(nil, viewInfo, idx, oldRow))
		if string(phoenix.AppendIndexKey(nil, viewInfo, idx, newRow)) == oldKey {
			continue
		}
		movedKeys++
		if !tx.ctl.(*occControl).tx.HasWrite(idx.Name, oldKey) {
			t.Errorf("moved index entry %s/%q: tombstone missing from the OCC write set", idx.Name, oldKey)
		}
	}
	if movedKeys == 0 {
		t.Fatal("fixture moved no index keys; the test asserts nothing")
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestOCCLocateReadSet: an update fetches the view rows its maintenance
// indexes name with one multi-get per view, through the tracking reader, which
// records every located key as a point read — as the Get per key it replaces
// did. So a commit to one located view row between the update and its commit
// fails the update's validation on that read.
func TestOCCLocateReadSet(t *testing.T) {
	const views, rowsPer = 4, 4
	sys := fanoutSystem(t, views, rowsPer, occConfig)
	ctx := sim.NewCtx()
	tx := sys.BeginTx(ctx)
	if err := tx.Exec(ctx, sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?"),
		[]schema.Value{"mine", int64(1)}); err != nil {
		t.Fatal(err)
	}
	concurrent := ""
	for _, v := range sys.Design.Views {
		for id := int64(1); id <= rowsPer; id++ {
			if key := schema.EncodeKey(id); !tx.ctl.(*occControl).tx.HasRead(v.Name(), key) {
				t.Errorf("located row %s/%q missing from the read set", v.Name(), key)
			}
		}
		if strings.HasSuffix(v.Name(), "Leaf02") {
			concurrent = v.Name()
		}
	}
	if concurrent == "" {
		t.Fatal("no view of Leaf02 in the design")
	}
	// Leaf02's row 3 rewrites its view row, one the update located.
	if err := sys.Exec(sim.NewCtx(), sqlparser.MustParse("UPDATE Leaf02 SET Leaf02Val = ? WHERE Leaf02ID = ?"),
		[]schema.Value{"concurrent", int64(3)}); err != nil {
		t.Fatal(err)
	}
	err := tx.Commit(ctx)
	if !errors.Is(err, occ.ErrConflict) || !strings.Contains(err.Error(), "read of "+concurrent+"/") {
		t.Fatalf("commit beside a concurrent write to a located row of %s: %v; want a conflict on the read", concurrent, err)
	}
}

// requireNoDirtyMarks scans every table for a surviving dirty mark.
func requireNoDirtyMarks(t *testing.T, sys *System) {
	t.Helper()
	for tbl, rows := range dumpState(t, sys) {
		for _, r := range rows {
			if strings.Contains(r, phoenix.DirtyQualifier+"=1") {
				t.Fatalf("dirty mark present in %s: %s", tbl, r)
			}
		}
	}
}

// TestOCCRangeReadSet: an optimistic transaction's scan is validated by the
// key range it read (Larson et al.), and a key-range predicate is that range.
// A transaction that read c_id >= 100 AND c_id < 200 commits beside a
// concurrent insert of c_id 500 — outside what it read — and aborts beside one
// of c_id 150, a would-be phantom. While the predicate was a filter over a
// full scan the read set was the whole table and both aborted.
func TestOCCRangeReadSet(t *testing.T) {
	s := schema.New()
	s.AddRelation(&schema.Relation{
		Name:    "Customer",
		Columns: []schema.Column{{Name: "c_id", Type: schema.TInt}, {Name: "c_uname", Type: schema.TString}},
		PK:      []string{"c_id"},
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	const selSQL, insSQL = "SELECT c_id FROM Customer WHERE c_id >= ? AND c_id < ?", "INSERT INTO Customer (c_id, c_uname) VALUES (?, ?)"
	sys, err := New(s, []string{"Customer"}, []string{selSQL, insSQL}, occConfig)
	if err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for id := int64(1); id <= 300; id++ {
		if id != 150 {
			rows = append(rows, schema.Row{"c_id": id, "c_uname": "loaded"})
		}
	}
	if err := sys.LoadBase("Customer", rows); err != nil {
		t.Fatal(err)
	}
	sel, ins := sqlparser.MustParse(selSQL).(*sqlparser.SelectStmt), sqlparser.MustParse(insSQL)

	for _, tc := range []struct {
		concurrent int64
		conflict   bool
	}{{500, false}, {150, true}} {
		ctx := sim.NewCtx()
		tx := sys.BeginTx(ctx)
		rs, err := tx.Query(ctx, sel, []schema.Value{int64(100), int64(200)})
		if err != nil || len(rs.Rows) != 99 {
			t.Fatalf("range read: %d rows, err %v; want 99", len(rs.Rows), err)
		}
		if err := tx.Exec(ctx, ins, []schema.Value{9000 + tc.concurrent, "decided on what the range held"}); err != nil {
			t.Fatal(err)
		}
		if err := sys.Exec(sim.NewCtx(), ins, []schema.Value{tc.concurrent, "concurrent"}); err != nil {
			t.Fatal(err)
		}
		err = tx.Commit(ctx)
		if got := errors.Is(err, occ.ErrConflict); got != tc.conflict || (err != nil && !got) {
			t.Errorf("commit of a transaction that read [100, 200) beside an insert of c_id %d: %v; conflict wanted: %v", tc.concurrent, err, tc.conflict)
		}
	}
}
