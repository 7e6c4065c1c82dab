package synergy

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"synergy/internal/mvcc"
	"synergy/internal/occ"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// Statements of the session contract, over the fanout fixture (Root plus
// Leaf00 with the Root ⋈ Leaf00 view; with DisableViews the same statements
// run against the base tables alone).
var (
	insLeaf   = sqlparser.MustParse("INSERT INTO Leaf00 (Leaf00ID, Leaf00_RID, Leaf00Val) VALUES (?, ?, ?)")
	updLeaf   = sqlparser.MustParse("UPDATE Leaf00 SET Leaf00Val = ? WHERE Leaf00ID = ?")
	delLeaf   = sqlparser.MustParse("DELETE FROM Leaf00 WHERE Leaf00ID = ?")
	updRoot   = sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")
	badInsert = sqlparser.MustParse("INSERT INTO Nonexistent (X) VALUES (?)")
	selPoint  = sqlparser.MustParse("SELECT Leaf00Val FROM Leaf00 WHERE Leaf00ID = ?").(*sqlparser.SelectStmt)
	selAll    = sqlparser.MustParse("SELECT Leaf00ID, Leaf00Val FROM Leaf00").(*sqlparser.SelectStmt)
	selTop    = sqlparser.MustParse("SELECT Leaf00ID FROM Leaf00 ORDER BY Leaf00ID DESC LIMIT 2").(*sqlparser.SelectStmt)
	selRoot   = sqlparser.MustParse("SELECT RVal FROM Root WHERE RID = ?").(*sqlparser.SelectStmt)
)

// contractEnv is one deployment under test.
type contractEnv struct {
	*testing.T
	sys   *System
	mode  ConcurrencyMode
	views bool
}

func (e *contractEnv) exec(s *Session, stmt sqlparser.Statement, params ...schema.Value) {
	e.Helper()
	if err := s.Exec(sim.NewCtx(), stmt, params); err != nil {
		e.Fatalf("%s: %v", stmt, err)
	}
}

func (e *contractEnv) query(s *Session, sel *sqlparser.SelectStmt, params ...schema.Value) []schema.Row {
	e.Helper()
	rs, err := s.Query(sim.NewCtx(), sel, params)
	if err != nil {
		e.Fatalf("%s: %v", sel, err)
	}
	return rs.Rows
}

// leafVal reads one leaf row's value two ways — from the base table and
// through the workload join (the view, when views are on) — and requires
// them to agree.
func (e *contractEnv) leafVal(s *Session, id int64) (string, bool) {
	e.Helper()
	rows := e.query(s, selPoint, id)
	if len(rows) == 0 {
		return "", false
	}
	val := rows[0]["Leaf00Val"].(string)
	joined := e.query(s, e.sys.Design.Workload.Selects()[0], val)
	for _, r := range joined {
		if r["Leaf00ID"] == id {
			return val, true
		}
	}
	e.Fatalf("leaf %d = %q in the base table, absent from the join: %v", id, val, joined)
	return "", false
}

func (e *contractEnv) begin(s *Session) {
	e.Helper()
	if err := s.Begin(sim.NewCtx()); err != nil {
		e.Fatal(err)
	}
}

func (e *contractEnv) commit(s *Session) {
	e.Helper()
	if err := s.Commit(sim.NewCtx()); err != nil {
		e.Fatal(err)
	}
}

// activeTxns is the number of snapshots the deployment's mechanism still
// pins (always 0 under hierarchical locking, which has none).
func (e *contractEnv) activeTxns() int {
	switch cc := e.sys.cc.(type) {
	case *mvccControl:
		return cc.srv.ActiveTxns()
	case *occControl:
		return cc.v.ActiveTxns()
	}
	return 0
}

// TestSessionContract holds the one session type to one contract under
// every concurrency mode, with and without views. Run with -cpu 1,2,4.
func TestSessionContract(t *testing.T) {
	modes := []struct {
		name string
		cfg  Config
	}{
		{"hierarchical", Config{}},
		{"mvcc", Config{Concurrency: MVCC, MaxVersions: 16}},
		{"occ", Config{Concurrency: OCC, MaxVersions: 16}},
	}
	cases := []struct {
		name string
		run  func(*contractEnv)
	}{
		{"read-your-writes", contractReadYourWrites},
		{"delete-then-reinsert", contractDeleteThenReinsert},
		{"rollback-discards", contractRollbackDiscards},
		{"statement-error-rolls-back", contractStatementError},
		{"commit-conflict", contractCommitConflict},
		{"concurrent-increments", contractConcurrentIncrements},
		{"cursor-across-close", contractCursorAcrossClose},
	}
	for _, m := range modes {
		for _, views := range []bool{true, false} {
			name := m.name + "/views"
			cfg := m.cfg
			if !views {
				name = m.name + "/noviews"
				cfg.DisableViews = true
			}
			for _, c := range cases {
				t.Run(name+"/"+c.name, func(t *testing.T) {
					c.run(&contractEnv{T: t, sys: fanoutSystem(t, 1, 4, cfg), mode: cfg.Concurrency, views: views})
				})
			}
		}
	}
}

// Inside a transaction a point get, an unlimited scan, an ordered limit scan
// and the workload join all see the transaction's own uncommitted rows; a
// concurrent session sees none of them until commit. (Hierarchical locking
// promises that only up to the first multi-row view update: §VIII-B's phase
// barriers publish the buffer and the protocol has no undo — the documented
// caveat TestAbortAfterBarrierSemantics pins.)
func contractReadYourWrites(e *contractEnv) {
	s, other := e.sys.NewSession(), e.sys.NewSession()
	e.begin(s)
	if !s.InTxn() {
		e.Fatal("InTxn false after Begin")
	}
	if err := s.Begin(sim.NewCtx()); !errors.Is(err, ErrTxnOpen) {
		e.Fatalf("nested Begin = %v, want ErrTxnOpen", err)
	}
	e.exec(s, insLeaf, int64(700), int64(1), "fresh")
	if _, ok := e.leafVal(other, 700); ok {
		e.Fatal("concurrent session saw an uncommitted insert")
	}
	e.exec(s, updLeaf, "fresher", int64(700)) // read-before-write resolves from the buffer
	e.exec(s, updLeaf, "changed", int64(1))

	if v, ok := e.leafVal(s, 700); !ok || v != "fresher" {
		e.Fatalf("own insert+update reads %q, %v; want fresher", v, ok)
	}
	got := map[int64]string{}
	for _, r := range e.query(s, selAll) {
		got[r["Leaf00ID"].(int64)] = r["Leaf00Val"].(string)
	}
	if len(got) != 5 || got[700] != "fresher" || got[1] != "changed" || got[2] != "Leaf00-1" {
		e.Fatalf("scan inside txn = %v, want 5 rows with own writes", got)
	}
	top := e.query(s, selTop)
	if len(top) != 2 || top[0]["Leaf00ID"] != int64(700) || top[1]["Leaf00ID"] != int64(4) {
		e.Fatalf("ordered limit scan inside txn = %v, want own row 700 then 4", top)
	}

	if e.mode != Hierarchical {
		if _, ok := e.leafVal(other, 700); ok {
			e.Fatal("concurrent session saw an uncommitted insert after the updates")
		}
		if v, _ := e.leafVal(other, 1); v != "Leaf00-0" {
			e.Fatalf("concurrent session saw an uncommitted update: %q", v)
		}
	}

	e.commit(s)
	if s.InTxn() {
		e.Fatal("InTxn true after Commit")
	}
	if v, ok := e.leafVal(other, 700); !ok || v != "fresher" {
		e.Fatalf("after commit: %q, %v; want fresher", v, ok)
	}
	if v, _ := e.leafVal(other, 1); v != "changed" {
		e.Fatalf("after commit: %q, want changed", v)
	}
}

// A row deleted and re-inserted by later statements of one transaction
// survives, inside the transaction and after commit (MVCC: per-statement
// checkpoints; hierarchical and OCC: flush-time stamping orders the
// tombstone below the put).
func contractDeleteThenReinsert(e *contractEnv) {
	s := e.sys.NewSession()
	e.begin(s)
	e.exec(s, delLeaf, int64(1))
	if _, ok := e.leafVal(s, 1); ok {
		e.Fatal("own delete not visible inside the transaction")
	}
	e.exec(s, insLeaf, int64(1), int64(1), "reborn")
	if v, ok := e.leafVal(s, 1); !ok || v != "reborn" {
		e.Fatalf("inside txn after delete+reinsert: %q, %v", v, ok)
	}
	e.commit(s)
	if v, ok := e.leafVal(e.sys.NewSession(), 1); !ok || v != "reborn" {
		e.Fatalf("after commit: %q, %v; the tombstone shadowed the re-insert", v, ok)
	}
}

// Rollback leaves no trace: nothing reached the store, the snapshot is
// unpinned, the root lock is free, and a later Commit is a no-op.
func contractRollbackDiscards(e *contractEnv) {
	s := e.sys.NewSession()
	before := normalizeState(dumpState(e.T, e.sys))
	e.begin(s)
	e.exec(s, insLeaf, int64(800), int64(1), "doomed")
	e.exec(s, delLeaf, int64(2))
	if err := s.Rollback(sim.NewCtx()); err != nil {
		e.Fatal(err)
	}
	if s.InTxn() || e.activeTxns() != 0 {
		e.Fatalf("after Rollback: InTxn=%v, %d snapshots pinned", s.InTxn(), e.activeTxns())
	}
	e.commit(s) // no transaction: no-op
	requireSameState(e.T, before, normalizeState(dumpState(e.T, e.sys)))
	e.exec(e.sys.NewSession(), updRoot, "after-rollback", int64(1)) // lock released
}

// A statement error inside a transaction rolls the whole transaction back
// and says so; the session is back in autocommit.
func contractStatementError(e *contractEnv) {
	s := e.sys.NewSession()
	before := normalizeState(dumpState(e.T, e.sys))
	e.begin(s)
	e.exec(s, insLeaf, int64(600), int64(1), "pre-error")
	err := s.Exec(sim.NewCtx(), badInsert, []schema.Value{int64(1)})
	if !errors.Is(err, phoenix.ErrUnknownTable) {
		e.Fatalf("bad statement = %v, want ErrUnknownTable", err)
	}
	if want := "(transaction rolled back)"; !strings.Contains(err.Error(), want) {
		e.Fatalf("error %q does not say %q", err, want)
	}
	if s.InTxn() || e.activeTxns() != 0 {
		e.Fatalf("after statement error: InTxn=%v, %d snapshots pinned", s.InTxn(), e.activeTxns())
	}
	e.commit(s)
	requireSameState(e.T, before, normalizeState(dumpState(e.T, e.sys)))
	// Autocommit again: the next write commits on its own.
	e.exec(s, insLeaf, int64(601), int64(1), "post-error")
	if _, ok := e.leafVal(e.sys.NewSession(), 601); !ok {
		e.Fatal("autocommit write after the rolled-back transaction is missing")
	}
}

// Two transactions write the same root row. Optimistic modes: the second
// committer gets the mode's ErrConflict and leaves nothing visible.
// Hierarchical: the second writer cannot take the root lock and gives up
// with ErrLockTimeout, which rolls its transaction back.
func contractCommitConflict(e *contractEnv) {
	if e.mode == Hierarchical && !e.views {
		e.Skip("the Baseline transformation under hierarchical mode writes without locks")
	}
	a, b := e.sys.NewSession(), e.sys.NewSession()
	e.begin(a)
	e.begin(b)
	e.exec(a, updRoot, "a", int64(1))
	e.sys.Locks.MaxAttempts = 3 // hierarchical: b gives up instead of spinning 100,000 times
	err := b.Exec(sim.NewCtx(), updRoot, []schema.Value{"b", int64(1)})
	switch e.mode {
	case Hierarchical:
		if !errors.Is(err, ErrLockTimeout) || b.InTxn() {
			e.Fatalf("second writer = %v (InTxn %v), want ErrLockTimeout and a rolled-back transaction", err, b.InTxn())
		}
		e.commit(a)
	default:
		if err != nil {
			e.Fatal(err)
		}
		e.commit(a)
		want := error(occ.ErrConflict)
		if e.mode == MVCC {
			want = mvcc.ErrConflict
		}
		if err := b.Commit(sim.NewCtx()); !errors.Is(err, want) {
			e.Fatalf("second committer = %v, want %v", err, want)
		}
		if b.InTxn() || e.activeTxns() != 0 {
			e.Fatalf("after conflict: InTxn=%v, %d snapshots pinned", b.InTxn(), e.activeTxns())
		}
	}
	// The winner's value stands everywhere — base row and every view row.
	fresh := e.sys.NewSession()
	if rows := e.query(fresh, selRoot, int64(1)); len(rows) != 1 || rows[0]["RVal"] != "a" {
		e.Fatalf("root row = %v, want the winner's a", rows)
	}
	joined := e.query(fresh, e.sys.Design.Workload.Selects()[0], "Leaf00-0")
	if len(joined) != 1 || joined[0]["RVal"] != "a" {
		e.Fatalf("join = %v, want the winner's a", joined)
	}
}

// The classic OCC serializability check: goroutines increment one counter
// read-modify-write, each on its own session, retrying validation conflicts;
// no committed increment may be lost.
func contractConcurrentIncrements(e *contractEnv) {
	if e.mode != OCC {
		e.Skip("read-then-write serializability is the OCC claim; MVCC is snapshot isolation, hierarchical locks at the write")
	}
	e.exec(e.sys.NewSession(), updRoot, "0", int64(2))
	const workers, perWorker = 6, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.sys.NewSession()
			for i := 0; i < perWorker; {
				ctx := sim.NewCtx()
				if err := s.Begin(ctx); err != nil {
					errs <- err
					return
				}
				rs, err := s.Query(ctx, selRoot, []schema.Value{int64(2)})
				if err != nil {
					errs <- err
					return
				}
				n, _ := strconv.Atoi(rs.Rows[0]["RVal"].(string))
				if err := s.Exec(ctx, updRoot, []schema.Value{strconv.Itoa(n + 1), int64(2)}); err != nil {
					errs <- err
					return
				}
				switch err := s.Commit(ctx); {
				case err == nil:
					i++
				case !errors.Is(err, occ.ErrConflict):
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		e.Fatal(err)
	}
	rows := e.query(e.sys.NewSession(), selRoot, int64(2))
	if got := rows[0]["RVal"]; got != strconv.Itoa(workers*perWorker) {
		e.Fatalf("counter = %v, want %d (a lost increment is a serializability violation)", got, workers*perWorker)
	}
	if e.activeTxns() != 0 {
		e.Fatalf("%d snapshots still pinned", e.activeTxns())
	}
}

// An autocommit cursor outlives Session.Close: it keeps streaming, and its
// own Close is what settles the read (under MVCC, the snapshot transaction
// wrapped around it). A cursor inside a transaction sees the transaction's
// writes and holds nothing once closed.
func contractCursorAcrossClose(e *contractEnv) {
	s := e.sys.NewSession()
	ctx := sim.NewCtx()
	cur, err := s.QueryStream(ctx, selAll, nil)
	if err != nil {
		e.Fatal(err)
	}
	if !cur.Next(ctx) {
		e.Fatalf("no first row: %v", cur.Err())
	}
	if e.mode == MVCC && e.activeTxns() != 1 {
		e.Fatalf("open MVCC autocommit cursor pins %d snapshots, want 1", e.activeTxns())
	}
	if err := s.Close(ctx); err != nil {
		e.Fatal(err)
	}
	n := 1
	for cur.Next(ctx) {
		n++
	}
	if err := cur.Close(ctx); err != nil || cur.Err() != nil || n != 4 {
		e.Fatalf("cursor across Close: %d rows, err %v, close %v; want 4 clean rows", n, cur.Err(), err)
	}
	if e.activeTxns() != 0 {
		e.Fatalf("%d snapshots pinned after the cursor closed", e.activeTxns())
	}

	e.begin(s)
	e.exec(s, insLeaf, int64(900), int64(1), "streamed")
	cur, err = s.QueryStream(ctx, selAll, nil)
	if err != nil {
		e.Fatal(err)
	}
	var ids []string
	idCol := slices.Index(cur.Columns(), "Leaf00ID")
	for cur.Next(ctx) {
		ids = append(ids, fmt.Sprint(phoenix.DecodeValue(cur.RawValue(idCol))))
	}
	if err := cur.Close(ctx); err != nil || len(ids) != 5 {
		e.Fatalf("in-transaction cursor: rows %v, close %v; want 5 rows incl. own insert", ids, err)
	}
	if err := s.Close(ctx); err != nil {
		e.Fatal(err)
	}
	if s.InTxn() || e.activeTxns() != 0 {
		e.Fatalf("after Close: InTxn=%v, %d snapshots pinned", s.InTxn(), e.activeTxns())
	}
	if _, ok := e.leafVal(e.sys.NewSession(), 900); ok {
		e.Fatal("Close committed the open transaction")
	}
}
