package mvcc

import (
	"errors"
	"sync"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/hbase"
	"synergy/internal/sim"
)

const (
	accounts = "Account"
	balCol   = "bal"
)

// fixture is a transaction server over one Account table, written and read
// through the store client the way the SQL layer does it: cells stamped with
// the transaction's write pointer, rows recorded in its write set, reads
// filtered by its snapshot. (SQL-level transaction behaviour is
// synergy.TestSessionContract's job.)
type fixture struct {
	c   *hbase.Client
	srv *Server
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	hc := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
	if err := hc.CreateTable(hbase.TableSpec{Name: accounts, MaxVersions: 1000}); err != nil {
		t.Fatal(err)
	}
	return &fixture{c: hc.NewWarmClient(), srv: NewServer(hc.Costs())}
}

// put writes a balance inside tx.
func (f *fixture) put(t *testing.T, tx *Tx, id, bal string) {
	t.Helper()
	cell := hbase.Cell{Qualifier: balCol, Value: []byte(bal), TS: tx.ID()}
	if err := f.c.Put(sim.NewCtx(), accounts, id, []hbase.Cell{cell}); err != nil {
		t.Fatal(err)
	}
	tx.RecordWrite(accounts, id)
}

// get reads a balance at tx's snapshot.
func (f *fixture) get(t *testing.T, tx *Tx, id string) (string, bool) {
	t.Helper()
	row, err := f.c.Get(sim.NewCtx(), accounts, id, tx.ReadOpts())
	if err != nil {
		t.Fatal(err)
	}
	v := row.Cells.Get(balCol)
	return string(v), v != nil
}

// set commits one balance as its own transaction.
func (f *fixture) set(t *testing.T, id, bal string) {
	t.Helper()
	ctx := sim.NewCtx()
	tx := f.srv.Begin(ctx)
	f.put(t, tx, id, bal)
	if err := f.srv.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
}

// balance reads one balance from a fresh snapshot.
func (f *fixture) balance(t *testing.T, id string) (string, bool) {
	t.Helper()
	ctx := sim.NewCtx()
	tx := f.srv.Begin(ctx)
	defer f.srv.Commit(ctx, tx)
	return f.get(t, tx, id)
}

func TestCommittedWritesVisible(t *testing.T) {
	f := newFixture(t)
	f.set(t, "1", "100")
	if bal, ok := f.balance(t, "1"); !ok || bal != "100" {
		t.Fatalf("balance = %q, %v; want 100, true", bal, ok)
	}
}

func TestAbortedWritesInvisible(t *testing.T) {
	f := newFixture(t)
	f.set(t, "1", "100")
	ctx := sim.NewCtx()
	tx := f.srv.Begin(ctx)
	f.put(t, tx, "1", "999")
	f.srv.Abort(ctx, tx)
	if bal, _ := f.balance(t, "1"); bal != "100" {
		t.Fatalf("aborted write visible: bal = %q", bal)
	}
}

func TestSnapshotIsolationAgainstInFlight(t *testing.T) {
	f := newFixture(t)
	f.set(t, "1", "100")
	ctx := sim.NewCtx()

	// Writer begins and writes but does not commit yet.
	writer := f.srv.Begin(ctx)
	f.put(t, writer, "1", "50")

	// Reader beginning now must not see the in-flight write.
	reader := f.srv.Begin(ctx)
	if bal, _ := f.get(t, reader, "1"); bal != "100" {
		t.Fatalf("reader saw uncommitted write: %q", bal)
	}

	// Even after the writer commits, the reader's snapshot is stable.
	if err := f.srv.Commit(ctx, writer); err != nil {
		t.Fatal(err)
	}
	if bal, _ := f.get(t, reader, "1"); bal != "100" {
		t.Fatalf("snapshot unstable after concurrent commit: %q", bal)
	}
	f.srv.Commit(ctx, reader)

	// A fresh transaction sees the committed value.
	if bal, _ := f.balance(t, "1"); bal != "50" {
		t.Fatalf("new snapshot bal = %q, want 50", bal)
	}
}

func TestOwnWritesVisible(t *testing.T) {
	f := newFixture(t)
	f.set(t, "1", "100")
	ctx := sim.NewCtx()
	tx := f.srv.Begin(ctx)
	f.put(t, tx, "1", "42")
	if bal, _ := f.get(t, tx, "1"); bal != "42" {
		t.Fatalf("own write invisible: %q", bal)
	}
	f.srv.Commit(ctx, tx)
}

func TestWriteWriteConflictAborts(t *testing.T) {
	f := newFixture(t)
	f.set(t, "1", "100")
	ctx := sim.NewCtx()

	t1 := f.srv.Begin(ctx)
	t2 := f.srv.Begin(ctx)
	f.put(t, t1, "1", "10")
	f.put(t, t2, "1", "20")
	if err := f.srv.Commit(ctx, t1); err != nil {
		t.Fatalf("first committer should win: %v", err)
	}
	if err := f.srv.Commit(ctx, t2); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer error = %v, want ErrConflict", err)
	}
	// The losing write must be invisible.
	if bal, _ := f.balance(t, "1"); bal != "10" {
		t.Fatalf("bal = %q, want 10", bal)
	}
	if st := f.srv.Stats(); st.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", st.Conflicts)
	}
}

func TestNoConflictOnDisjointRows(t *testing.T) {
	f := newFixture(t)
	f.set(t, "1", "100")
	f.set(t, "2", "200")
	ctx := sim.NewCtx()
	t1 := f.srv.Begin(ctx)
	t2 := f.srv.Begin(ctx)
	f.put(t, t1, "1", "1")
	f.put(t, t2, "2", "2")
	if err := f.srv.Commit(ctx, t1); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Commit(ctx, t2); err != nil {
		t.Fatalf("disjoint rows must not conflict: %v", err)
	}
}

// TestPerStatementOverheadMatchesPaper pins what a statement pays the
// transaction server: one Begin and one Commit.
func TestPerStatementOverheadMatchesPaper(t *testing.T) {
	srv := NewServer(nil)
	ctx := sim.NewCtx()
	if err := srv.Commit(ctx, srv.Begin(ctx)); err != nil {
		t.Fatal(err)
	}
	// §IX-D4: "MVCC adds an overhead of 800-900 ms to each statement".
	lo, hi := sim.FromMillis(800), sim.FromMillis(950)
	if got := ctx.Elapsed(); got < lo || got > hi {
		t.Fatalf("per-statement elapsed = %v, want within [%v, %v]", got, lo, hi)
	}
}

func TestDeleteUnderMVCC(t *testing.T) {
	f := newFixture(t)
	f.set(t, "7", "70")
	ctx := sim.NewCtx()
	tx := f.srv.Begin(ctx)
	if err := f.c.DeleteAt(ctx, accounts, "7", tx.ID()); err != nil {
		t.Fatal(err)
	}
	tx.RecordWrite(accounts, "7")
	if err := f.srv.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.balance(t, "7"); ok {
		t.Fatal("row visible after MVCC delete")
	}
}

func TestConcurrentTransactionsRace(t *testing.T) {
	f := newFixture(t)
	ids := []string{"1", "2", "3", "4", "5", "6", "7", "8"}
	for _, id := range ids {
		f.set(t, id, "0")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ctx := sim.NewCtx()
				tx := f.srv.Begin(ctx)
				cell := hbase.Cell{Qualifier: balCol, Value: []byte{byte('0' + i)}, TS: tx.ID()}
				if err := f.c.Put(ctx, accounts, id, []hbase.Cell{cell}); err != nil {
					errs <- err
					return
				}
				tx.RecordWrite(accounts, id)
				if err := f.srv.Commit(ctx, tx); err != nil && !errors.Is(err, ErrConflict) {
					errs <- err
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := f.srv.Stats(); st.Commits == 0 {
		t.Fatal("no transactions committed")
	}
}

func TestCommitTwiceRejected(t *testing.T) {
	srv := NewServer(nil)
	ctx := sim.NewCtx()
	tx := srv.Begin(ctx)
	if err := srv.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Commit(ctx, tx); !errors.Is(err, ErrFinished) {
		t.Fatalf("second commit = %v, want ErrFinished", err)
	}
}
