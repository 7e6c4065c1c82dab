package occ

import (
	"errors"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/hbase"
	"synergy/internal/sim"
)

const (
	accounts = "Account"
	balCol   = "bal"
)

// fixture is a validator over one Account table, sharing the store's
// timestamp oracle — the deployment wiring: begin snapshots must order
// consistently against flush-time cell stamps. (SQL-level transaction
// behaviour is synergy.TestSessionContract's job.)
type fixture struct {
	c *hbase.Client
	v *Validator
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	hc := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
	if err := hc.CreateTable(hbase.TableSpec{Name: accounts, MaxVersions: 1000}); err != nil {
		t.Fatal(err)
	}
	return &fixture{c: hc.NewWarmClient(), v: NewValidatorWithOracle(hc.Costs(), hc.NextTS)}
}

// txn is one optimistic transaction the way the SQL layer drives it: writes
// buffer unstamped in a transaction-scoped mutator and join the write set,
// every read goes through the tracking reader over the mutator's
// read-your-writes view.
type txn struct {
	f   *fixture
	tx  *Tx
	mut *hbase.BufferedMutator
	rd  hbase.Reader
}

func (f *fixture) begin(ctx *sim.Ctx) *txn {
	tx := f.v.Begin(ctx)
	mut := f.c.NewBufferedMutator(0)
	return &txn{f: f, tx: tx, mut: mut, rd: tx.Track(mut.View())}
}

// update is a read-modify-write of one balance: the read-before-write joins
// the read set, as an UPDATE's does.
func (x *txn) update(t *testing.T, ctx *sim.Ctx, id, bal string) {
	t.Helper()
	if _, err := x.rd.Get(ctx, accounts, id, x.tx.ReadOpts()); err != nil {
		t.Fatal(err)
	}
	if err := x.mut.Put(ctx, accounts, id, []hbase.Cell{{Qualifier: balCol, Value: []byte(bal)}}); err != nil {
		t.Fatal(err)
	}
	x.tx.RecordWrite(accounts, id)
}

// commit validates, flushes and finalizes; a conflict discards the buffer.
func (x *txn) commit(ctx *sim.Ctx) error {
	if err := x.f.v.Validate(ctx, x.tx, x.mut.StampPending); err != nil {
		x.mut.Discard()
		return err
	}
	if err := x.mut.Flush(ctx); err != nil {
		x.f.v.AbandonFlush(ctx, x.tx)
		return err
	}
	x.f.v.Finalize(ctx, x.tx)
	return nil
}

// set commits one balance as its own transaction.
func (f *fixture) set(t *testing.T, id, bal string) {
	t.Helper()
	ctx := sim.NewCtx()
	x := f.begin(ctx)
	x.update(t, ctx, id, bal)
	if err := x.commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// balance reads one balance from a fresh snapshot.
func (f *fixture) balance(t *testing.T, id string) string {
	t.Helper()
	ctx := sim.NewCtx()
	_, ro := f.v.SnapshotRead(ctx)
	row, err := f.c.Get(ctx, accounts, id, ro)
	if err != nil {
		t.Fatal(err)
	}
	return string(row.Cells.Get(balCol))
}

// TestBackwardValidationPointConflict: a transaction that read a row another
// transaction wrote and committed while it ran fails validation; disjoint
// transactions both commit.
func TestBackwardValidationPointConflict(t *testing.T) {
	f := newFixture(t)
	f.set(t, "1", "100")
	f.set(t, "2", "200")
	ctx := sim.NewCtx()

	// t1 reads (and writes) row 1; a concurrent transaction commits a write
	// to row 1 first.
	t1 := f.begin(ctx)
	t1.update(t, ctx, "1", "111")
	f.set(t, "1", "150")
	if err := t1.commit(ctx); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit after overlapping committed write = %v, want ErrConflict", err)
	}
	if bal := f.balance(t, "1"); bal != "150" {
		t.Fatalf("bal = %q, want the committed writer's 150 (loser flushed nothing)", bal)
	}

	// Disjoint rows: both commit.
	t2 := f.begin(ctx)
	t2.update(t, ctx, "2", "222")
	f.set(t, "1", "151")
	if err := t2.commit(ctx); err != nil {
		t.Fatalf("disjoint commit: %v", err)
	}
	if bal := f.balance(t, "2"); bal != "222" {
		t.Fatalf("bal = %q, want 222", bal)
	}
}

// TestScanRangeCatchesPhantom: a transaction that scanned a range conflicts
// with a concurrently committed insert into that range, even though the scan
// never returned the inserted row — the read set records ranges, not
// returned keys.
func TestScanRangeCatchesPhantom(t *testing.T) {
	f := newFixture(t)
	f.set(t, "1", "100")
	ctx := sim.NewCtx()

	t1 := f.begin(ctx)
	sc, err := t1.rd.OpenScan(ctx, accounts, hbase.ScanSpec{Read: t1.tx.ReadOpts()})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := sc.Next(ctx); !ok {
			break
		}
	}
	sc.Close(ctx)
	// t1's write depends on the scan; give it one.
	t1.update(t, ctx, "1", "sum-holder")

	// A concurrent transaction inserts a row into the scanned range and
	// commits.
	f.set(t, "9", "900")

	if err := t1.commit(ctx); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit after phantom insert = %v, want ErrConflict", err)
	}
}

// TestFinishedTransactionRejected: an aborted transaction is recorded by the
// validator and cannot validate afterwards.
func TestFinishedTransactionRejected(t *testing.T) {
	v := NewValidator(nil)
	ctx := sim.NewCtx()
	tx := v.Begin(ctx)
	tx.RecordWrite("T", "k")
	v.Abort(ctx, tx)
	if st := v.Stats(); st.Aborts != 1 || v.ActiveTxns() != 0 {
		t.Fatalf("after abort: %d aborts, %d active; want 1, 0", st.Aborts, v.ActiveTxns())
	}
	if err := v.Validate(ctx, tx, nil); !errors.Is(err, ErrFinished) {
		t.Fatalf("validate after abort = %v, want ErrFinished", err)
	}
}

// TestSnapshotHorizonExcludesInFlightFlush pins the flush window for snapshot
// reads: a snapshot taken while a validated commit is still flushing sits at
// its own begin timestamp and hides the commit's stamp block (every one of its
// cells) and nothing else; once the flush finalizes, the next one admits it.
func TestSnapshotHorizonExcludesInFlightFlush(t *testing.T) {
	v := NewValidator(nil) // private counter: timestamps are 1, 2, 3, ...
	ctx := sim.NewCtx()

	tx := v.Begin(ctx) // begin ts 1
	tx.RecordWrite("T", "k")
	var stamps []int64
	if err := v.Validate(ctx, tx, func(next func() int64) int { stamps = append(stamps, next()); return 1 }); err != nil { // watermark 2, stamp 3
		t.Fatal(err)
	}
	snap, during := v.SnapshotRead(ctx) // ts 4
	if snap != 4 || !during.Excluded(stamps[0]) || during.Excluded(1) {
		t.Fatalf("snapshot during flush = %d hiding cell %d: %v, cell 1: %v; want 4 hiding the in-flight cell only",
			snap, stamps[0], during.Excluded(stamps[0]), during.Excluded(1))
	}
	v.Finalize(ctx, tx)
	snap, after := v.SnapshotRead(ctx) // ts 5, nothing in flight
	if snap != 5 || after.Excluded(stamps[0]) {
		t.Fatalf("snapshot after finalize = %d hiding cell %d: %v; want 5 admitting it", snap, stamps[0], after.Excluded(stamps[0]))
	}
}

// TestCommittedWriteSetsPruned: write sets are retained only while a
// transaction that could conflict with them is active.
func TestCommittedWriteSetsPruned(t *testing.T) {
	v := NewValidator(nil)
	ctx := sim.NewCtx()
	for i := 0; i < 100; i++ {
		tx := v.Begin(ctx)
		tx.RecordWrite("T", "k")
		if err := v.Validate(ctx, tx, nil); err != nil {
			t.Fatal(err)
		}
		v.Finalize(ctx, tx)
	}
	if st := v.Stats(); st.RetainedWriteSets != 0 {
		t.Fatalf("retained write sets = %d with no active transactions, want 0", st.RetainedWriteSets)
	}

	// An active reader pins the records committed after its snapshot.
	reader := v.Begin(ctx)
	for i := 0; i < 5; i++ {
		tx := v.Begin(ctx)
		tx.RecordWrite("T", "k")
		if err := v.Validate(ctx, tx, nil); err != nil {
			t.Fatal(err)
		}
		v.Finalize(ctx, tx)
	}
	if st := v.Stats(); st.RetainedWriteSets != 5 {
		t.Fatalf("retained write sets = %d with an active reader, want 5", st.RetainedWriteSets)
	}
	v.Abort(ctx, reader)
}

// TestBeginDuringFlushWindowConflicts is the GC-horizon regression: a
// commit's write set must survive garbage collection while its flush is in
// flight, because a transaction that begins inside the flush window hides
// the commit from its snapshot and must conflict with it at validation —
// pruning the record would let the stale read commit a lost update.
func TestBeginDuringFlushWindowConflicts(t *testing.T) {
	v := NewValidator(nil)
	ctx := sim.NewCtx()

	t1 := v.Begin(ctx)
	t1.RecordWrite("T", "x")
	if err := v.Validate(ctx, t1, nil); err != nil { // validated, flush in flight
		t.Fatal(err)
	}
	t2 := v.Begin(ctx) // t1's stamp block hidden from the snapshot
	t2.rs.AddPoint("T", "x")
	t2.RecordWrite("T", "x")
	v.Finalize(ctx, t1)
	if err := v.Validate(ctx, t2, nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("validate = %v, want ErrConflict: t2 read x below t1's watermark (lost update)", err)
	}
}

// TestStampsReservedAtValidationKeepCommitsAtomic pins the fix for the
// stamp-straddling hazard: because a commit's cell timestamps are reserved
// inside the validation critical section, another transaction's watermark
// (or a snapshot) can never land between them. A snapshot taken while a
// later commit flushes therefore sees ALL of an earlier finalized commit's
// cells — under flush-time stamping it could see none (or part) of them
// while validation skipped the record as "older than the snapshot": an
// unvalidated stale read.
func TestStampsReservedAtValidationKeepCommitsAtomic(t *testing.T) {
	v := NewValidator(nil) // private counter: timestamps are 1, 2, 3, ...
	ctx := sim.NewCtx()

	// A validates with two pending mutations: watermark 2, stamps 3 and 4.
	a := v.Begin(ctx) // ts 1
	a.RecordWrite("T", "x")
	var aStamps []int64
	if err := v.Validate(ctx, a, func(next func() int64) int {
		aStamps = append(aStamps, next(), next())
		return len(aStamps)
	}); err != nil {
		t.Fatal(err)
	}
	v.Finalize(ctx, a)

	// B validates next (watermark 6 after its begin 5) and is mid-flush
	// when C begins.
	b := v.Begin(ctx)
	b.RecordWrite("T", "y")
	if err := v.Validate(ctx, b, nil); err != nil {
		t.Fatal(err)
	}
	c := v.Begin(ctx)
	for _, ts := range aStamps {
		if ts > c.Snapshot() || c.ReadOpts().Excluded(ts) {
			t.Fatalf("snapshot %d (B in flight) excludes finalized commit A's cell at %d — torn/invisible committed data",
				c.Snapshot(), ts)
		}
	}
	v.Finalize(ctx, b)
	v.Abort(ctx, c)
}

// TestBeginDuringOtherFlushSeesOwnCommit is the disjoint-keys regression: a
// client that commits x and begins again while another client's commit of
// y is still flushing must see its own commit and validate a read-modify-
// write of x. A horizon lowered to the in-flight watermark hid the client's
// own commit and failed the validation; the snapshot now hides only the
// in-flight commit's stamp block.
func TestBeginDuringOtherFlushSeesOwnCommit(t *testing.T) {
	v := NewValidator(nil) // private counter: timestamps are 1, 2, 3, ...
	ctx := sim.NewCtx()
	stamp := func(stamps *[]int64) func(func() int64) int {
		return func(next func() int64) int { *stamps = append(*stamps, next()); return 1 }
	}

	other := v.Begin(ctx) // ts 1
	other.RecordWrite("T", "y")
	own := v.Begin(ctx) // ts 2
	own.RecordWrite("T", "x")
	var otherStamps, ownStamps []int64
	if err := v.Validate(ctx, other, stamp(&otherStamps)); err != nil { // watermark 3, stamp 4
		t.Fatal(err)
	}
	if err := v.Validate(ctx, own, stamp(&ownStamps)); err != nil { // watermark 5, stamp 6
		t.Fatal(err)
	}
	v.Finalize(ctx, own) // other is still flushing

	next := v.Begin(ctx)
	ro := next.ReadOpts()
	if ro.Excluded(ownStamps[0]) {
		t.Fatalf("own finalized commit's cell %d hidden from the next snapshot %d", ownStamps[0], next.Snapshot())
	}
	if !ro.Excluded(otherStamps[0]) {
		t.Fatalf("in-flight commit's cell %d visible to snapshot %d", otherStamps[0], next.Snapshot())
	}
	next.rs.AddPoint("T", "x")
	next.RecordWrite("T", "x")
	v.Finalize(ctx, other)
	if err := v.Validate(ctx, next, nil); err != nil {
		t.Fatalf("validate = %v, want success: x's only commit was visible to the snapshot", err)
	}
}

// TestSnapshotReadDuringOtherFlushSeesOwnCommit is the same regression for an
// autocommit read, which takes an unregistered snapshot: a client that
// commits x and reads while another client's commit of y is still flushing
// must see its own x. A horizon lowered to the in-flight watermark hid it.
func TestSnapshotReadDuringOtherFlushSeesOwnCommit(t *testing.T) {
	v := NewValidator(nil) // private counter: timestamps are 1, 2, 3, ...
	ctx := sim.NewCtx()
	stamp := func(stamps *[]int64) func(func() int64) int {
		return func(next func() int64) int { *stamps = append(*stamps, next()); return 1 }
	}

	other := v.Begin(ctx) // ts 1
	other.RecordWrite("T", "y")
	own := v.Begin(ctx) // ts 2
	own.RecordWrite("T", "x")
	var otherStamps, ownStamps []int64
	if err := v.Validate(ctx, other, stamp(&otherStamps)); err != nil { // watermark 3, stamp 4
		t.Fatal(err)
	}
	if err := v.Validate(ctx, own, stamp(&ownStamps)); err != nil { // watermark 5, stamp 6
		t.Fatal(err)
	}
	v.Finalize(ctx, own) // other is still flushing

	snap, ro := v.SnapshotRead(ctx)
	if ro.Excluded(ownStamps[0]) {
		t.Fatalf("own finalized commit's cell %d hidden from the snapshot read %d", ownStamps[0], snap)
	}
	if !ro.Excluded(otherStamps[0]) {
		t.Fatalf("in-flight commit's cell %d visible to the snapshot read %d", otherStamps[0], snap)
	}
	if v.ActiveTxns() != 0 {
		t.Fatalf("%d active transactions after finalize and a snapshot read, want 0 (other only flushes)", v.ActiveTxns())
	}
	v.Finalize(ctx, other)
}

// TestInFlightCommitConflictsWithRange: a commit that was flushing when a
// transaction began is below its horizon but missed by its snapshot, so a
// scan range holding one of its keys conflicts at validation.
func TestInFlightCommitConflictsWithRange(t *testing.T) {
	v := NewValidator(nil)
	ctx := sim.NewCtx()

	w := v.Begin(ctx)
	w.RecordWrite("T", "x1")
	if err := v.Validate(ctx, w, nil); err != nil { // flush in flight
		t.Fatal(err)
	}
	reader := v.Begin(ctx)
	if reader.Snapshot() <= w.commitStart {
		t.Fatalf("snapshot %d at or below the in-flight watermark %d: the horizon was lowered", reader.Snapshot(), w.commitStart)
	}
	reader.rs.AddRange(Range{Table: "T", Prefix: "x"})
	v.Finalize(ctx, w)
	if err := v.Validate(ctx, reader, nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("validate = %v, want ErrConflict: the scan of x* missed the in-flight commit of x1", err)
	}
}

// TestRangeContains covers the read-set range matcher directly.
func TestRangeContains(t *testing.T) {
	cases := []struct {
		r    Range
		key  string
		want bool
	}{
		{Range{Table: "T", Prefix: "ab"}, "abc", true},
		{Range{Table: "T", Prefix: "ab"}, "b", false},
		{Range{Table: "T", Start: "b", Stop: "d"}, "c", true},
		{Range{Table: "T", Start: "b", Stop: "d"}, "d", false},
		{Range{Table: "T", Start: "b", Stop: "d"}, "a", false},
		{Range{Table: "T"}, "anything", true}, // full scan
		{Range{Table: "T", Start: "b"}, "zz", true},
	}
	for _, c := range cases {
		if got := c.r.contains(c.key); got != c.want {
			t.Errorf("%+v contains %q = %v, want %v", c.r, c.key, got, c.want)
		}
	}
}
