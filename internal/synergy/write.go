package synergy

import (
	"errors"
	"fmt"
	"slices"
	"unsafe"

	"synergy/internal/changefeed"
	"synergy/internal/core"
	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// dirtyOn and dirtyOff are the marker values of the dirty-read protocol
// (§VIII-B): rows are marked before a multi-row view update and un-marked
// after; concurrent scans that observe a mark restart.
var (
	dirtyOn  = []byte("1")
	dirtyOff = []byte("0")
)

// writeParts is a write statement bound to its parameters — the table, the
// written row's key and the statement's cells in qualifier order (see
// phoenix.Write) — with the kind its plan gives it. The base write and every
// view's maintenance work from the same cells.
type writeParts struct {
	*phoenix.Write
	kind core.WriteKind
}

// PreparedWrite is a write statement compiled for one System: what running it
// takes that no parameter changes — its shape (phoenix.WriteShape: the table,
// the column of each value), its write plan (the lock chain and the views to
// maintain, fixed once New has built the Design) and its text as its WAL
// records carry it. Session.PrepareWrite builds one and Session.ExecPrepared
// runs it; Session.Exec, System.ExecTxn and a slave's replay prepare each
// statement per call, so every write runs this one path. A statement that does
// not compile prepares all the same and fails where it binds, as it always
// has: after the transaction layer logged it. It is immutable and may be run
// by any session on the System.
type PreparedWrite struct {
	sys   *System
	shape *phoenix.WriteShape
	plan  *core.WritePlan // nil in a deployment without views
	err   error           // why the statement does not compile
	// sql is the statement's printed text as a JSON string (appendJSONString),
	// in a deployment with a transaction layer to log it.
	sql []byte
}

func (sys *System) prepareWrite(stmt sqlparser.Statement) *PreparedWrite {
	pw := &PreparedWrite{sys: sys}
	if sys.Txn != nil {
		pw.sql = appendJSONString(nil, stmt.String())
	}
	if pw.shape, pw.err = sys.Engine.ShapeWrite(stmt); pw.err == nil && !sys.cfg.DisableViews {
		pw.plan, pw.err = core.PlanWrite(sys.Design, stmt)
	}
	return pw
}

func (sys *System) prepareWrites(stmts []sqlparser.Statement) []*PreparedWrite {
	writes := make([]*PreparedWrite, len(stmts))
	for i, stmt := range stmts {
		writes[i] = sys.prepareWrite(stmt)
	}
	return writes
}

// Tx is the write-pipeline state of one in-flight transaction; whatever
// differs by concurrency mechanism it asks its control (ctl). A transaction
// owns one BufferedMutator for its whole lifetime: every statement emits
// into it, reads consult its read-your-writes overlay, the maintenance
// protocol's phase barriers flush it mid-flight, Commit flushes it once (one
// batch-RPC round, one WAL sync per touched region) and then frees the locks
// through it in one more round, and Abort discards it with nothing buffered
// persisted. The mutator and every list the transaction builds and drops are
// its scratch's (txScratch), which it holds from begin until Commit or Abort.
// Config.SequentialWrites makes that mutator the paper's client — it flushes
// at every mutation (so each lock frees in an RPC of its own), its view reads
// a row per RPC and an update locates one view at a time (eager) — and the
// rest of the procedure is the same code.
type Tx struct {
	sys  *System
	opts phoenix.WriteOpts
	// s is the transaction's working storage, nil once it has finished.
	s *txScratch
	// eager: the mutator flushes at 1, so what a statement emits is published
	// before the commit. Such a transaction cannot defer a fresh root row's
	// lock entry into the commit flush: it self-acquires in step 1, which
	// creates the entry (executeWriteBody). It is the paper's client, which
	// also locates an update's views one at a time (locateAll).
	eager bool
	// ctl is nil for the changefeed applier's writes: no locks, no snapshot,
	// no read set. A mechanism's begin keeps the value it returns in
	// controls, so a transaction's control is not an allocation of its own.
	ctl      txnControl
	controls struct {
		mvcc mvccControl
		occ  occControl
	}

	// deltas are view-maintenance actions deferred to the changefeed (async
	// views): captured during statement execution, published only on commit,
	// dropped on abort. The changefeed applies them after the commit, so
	// nothing they reach is the scratch's.
	deltas []viewDelta
	// logged is the slave and id under which the transaction layer logged
	// the transaction's statements before running it (zero for any other
	// transaction); its commit record goes in the commit tail.
	logged loggedTxn
	// landed reports that the commit flush published the writes.
	landed bool
	done   bool
	// releaseCtx and logCtx are the branches of the commit tail: the lock
	// release beside the transaction layer's record.
	releaseCtx, logCtx sim.Ctx
	// locate is the scanner every index-located maintenance read of the
	// transaction opens in, one after another (locateViewRows).
	locate hbase.Scanner
}

// txScratch is the working storage of a write unit: what a transaction — or
// a changefeed apply, a one-statement unit of its own — builds and drops
// before it ends. beginTx takes one from the System's free list (takeScratch)
// and Commit or Abort hands it back reset (recycle), so the next unit
// allocates none of it once the lists have grown. The ownership rule: nothing
// may keep what a scratch holds past the Commit or Abort that hands it back.
// What reaches the store is copied there — a region copies the cells of a
// mutation as it applies it, the overlay those of one it buffers — and the
// keys and values a write makes are never the scratch's, for a memstore keeps
// them; a delta for the changefeed keeps a copy of its statement.
type txScratch struct {
	mutator *hbase.BufferedMutator
	// write is what the statements' cell lists and reads are cut from.
	write phoenix.WriteScratch
	// locks are the root locks the transaction holds, in the order taken.
	locks []lockRef
	// deferred are fresh-root-insert lock entries riding the commit flush
	// as conditional batch entries instead of being self-acquired (see
	// LockManager.EnsureEntryDeferred). While a ref is deferred the root
	// row is still unpublished; any phase barrier promotes all deferred
	// refs to held locks before it flushes.
	deferred []lockRef
	// marks are dirty marks a phase barrier has flushed but the protocol
	// has not yet un-marked; Abort un-marks them so an aborted transaction
	// never leaves rows permanently dirty (readers would restart forever).
	// spareMarks is where a phase records the next marks, swapped with marks
	// at its barrier.
	marks, spareMarks []markRef
	freed             []bool // releaseLocks' outcomes
	// An update's maintenance: the views with located rows, and the rows and
	// index keys of them all, back to back; the forks of its locates.
	views []viewRows
	rows  []viewRow
	keys  []string
	forks []sim.Ctx
	// memo is an insert's parent rows, for the statement (readParent).
	memo []parentRow
}

// maxSpareScratch bounds the System's free list of scratches: about the
// write units that run at once.
const maxSpareScratch = 8

// takeScratch returns a reset scratch, from the free list when it has one.
func (sys *System) takeScratch() *txScratch {
	sys.scratchMu.Lock()
	var s *txScratch
	if n := len(sys.spare); n > 0 {
		s, sys.spare[n-1] = sys.spare[n-1], nil
		sys.spare = sys.spare[:n-1]
	}
	sys.scratchMu.Unlock()
	if s == nil {
		// The paper's client ships every mutation by itself; everyone else's
		// ships at a barrier.
		flushAt := 0
		if sys.eagerWrites() {
			flushAt = 1
		}
		s = &txScratch{mutator: sys.Engine.Client().NewBufferedMutator(flushAt)}
	}
	return s
}

// recycle resets s and puts it on the free list, unless the list is full.
func (sys *System) recycle(s *txScratch) {
	s.reset()
	sys.scratchMu.Lock()
	if len(sys.spare) < maxSpareScratch {
		sys.spare = append(sys.spare, s)
	}
	sys.scratchMu.Unlock()
}

// eagerWrites reports whether a transaction's mutator flushes at every
// mutation: the paper's client (Config.SequentialWrites), where the mechanism
// lets writes reach the store before the commit.
func (sys *System) eagerWrites() bool {
	return sys.cfg.SequentialWrites && sys.cc.flushesEarly()
}

// reset empties s for its next unit: nothing pending in the mutator, and no
// list holding a key, a cell or a fork — each cleared to its capacity, or
// dropped when that is above maxScratchBytes.
func (s *txScratch) reset() {
	s.mutator.Reset()
	s.write.Reset()
	s.locks, s.deferred = emptied(s.locks), emptied(s.deferred)
	s.marks, s.spareMarks = emptied(s.marks), emptied(s.spareMarks)
	s.freed = emptied(s.freed)
	s.views, s.rows, s.keys = emptied(s.views), emptied(s.rows), emptied(s.keys)
	s.forks = emptied(s.forks)
	s.memo = emptied(s.memo)
}

// maxScratchBytes is the most bytes a reset scratch keeps of any one list:
// one large transaction pins nothing for the next.
const maxScratchBytes = 16 << 10

// emptied clears l to its capacity and returns it empty, or nil when it is
// above maxScratchBytes.
func emptied[T any](l []T) []T {
	var v T
	if cap(l)*int(unsafe.Sizeof(v)) > maxScratchBytes {
		return nil
	}
	clear(l[:cap(l)])
	return l[:0]
}

// loggedTxn names a transaction a slave WAL-logged before running it.
type loggedTxn struct {
	slave *Slave
	txid  int64
}

// viewDelta is one deferred view-maintenance action: enough to replay the
// §VII construction procedure for one view from the background applier.
type viewDelta struct {
	view   string
	action core.ViewAction
	parts  writeParts
}

type lockRef struct{ root, key string }

// markRef locates one flushed dirty mark: a view row or a covered
// view-index row.
type markRef struct{ table, key string }

// BeginTx opens a write transaction on the local system. With a transaction
// layer the caller is normally that layer, which WAL-logs the statements
// around it; MVCC transactions need no logging.
func (sys *System) BeginTx(ctx *sim.Ctx) *Tx {
	return sys.beginTx(ctx, false, nil)
}

// beginTx is BeginTx; an exclusive transaction runs alone (see ExecuteTxn).
// strs is the block of the session the transaction runs for, which its
// statements cut their transient keys from (nil allocates them).
func (sys *System) beginTx(ctx *sim.Ctx, exclusive bool, strs *phoenix.StringBlock) *Tx {
	tx := &Tx{sys: sys, s: sys.takeScratch(), eager: sys.eagerWrites()}
	tx.opts.Mutator, tx.opts.Scratch, tx.opts.Strings = tx.s.mutator, &tx.s.write, strs
	tx.ctl = sys.cc.begin(ctx, tx, exclusive)
	return tx
}

// finish ends the transaction's hold on its storage: the scratch goes back to
// the System, and the options that lent it are dropped.
func (tx *Tx) finish() {
	tx.sys.recycle(tx.s)
	tx.s, tx.opts = nil, phoenix.WriteOpts{}
}

// locking reports whether tx runs the §VIII root-lock and dirty-mark protocol.
func (tx *Tx) locking() bool { return tx.ctl != nil && tx.ctl.locks() }

// Exec runs one write statement inside the transaction. On error the
// caller must Abort — the statement's buffered mutations are still in the
// transaction buffer and must not survive. Each statement first passes the
// mechanism's statement boundary (MVCC checkpoints before all but the first).
func (tx *Tx) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	args, err := schema.ArgsOf(params)
	if err != nil {
		return err
	}
	return tx.exec(ctx, tx.sys.prepareWrite(stmt), args)
}

// exec is Exec for a prepared statement.
func (tx *Tx) exec(ctx *sim.Ctx, pw *PreparedWrite, params []schema.Arg) error {
	if tx.done {
		return fmt.Errorf("synergy: transaction already finished")
	}
	tx.ctl.statement(ctx, tx)
	return tx.sys.executeWriteBody(ctx, tx, pw, params)
}

// Query runs a SELECT inside the transaction at the deployment's configured
// freshness contract, as a Session holding tx does. See open.
func (tx *Tx) Query(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (*phoenix.ResultSet, error) {
	s := Session{sys: tx.sys, reads: tx.sys.cfg.AsyncReads, tx: tx}
	return s.Query(ctx, sel, params)
}

// open runs a prepared SELECT inside the transaction as a cursor. The
// statement reads its view-based rewrite through the write path's reader and
// read options (tx.opts), so it sees the transaction's own buffered writes
// and, under OCC, its ranges and keys join the read set. The ReadWatermark
// gate waits to the transaction's read point, not the arrival clock: a
// snapshot cannot move forward, so deltas applied beyond it would be
// invisible anyway. The cursor holds no transaction state: Close only
// releases the scanner. Close it before the next statement runs, which may
// advance the read point (MVCC's checkpoint).
func (tx *Tx) open(ctx *sim.Ctx, p *Prepared, params []schema.Arg, reads ViewReadMode) (phoenix.RowCursor, error) {
	if tx.done {
		return nil, fmt.Errorf("synergy: transaction already finished")
	}
	sys := tx.sys
	readTS := tx.ctl.readPoint(tx)
	if reads == ReadWatermark {
		for _, v := range p.async {
			sys.Feed.WaitWatermark(ctx, v, readTS)
		}
	}
	sys.countStale(ctx, p, readTS, reads)
	return p.plan.Open(ctx, params, phoenix.QueryOpts{Read: tx.opts.Read, Reader: sys.Engine.Reader(tx.opts), DirtyCheck: tx.locking(), Strings: tx.opts.Strings})
}

// Commit flushes every buffered mutation as one region-grouped batch round
// and then frees the held locks in a flush of their own (releaseLocks), so
// writes are visible before any lock frees (§VIII). A conflict — OCC's at
// validation before the flush, MVCC's write-write check after it — fails the
// commit with nothing visible. A lock found not held fails it with its key
// named, though the writes are durable by then.
func (tx *Tx) Commit(ctx *sim.Ctx) error {
	return tx.commit(ctx, nil, nil)
}

// commit is Commit that, once the commit flush has succeeded, also writes the
// transaction layer's record of the transaction: the commit record of one a
// slave logged before running it (tx.logged), or else writes with their
// params and a commit record (LogCommitted), when the deployment has a layer
// and writes is not empty. One sequence serves every mechanism: deferred lock
// entries, beforeFlush, flush, afterFlush, publish, then the lock release
// beside the record — each on a branch of ctx, so the request pays the longer
// — and the record is written even if a release fails, since the writes it
// records are durable. The transaction's scratch goes back to the System
// when the commit returns.
func (tx *Tx) commit(ctx *sim.Ctx, writes []*PreparedWrite, params [][]schema.Arg) error {
	if tx.done {
		return fmt.Errorf("synergy: transaction already finished")
	}
	tx.done = true
	defer tx.finish()
	m := tx.s.mutator
	// Lock entries for fresh root inserts still deferred (no barrier or
	// same-group statement promoted them) join the commit flush as conditional
	// create-free batch entries; only a locking transaction has any.
	var err error
	for _, ref := range tx.s.deferred {
		if err = tx.sys.Locks.EnsureEntryDeferred(ctx, m, ref.root, ref.key); err != nil {
			break
		}
	}
	if err == nil {
		err = tx.ctl.beforeFlush(ctx, tx)
	}
	if err != nil {
		m.Discard() // the release flush must not publish the writes
		tx.releaseLocks(ctx)
		return err
	}
	if err := tx.ctl.afterFlush(ctx, m.Flush(ctx)); err != nil {
		tx.releaseLocks(ctx)
		return err
	}
	tx.landed = true
	// Publish the deferred view deltas before the locks release: lock
	// serialization on a root makes the per-view publish order match commit
	// order, so each changefeed lane applies deltas FIFO in commit order. A
	// delta's commit timestamp is the high stamp of the transaction's flushes
	// (a statement that deferred a delta wrote its base row, so there is one).
	sys := tx.sys
	if len(tx.deltas) > 0 {
		out := make([]changefeed.Delta, len(tx.deltas))
		for i, d := range tx.deltas {
			out[i] = changefeed.Delta{View: d.view, CommitTS: m.FlushTS(), Apply: func(actx *sim.Ctx) error {
				return sys.applyDelta(actx, d)
			}}
		}
		tx.deltas = nil
		sys.Feed.Publish(ctx, out)
	}
	var lerr error
	switch {
	case tx.logged.slave != nil:
		lerr = tx.logged.slave.logOutcome(&tx.logCtx, tx.logged.txid, true)
	case sys.Txn != nil && len(writes) > 0:
		lerr = sys.Txn.LogCommitted(&tx.logCtx, writes, params)
	default:
		return tx.releaseLocks(ctx)
	}
	err = tx.releaseLocks(&tx.releaseCtx)
	ctx.Join(&tx.releaseCtx, &tx.logCtx)
	return errors.Join(err, lerr)
}

// applyDelta replays one deferred maintenance action from the changefeed
// applier, through the maintenance pass a statement runs (maintain) with the
// delta's one action. The apply runs as a one-statement write of its own
// (options with no mutator): no locks and no dirty marks (readers of an async
// view accept staleness instead of restarts), no transaction overlay (the base
// writes are flushed and visible), and zero-TS mutations pick up fresh oracle
// stamps at flush — so a snapshot begun after the apply sees the maintained
// view under every concurrency mode.
func (sys *System) applyDelta(ctx *sim.Ctx, d viewDelta) error {
	atx := &Tx{sys: sys, s: sys.takeScratch()}
	atx.opts.Scratch = &atx.s.write
	defer atx.finish()
	// The statement's cells are shared by every delta it published, and under
	// MVCC they carry its transaction's id: the replay stamps a copy.
	w := *d.parts.Write
	w.Cells = append(atx.opts.Scratch.Cells(len(w.Cells)), w.Cells...)
	return sys.maintain(ctx, atx, []core.ViewAction{d.action}, writeParts{Write: &w, kind: d.parts.kind})
}

// Abort discards the buffered mutations unapplied, un-marks any dirty marks
// already published (by a phase barrier, or by a mutator that flushes at 1),
// ends the mechanism's side, and frees every held lock in a flush after the
// un-marks' (releaseLocks), so no lock frees over a row still marked. It
// returns the first error, naming a lock found not held; the other locks
// free regardless. Work already persisted stays durable — under MVCC it is
// invisible (the transaction id is invalidated); under hierarchical locking
// §VIII-B has no undo, which is why barriers only fire inside the marked
// window. The transaction's scratch goes back to the System when the abort
// returns.
func (tx *Tx) Abort(ctx *sim.Ctx) error {
	if tx.done {
		return nil
	}
	tx.done = true
	defer tx.finish()
	tx.deltas = nil // deferred maintenance dies with the transaction
	tx.s.mutator.Discard()
	first := tx.unmark(ctx)
	tx.ctl.abort(ctx)
	if err := tx.releaseLocks(ctx); err != nil && first == nil {
		first = err
	}
	return first
}

// acquireLock takes (and records) a root lock, holding it until Commit or
// Abort; re-acquisition of a lock the transaction already holds is free.
func (tx *Tx) acquireLock(ctx *sim.Ctx, root, key string) error {
	ref := lockRef{root, key}
	if tx.holds(ref) {
		return nil
	}
	// A ref this transaction deferred has a known-absent entry (the
	// conditional create is still buffered): take the create-first path.
	acquire := tx.sys.Locks.Acquire
	if i := slices.Index(tx.s.deferred, ref); i >= 0 {
		acquire = tx.sys.Locks.AcquireNew
		tx.s.deferred = slices.Delete(tx.s.deferred, i, i+1)
	}
	if err := acquire(ctx, root, key); err != nil {
		return err
	}
	tx.s.locks = append(tx.s.locks, ref)
	return nil
}

// holds reports whether the transaction holds the lock ref. A transaction
// holds a few locks, so they are searched, not indexed.
func (tx *Tx) holds(ref lockRef) bool { return slices.Contains(tx.s.locks, ref) }

// promoteDeferred converts every deferred lock entry into a held lock —
// called before the first phase barrier of a marked update, which would
// otherwise publish the still-unlocked fresh root rows mid-transaction.
// The buffered conditional entry writes then no-op at the commit flush
// (the entries exist, held or freed by then) and Release frees the locks.
func (tx *Tx) promoteDeferred(ctx *sim.Ctx) error {
	for len(tx.s.deferred) > 0 {
		ref := tx.s.deferred[0]
		if err := tx.acquireLock(ctx, ref.root, ref.key); err != nil {
			return err
		}
	}
	return nil
}

// releaseLocks frees every lock the transaction holds as one batch of
// conditional held→free puts through its mutator, in a flush of its own: the
// caller has flushed everything else (the commit's writes, an abort's
// un-marks) first, and the batch region-groups and forks like any
// MutateBatch, one RPC per lock-table region. A mutator that flushes at 1
// ships one RPC per lock. A lock found not held — freed from under the
// transaction — fails the release with its key named; the other releases
// land regardless.
func (tx *Tx) releaseLocks(ctx *sim.Ctx) error {
	// Deferred entries were never held: on commit the flush just created
	// them free; on abort the discarded buffer never created them.
	s := tx.s
	locks := s.locks
	s.locks, s.deferred = s.locks[:0], s.deferred[:0]
	if len(locks) == 0 {
		return nil
	}
	freed := append(s.freed[:0], make([]bool, len(locks))...)
	s.freed = freed
	var first error
	for i := len(locks) - 1; i >= 0; i-- {
		if err := tx.sys.Locks.ReleaseDeferred(ctx, s.mutator, locks[i].root, locks[i].key, &freed[i]); err != nil && first == nil {
			first = err
		}
	}
	if err := s.mutator.Flush(ctx); err != nil && first == nil {
		first = err
	}
	for i := len(locks) - 1; i >= 0 && first == nil; i-- {
		if !freed[i] {
			first = errNotHeld(locks[i].root, locks[i].key)
		}
	}
	return first
}

// unmark writes dirty-off marks for published-but-not-unmarked rows on the
// abort path, through the transaction's own, just-discarded mutator.
func (tx *Tx) unmark(ctx *sim.Ctx) error {
	s := tx.s
	if len(s.marks) > 0 {
		cell := append(s.write.Cells(1), hbase.Cell{Qualifier: phoenix.DirtyQualifier, Value: dirtyOff, TS: tx.opts.TS})
		for _, mk := range s.marks {
			if err := s.mutator.Put(ctx, mk.table, mk.key, cell); err != nil {
				return err
			}
		}
	}
	s.marks = s.marks[:0]
	return s.mutator.Flush(ctx)
}

// resolveRootKey walks the lock chain upward — child foreign key to parent
// primary key — to find the root-relation row key this write must lock
// (§VIII-A "to update a row for a relation in a rooted tree, we acquire the
// lock on the key of the associated row in the root relation"). key and base
// are the written row's key and cells; a parent's key is the key of the
// child's foreign-key cells. Parent lookups go through rd so rows buffered by
// earlier statements of the same transaction resolve, read into opts.Scratch
// and, as their keys die with the read, cut those from opts.Strings. A root
// key that a lock of held names is returned as that lock's key; any other is
// allocated by itself, since the lock keeps it.
func (sys *System) resolveRootKey(ctx *sim.Ctx, rd hbase.Reader, opts phoenix.WriteOpts, held []lockRef, plan *core.WritePlan, key string, base []hbase.Cell) (string, error) {
	if plan.Root == "" {
		return "", nil
	}
	if plan.Root == plan.Table {
		return key, nil
	}
	cur := base
	var buf [64]byte
	for i := len(plan.LockChain) - 1; i >= 0; i-- {
		e := plan.LockChain[i]
		fk, null := phoenix.AppendKeyOfCells(buf[:0], cur, e.FK)
		if null {
			return "", nil // dangling reference: nothing to lock
		}
		if i == 0 {
			// The FK values are the root's primary key.
			for _, l := range held {
				if l.root == plan.Root && l.key == string(fk) {
					return l.key, nil
				}
			}
			return string(fk), nil
		}
		var err error
		if cur, err = phoenix.GetCells(ctx, rd, e.Parent, opts.Strings.Cut(fk), hbase.ReadOpts{}, opts.Scratch); err != nil || cur == nil {
			return "", err
		}
	}
	return "", nil
}

// occMaxRetries bounds the attempts of one transaction whose mechanism
// retries conflicts (OCC's, see ExecuteTxn); the last of them runs alone.
const occMaxRetries = 12

// ExecuteTxn runs stmts as one transaction on the local system: one
// transaction-scoped mutator shared by every statement, locks held to
// commit, a single commit flush. A statement error aborts the transaction
// (see Abort for what an abort after a §VIII-B phase barrier leaves). When
// the mechanism retries the error (txnControl.retries: an OCC validation
// conflict, after which nothing was flushed) the whole transaction runs
// again from a fresh snapshot, charged the lock path's capped exponential
// backoff — the optimistic mirror of its contended spin. The last of
// occMaxRetries attempts is exclusive: it runs alone from its begin to its
// end, so no commit lands in its validation window and a conflict never
// outlasts the budget. A transaction-layer slave runs its transactions
// through executeTxn after WAL-logging them; use System.ExecTxn to route
// through it.
func (sys *System) ExecuteTxn(ctx *sim.Ctx, stmts []sqlparser.Statement, paramsList [][]schema.Value) error {
	args, err := argLists(paramsList)
	if err != nil {
		return err
	}
	_, err = sys.executeTxn(ctx, sys.prepareWrites(stmts), args, loggedTxn{}, nil)
	return err
}

// executeTxn is ExecuteTxn for a transaction logged as logged: its commit
// writes the commit record beside the lock release. landed reports that the
// commit flush published the writes, which are then durable whatever err
// says. Every attempt cuts its transient keys from strs (see beginTx).
func (sys *System) executeTxn(ctx *sim.Ctx, writes []*PreparedWrite, paramsList [][]schema.Arg, logged loggedTxn, strs *phoenix.StringBlock) (landed bool, err error) {
	if len(writes) != len(paramsList) {
		return false, fmt.Errorf("synergy: %d statements, %d parameter lists", len(writes), len(paramsList))
	}
	for attempt := 1; ; attempt++ {
		last := attempt == occMaxRetries
		landed, err = sys.executeTxnOnce(ctx, writes, paramsList, last, logged, strs)
		if last || !sys.cc.retries(err) {
			return landed, err
		}
		ctx.CountOCCRetry()
		ctx.Charge(sys.cfg.Costs.LockBackoff(attempt - 1))
	}
}

// executeTxnOnce runs one attempt of the transaction (see executeTxn).
func (sys *System) executeTxnOnce(ctx *sim.Ctx, writes []*PreparedWrite, paramsList [][]schema.Arg, exclusive bool, logged loggedTxn, strs *phoenix.StringBlock) (landed bool, err error) {
	tx := sys.beginTx(ctx, exclusive, strs)
	tx.logged = logged
	if sys.postBegin != nil {
		sys.postBegin(tx)
	}
	for i, pw := range writes {
		if err := tx.exec(ctx, pw, paramsList[i]); err != nil {
			// A failed abort (un-mark or lock release) must surface too:
			// it leaves rows dirty or locked, which the operator needs to
			// know about far more than the statement error alone.
			if aerr := tx.Abort(ctx); aerr != nil {
				return false, fmt.Errorf("%w (abort: %v)", err, aerr)
			}
			return false, err
		}
	}
	err = tx.Commit(ctx)
	return tx.landed, err
}

// executeWriteBody is one statement inside tx: the base write, then the
// maintenance of every view the statement's plan names, in one pass.
func (sys *System) executeWriteBody(ctx *sim.Ctx, tx *Tx, pw *PreparedWrite, params []schema.Arg) error {
	opts := tx.opts
	if pw.shape == nil {
		return pw.err
	}
	w, err := pw.shape.Bind(params, opts.Scratch)
	if err != nil {
		return err
	}
	if sys.cfg.DisableViews {
		// Baseline deployment: plain Phoenix write.
		return sys.Engine.ExecWrite(ctx, w, opts)
	}
	plan := pw.plan
	if plan == nil {
		return pw.err
	}
	parts := writeParts{Write: w, kind: plan.Kind}

	// The base row: inserts carry it; an update or delete reads it once and
	// writes over what it read. Reads go through the transaction's overlay so
	// rows written by earlier statements of the same transaction — still
	// buffered, invisible in the store — resolve.
	rd := sys.Engine.Reader(opts)
	reads := parts.kind != core.WriteInsert
	var base []hbase.Cell

	// Step 1: acquire the single lock, held until the transaction commits.
	// A fresh root insert skips self-acquisition unless the transaction is
	// eager: the new row is unpublished until a barrier or the commit flush,
	// so no concurrent transaction can resolve its group yet — its lock entry
	// is deferred into the commit flush below, and any phase barrier promotes
	// it to a held lock before publishing (see EnsureEntryDeferred).
	//
	// §VIII-B reads the affected rows after the lock. A row of the root
	// relation names its lock by its own key, so it is read under the lock;
	// any other row must be read first, its foreign keys leading up the lock
	// chain, and unless the transaction already held the lock it finds, that
	// read is repeated under it — the lock's last holder may have rewritten
	// the row in between.
	if tx.locking() && plan.Root != "" {
		chain := w.Cells // an insert's row; unread for a root-relation row
		if reads && plan.Root != plan.Table {
			if base, err = phoenix.GetCells(ctx, rd, w.Table.Name, w.Key, opts.Read, opts.Scratch); err != nil || base == nil {
				return err // nothing to write
			}
			chain = base
		}
		rootKey, err := sys.resolveRootKey(ctx, rd, opts, tx.s.locks, plan, w.Key, chain)
		if err != nil {
			return err
		}
		deferEntry := !tx.eager && parts.kind == core.WriteInsert && plan.Root == plan.Table
		if rootKey != "" && !deferEntry {
			if !tx.holds(lockRef{plan.Root, rootKey}) {
				if err := tx.acquireLock(ctx, plan.Root, rootKey); err != nil {
					return err
				}
				base = nil
			}
		}
	}
	if reads && base == nil {
		if base, err = phoenix.GetCells(ctx, rd, w.Table.Name, w.Key, opts.Read, opts.Scratch); err != nil || base == nil {
			return err // nothing to write
		}
	}

	// Base write (+ base indexes) through the SQL layer, emitting into the
	// transaction's mutator.
	switch parts.kind {
	case core.WriteInsert:
		err = sys.Engine.PutCellsAt(ctx, w.Table, w.Key, w.Cells, opts)
	case core.WriteUpdate:
		err = sys.Engine.UpdateRow(ctx, w.Table, w.Key, base, w.Cells, opts)
	default:
		err = sys.Engine.DeleteRow(ctx, w.Table, w.Key, base, opts)
	}
	if err != nil {
		return err
	}
	// New root rows get a lock-table entry (§VIII-A). Where the self-lock
	// was skipped above the entry is only recorded here: Commit buffers a
	// conditional create-free batch entry for every ref still deferred (see
	// EnsureEntryDeferred), while a ref promoted to a held lock meanwhile
	// needs no entry write at all — Acquire created it and Release frees it.
	// An eager transaction self-acquired in step 1 (a root row's lock is its
	// own key), so its ref is always held here.
	if tx.locking() && parts.kind == core.WriteInsert && sys.isRoot(plan.Table) {
		ref := lockRef{plan.Table, w.Key}
		if !tx.holds(ref) && !slices.Contains(tx.s.deferred, ref) {
			tx.s.deferred = append(tx.s.deferred, ref)
		}
	}

	// View maintenance. Async views defer to the changefeed: the delta is
	// captured now but published only if the transaction commits, so an abort
	// leaves no view delta applied. The changefeed applies it after the
	// commit has handed the scratch back, so it keeps a copy of the statement.
	if sys.Feed != nil {
		if len(plan.Actions) > 0 {
			kept := *w
			kept.Cells = slices.Clone(w.Cells)
			parts.Write = &kept
		}
		for _, action := range plan.Actions {
			tx.deltas = append(tx.deltas, viewDelta{view: action.View.Name(), action: action, parts: parts})
		}
		return nil
	}
	return sys.maintain(ctx, tx, plan.Actions, parts)
}

// maintain brings the views of actions up to date with one write statement,
// in one pass: an insert builds every view's tuple reading each parent row
// once, a delete removes every view's tuple, and an update locates the rows of
// every view and then runs the §VIII-B phases once over all of them. The
// changefeed applier calls it with the one action of a delta.
func (sys *System) maintain(ctx *sim.Ctx, tx *Tx, actions []core.ViewAction, parts writeParts) error {
	switch parts.kind {
	case core.WriteInsert:
		// A parent row several views' read chains share (W3's Item) is read
		// once; only a statement with several views keeps the reads.
		var memo *[]parentRow
		if len(actions) > 1 {
			tx.s.memo = tx.s.memo[:0]
			memo = &tx.s.memo
		}
		for _, action := range actions {
			if err := sys.maintainInsert(ctx, tx, action, parts, memo); err != nil {
				return err
			}
		}
	case core.WriteDelete:
		for _, action := range actions {
			if err := sys.maintainDelete(ctx, tx, action, parts); err != nil {
				return err
			}
		}
	default:
		return sys.maintainUpdate(ctx, tx, actions, parts)
	}
	return nil
}

// parentRow is a row an insert's view tuples were built from, as read.
type parentRow struct {
	table, key string
	cells      []hbase.Cell
}

// maintainInsert constructs and inserts the view tuple (§VII-A2): read the
// k-1 related base rows walking the foreign keys upward (through the
// transaction overlay, and through memo when it is not nil), merge each under
// the rows below it — the join population builds the view with — and insert.
func (sys *System) maintainInsert(ctx *sim.Ctx, tx *Tx, action core.ViewAction, parts writeParts, memo *[]parentRow) error {
	opts := tx.opts
	rd := sys.Engine.Reader(opts)
	combined, cur := parts.Cells, parts.Cells
	var buf [64]byte
	for _, e := range action.ReadChain {
		fk, null := phoenix.AppendKeyOfCells(buf[:0], cur, e.FK)
		if null {
			return nil // dangling FK: no view tuple
		}
		var err error
		if cur, err = readParent(ctx, rd, e.Parent, fk, opts, memo); err != nil || cur == nil {
			return err
		}
		combined = phoenix.MergeCells(opts.Scratch.Cells(len(cur)+len(combined)), cur, combined)
	}
	viewInfo, err := sys.Catalog.Table(action.View.Name())
	if err != nil {
		return err
	}
	// A view keyed as the written relation is keyed by the written row's key.
	if slices.Equal(viewInfo.Key, parts.Table.Key) {
		return sys.Engine.PutCellsAt(ctx, viewInfo, parts.Key, combined, opts)
	}
	return sys.Engine.PutCells(ctx, viewInfo, combined, opts)
}

// readParent reads the row of table under key into opts.Scratch, or finds it
// in memo. The key dies with the statement, so it is cut from opts.Strings.
func readParent(ctx *sim.Ctx, rd hbase.Reader, table string, key []byte, opts phoenix.WriteOpts, memo *[]parentRow) ([]hbase.Cell, error) {
	if memo == nil {
		return phoenix.GetCells(ctx, rd, table, opts.Strings.Cut(key), opts.Read, opts.Scratch)
	}
	for _, p := range *memo {
		if p.table == table && p.key == string(key) {
			return p.cells, nil
		}
	}
	k := opts.Strings.Cut(key)
	cells, err := phoenix.GetCells(ctx, rd, table, k, opts.Read, opts.Scratch)
	if err == nil {
		*memo = append(*memo, parentRow{table, k, cells})
	}
	return cells, err
}

// maintainDelete removes the view tuple: the view key equals the base key
// (the deleted relation is the view's last); the view row is read first to
// construct the view-index keys (§VII-B2).
func (sys *System) maintainDelete(ctx *sim.Ctx, tx *Tx, action core.ViewAction, parts writeParts) error {
	viewInfo, err := sys.Catalog.Table(action.View.Name())
	if err != nil {
		return err
	}
	old, err := phoenix.GetCells(ctx, sys.Engine.Reader(tx.opts), viewInfo.Name, parts.Key, tx.opts.Read, tx.opts.Scratch)
	if err != nil || old == nil {
		return err
	}
	return sys.Engine.DeleteRow(ctx, viewInfo, parts.Key, old, tx.opts)
}

// viewRow is one view row an update must maintain: its key and its attribute
// cells in qualifier order, as located.
type viewRow struct {
	key   string
	cells []hbase.Cell
}

// viewRows is one view's share of an update: the view, its located rows and
// the keys of their index entries — row by row, one key per index of the view
// in its order, cut from one string (indexKeys). Each key is computed once
// for the statement, where the mark, the update and the un-mark all need it.
type viewRows struct {
	info *phoenix.TableInfo
	rows []viewRow
	keys []string
}

// indexKeys keys the index entries of rows in info's indexes, appending the
// keys to dst.
func indexKeys(dst []string, info *phoenix.TableInfo, rows []viewRow) []string {
	n := len(info.Indexes)
	if n == 0 {
		return dst
	}
	var kbuf [64]byte
	var bufArr [512]byte
	var endsArr [32]int
	buf, ends := bufArr[:0], endsArr[:0]
	for _, tg := range rows {
		for _, idx := range info.Indexes {
			// A key is built alone: one appended to a non-empty buffer
			// would open with a separator.
			buf = append(buf, phoenix.AppendIndexKey(kbuf[:0], info, idx, tg.cells)...)
			ends = append(ends, len(buf))
		}
	}
	all := string(buf)
	for i, start := 0, 0; i < len(ends); start, i = ends[i], i+1 {
		dst = append(dst, all[start:ends[i]])
	}
	return dst
}

// maintainUpdate applies a base-table update to the views of actions. Under
// the hierarchical protocol (tx.locking) it is the 6-step procedure of §VIII-B,
// each step taken once for the statement: (1) lock held by the transaction,
// (2) read the affected rows of every view, (3) mark them all dirty, (4)
// update them all, (5) un-mark them all, (6) release at commit. Under MVCC
// and OCC the marking steps are skipped — snapshot visibility isolates
// readers. A row is updated by putting the assignment's cells on it; its
// index entries move when the key of the updated cells — the located cells
// under the assignment's — differs from the key of the located ones.
func (sys *System) maintainUpdate(ctx *sim.Ctx, tx *Tx, actions []core.ViewAction, parts writeParts) error {
	opts := tx.opts
	mark := tx.locking()

	// Step 2: read the view rows that need updating (overlay-aware: a view
	// tuple an earlier statement inserted but has not flushed is located).
	views, err := sys.locateAll(ctx, tx, actions, parts)
	if err != nil || len(views) == 0 {
		return err
	}
	located := 0
	for _, v := range views {
		located += len(v.rows)
	}

	// The phase barriers below publish everything the transaction has
	// buffered, including any fresh root rows whose lock entries are still
	// deferred: promote those to held locks first, so a published row is
	// always covered by its group lock until commit.
	if mark && len(tx.s.deferred) > 0 {
		if err := tx.promoteDeferred(ctx); err != nil {
			return err
		}
	}

	// Each phase of the protocol ends in an ordering barrier: the dirty
	// marks of every view flush before any update is issued, the updates
	// flush before any row is un-marked. On a transaction-scoped mutator a
	// barrier also flushes whatever earlier statements buffered — buffer
	// order is preserved across it, so the §VIII-B ordering holds for the
	// whole transaction. Within a phase, mutations to independent rows carry
	// no ordering requirement and ship as region-grouped batch RPCs, every
	// view's in the same flush. Marks are quiet (not part of the MVCC write
	// set); under MVCC no barrier fires — everything rides to the commit
	// flush. The transaction records flushed marks so an abort can un-mark
	// them.
	batch := sys.Engine.NewWriteBatch(opts)
	s := tx.s
	// markAll emits one phase of marks and barriers it: a mark on every view
	// row and covered view-index entry, keyed by v.keys. The dirty-on phase
	// records the marked rows on the transaction so an abort can un-mark them;
	// the un-mark phase has nothing to record.
	markAll := func(value []byte, record bool) error {
		refs := s.spareMarks[:0]
		if record {
			refs = slices.Grow(refs, located)
		}
		markCell := append(opts.Scratch.Cells(1), hbase.Cell{Qualifier: phoenix.DirtyQualifier, Value: value, TS: opts.TS})
		for _, v := range views {
			n := len(v.info.Indexes)
			for ti, tg := range v.rows {
				if err := batch.PutQuiet(ctx, v.info.Name, tg.key, markCell); err != nil {
					return err
				}
				if record {
					refs = append(refs, markRef{v.info.Name, tg.key})
				}
				for ii, idx := range v.info.Indexes {
					if idx.KeyOnly {
						continue
					}
					ikey := v.keys[ti*n+ii]
					if err := batch.PutQuiet(ctx, idx.Name, ikey, markCell); err != nil {
						return err
					}
					if record {
						refs = append(refs, markRef{idx.Name, ikey})
					}
				}
			}
		}
		if err := batch.Barrier(ctx); err != nil {
			return err
		}
		if record {
			s.marks, s.spareMarks = refs, s.marks
		}
		return nil
	}

	// Step 3: mark rows (view + covered view-index copies; key-only
	// maintenance indexes are never read by queries and need no marks).
	if mark {
		if err := markAll(dirtyOn, true); err != nil {
			return err
		}
		if err := sys.phaseDone(phaseMarked); err != nil {
			return err
		}
	}

	// Step 4: issue the updates as one batch. Index keys may move with the
	// update: a moved entry's key replaces the located one in v.keys, so the
	// un-mark finds the entry where the update left it, and the marked set is
	// re-recorded from those keys — after the barrier an abort must un-mark
	// the rows that are actually marked now.
	updatedRefs := s.spareMarks[:0]
	if mark {
		updatedRefs = slices.Grow(updatedRefs, len(s.marks))
	}
	assign := phoenix.StampCells(parts.Cells, opts.TS)
	var updated []hbase.Cell // a located row under the assignment, one row at a time
	var nbuf [64]byte
	for _, v := range views {
		viewInfo := v.info
		n := len(viewInfo.Indexes)
		for ti, tg := range v.rows {
			if err := batch.Put(ctx, viewInfo.Name, tg.key, assign); err != nil {
				return err
			}
			if mark {
				updatedRefs = append(updatedRefs, markRef{viewInfo.Name, tg.key})
			}
			if n == 0 {
				continue
			}
			if need := len(tg.cells) + len(assign); cap(updated) < need {
				updated = opts.Scratch.Cells(need)
			}
			updated = phoenix.StampCells(phoenix.MergeCells(updated[:0], tg.cells, assign), opts.TS)
			keys := v.keys[ti*n : (ti+1)*n]
			for ii, idx := range viewInfo.Indexes {
				oldKey := keys[ii]
				if newKey := phoenix.AppendIndexKey(nbuf[:0], viewInfo, idx, updated); string(newKey) != oldKey {
					keys[ii] = string(newKey)
					// The old entry's tombstone is a real write: it must be in
					// the transaction's write set (phoenix.UpdateRow notifies
					// its moved base-index deletes the same way), or OCC
					// validation would admit a transaction that scanned the old
					// key's range as conflict-free.
					if err := batch.Delete(ctx, idx.Name, oldKey, opts.TS); err != nil {
						return err
					}
					cells := phoenix.IndexCells(viewInfo, idx, updated, opts.Scratch)
					if !idx.KeyOnly {
						// A covered entry's cells are the row's: a copy, for
						// updated is the next row's scratch.
						cells = append(opts.Scratch.Cells(len(updated)+1), updated...)
						if mark {
							cells = append(cells, hbase.Cell{Qualifier: phoenix.DirtyQualifier, Value: dirtyOn, TS: opts.TS})
						}
					}
					if err := batch.Put(ctx, idx.Name, keys[ii], cells); err != nil {
						return err
					}
				} else if phoenix.IndexTouched(viewInfo, idx, assign) {
					if err := batch.Put(ctx, idx.Name, oldKey, assign); err != nil {
						return err
					}
				}
				if mark && !idx.KeyOnly {
					updatedRefs = append(updatedRefs, markRef{idx.Name, keys[ii]})
				}
			}
		}
	}
	if !mark {
		return batch.Flush(ctx)
	}
	if err := batch.Barrier(ctx); err != nil {
		return err
	}
	s.marks, s.spareMarks = updatedRefs, s.marks
	if err := sys.phaseDone(phaseUpdated); err != nil {
		return err
	}

	// Step 5: un-mark.
	if err := markAll(dirtyOff, false); err != nil {
		return err
	}
	s.marks = s.marks[:0]
	return sys.phaseDone(phaseUnmarked)
}

// The barriers of a marked update, in order; phaseDone reports each.
const (
	phaseMarked = iota + 1
	phaseUpdated
	phaseUnmarked
)

// phaseDone runs the afterPhase hook, when set, at the end of a phase.
func (sys *System) phaseDone(phase int) error {
	if sys.afterPhase == nil {
		return nil
	}
	return sys.afterPhase(phase)
}

// locateAll runs step 2 for every view of an update, leaving out the views
// with no affected row. The locates are independent reads, so they overlap:
// each runs on the caller, charged to its own fork, and the forks are joined
// at Costs.ScanParallelism width, the read pool a fanned-out scan's units
// share. The paper's client (tx.eager) locates one view after the other. The
// views, their rows and their index keys are the scratch's.
func (sys *System) locateAll(ctx *sim.Ctx, tx *Tx, actions []core.ViewAction, parts writeParts) ([]viewRows, error) {
	s := tx.s
	rd := sys.Engine.Reader(tx.opts)
	var forks []sim.Ctx
	if !tx.eager && len(actions) > 1 {
		if cap(s.forks) < len(actions) {
			s.forks = make([]sim.Ctx, len(actions))
		}
		forks = s.forks[:0]
	}
	// What an earlier statement located is dead: its mutations hold their
	// keys and cells, not these lists.
	views := s.views[:0]
	s.rows, s.keys = s.rows[:0], s.keys[:0]
	var err error
	for _, action := range actions {
		var info *phoenix.TableInfo
		if info, err = sys.Catalog.Table(action.View.Name()); err != nil {
			break
		}
		lctx := ctx
		if forks != nil {
			forks = forks[:len(forks)+1]
			lctx = &forks[len(forks)-1]
			lctx.Reset()
		}
		start := len(s.rows)
		if s.rows, err = tx.locateViewRows(lctx, rd, action, info, parts, s.rows); err != nil {
			break
		}
		if len(s.rows) > start {
			rows := s.rows[start:len(s.rows):len(s.rows)]
			at := len(s.keys)
			s.keys = indexKeys(s.keys, info, rows)
			views = append(views, viewRows{info, rows, s.keys[at:len(s.keys):len(s.keys)]})
		}
	}
	s.views = views
	if forks != nil {
		ctx.JoinLanes(new(sim.Lanes), sys.cfg.Costs.ScanParallelism, len(forks), func(i int) *sim.Ctx { return &forks[i] })
	}
	return views, err
}

// locateViewRows finds the view rows affected by an update per the plan's
// locator (§VII-C) and appends them to dst. All reads go through rd, so view
// tuples buffered by earlier statements of the same transaction are located
// too; an index scan opens in the transaction's scanner storage (tx.locate)
// and reads to its end. The rows' cells are cut from the scratch.
func (tx *Tx) locateViewRows(ctx *sim.Ctx, rd hbase.Reader, action core.ViewAction, viewInfo *phoenix.TableInfo, parts writeParts, dst []viewRow) ([]viewRow, error) {
	read, sc := tx.opts.Read, tx.opts.Scratch
	switch action.Locator {
	case core.LocateByViewKey:
		cells, err := phoenix.GetCells(ctx, rd, viewInfo.Name, parts.Key, read, sc)
		if err != nil || cells == nil {
			return dst, err
		}
		return append(dst, viewRow{parts.Key, cells}), nil

	case core.LocateByIndex:
		// The maintenance index stores only keys (§VII-C); collect the view
		// keys its entries under the written row's key hold, then read the
		// full rows with one multi-get. The entries are the keys that start
		// with the row key and a separator: [key+"\x00", key+"\x01"). Locator
		// probes are short prefix reads, so they stay sequential. Both
		// bounds are cut from one string, cut from the session's block.
		var bbuf [128]byte
		bounds := tx.opts.Strings.Cut(append(append(append(append(bbuf[:0], parts.Key...), schema.KeySep), parts.Key...), schema.KeySep+1))
		half := len(bounds) / 2
		spec := hbase.ScanSpec{Start: bounds[:half], Stop: bounds[half:], Read: read, Sequential: true}
		rows, err := rd.OpenScan(ctx, action.LocatorIndex.Name(), spec, &tx.locate)
		if err != nil {
			return dst, err
		}
		// The keys are built back to back and cut out of one string.
		var kbuf [64]byte
		var bufArr [512]byte
		var endsArr [16]int
		buf, ends := bufArr[:0], endsArr[:0]
		for r, ok := rows.Next(ctx); ok; r, ok = rows.Next(ctx) {
			buf = append(buf, phoenix.AppendKeyOfRow(kbuf[:0], r.Cells, viewInfo.Key)...)
			ends = append(ends, len(buf))
		}
		if len(ends) == 0 {
			return dst, nil
		}
		s := tx.s
		all, at := string(buf), len(s.keys)
		for i, start := 0, 0; i < len(ends); start, i = ends[i], i+1 {
			s.keys = append(s.keys, all[start:ends[i]])
		}
		keys := s.keys[at:len(s.keys):len(s.keys)]
		got, err := rd.GetMany(ctx, viewInfo.Name, keys, read, sc.ReadBuf())
		if err != nil {
			return dst, err
		}
		for i, r := range got {
			if !r.Empty() {
				dst = append(dst, viewRow{keys[i], phoenix.AppendRowCells(sc.Cells(len(r.Cells)), r)})
			}
		}
		return dst, nil

	default: // LocateByScan
		// A full view scan with a pushed-down filter — the written row's key
		// against the key of the row's cells for the relation, compared where
		// the row is read; a view fans out at its regions and guideposts like
		// any other full scan.
		pk, key := tx.sys.Design.Schema.Relation(parts.Table.Name).PK, parts.Key
		scan, err := rd.OpenScan(ctx, viewInfo.Name, hbase.ScanSpec{
			Read: read,
			Filter: hbase.FilterFunc(func(r hbase.RowResult) bool {
				var buf [64]byte
				return string(phoenix.AppendKeyOfRow(buf[:0], r.Cells, pk)) == key
			}),
		}, nil)
		if err != nil {
			return dst, err
		}
		for r, ok := scan.Next(ctx); ok; r, ok = scan.Next(ctx) {
			dst = append(dst, viewRow{r.Key, phoenix.AppendRowCells(sc.Cells(len(r.Cells)), r)})
		}
		return dst, nil
	}
}
