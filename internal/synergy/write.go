package synergy

import (
	"errors"
	"fmt"
	"slices"

	"synergy/internal/changefeed"
	"synergy/internal/core"
	"synergy/internal/hbase"
	"synergy/internal/mvcc"
	"synergy/internal/occ"
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

// Tx is the write-pipeline state of one in-flight transaction: under
// hierarchical locking the §VIII procedure (root locks held to commit,
// dirty marking around multi-row view updates), under MVCC a Tephra-like
// snapshot transaction. A transaction owns one BufferedMutator for its
// whole lifetime: every statement emits into it, reads consult its
// read-your-writes overlay, the maintenance protocol's phase barriers flush
// it mid-flight, Commit flushes it once (one batch-RPC round, one WAL sync
// per touched region) and then frees the locks through it in one more round,
// and Abort discards it with nothing buffered persisted.
// Config.SequentialWrites makes that mutator the paper's client — it flushes
// at every mutation (so each lock frees in an RPC of its own), its view reads
// a row per RPC and an update locates one view at a time (eager) — and the
// rest of the procedure is the same code.
type Tx struct {
	sys     *System
	opts    phoenix.WriteOpts
	mutator *hbase.BufferedMutator
	// eager: the mutator flushes at 1, so what a statement emits is published
	// before the commit. Such a transaction cannot defer a fresh root row's
	// lock entry into the commit flush: it self-acquires in step 1, which
	// creates the entry (executeWriteBody). It is the paper's client, which
	// also locates an update's views one at a time (locateAll).
	eager  bool
	mvccTx *mvcc.Tx // nil unless Concurrency == MVCC
	occTx  *occ.Tx  // nil unless Concurrency == OCC
	lock   bool     // hierarchical: root locks + dirty marks
	// exclusive marks ExecuteTxn's last optimistic attempt, which holds
	// System.occGate's write lock from its begin to its end: its commit
	// takes no read lock.
	exclusive bool

	locks   []lockRef
	lockSet map[lockRef]struct{}
	// deferred are fresh-root-insert lock entries riding the commit flush
	// as conditional batch entries instead of being self-acquired (see
	// LockManager.EnsureEntryDeferred). While a ref is deferred the root
	// row is still unpublished; any phase barrier promotes all deferred
	// refs to held locks before it flushes.
	deferred []lockRef
	// marks are dirty marks a phase barrier has flushed but the protocol
	// has not yet un-marked; Abort un-marks them so an aborted transaction
	// never leaves rows permanently dirty (readers would restart forever).
	marks []markRef
	// deltas are view-maintenance actions deferred to the changefeed (async
	// views): captured during statement execution, published only on commit,
	// dropped on abort.
	deltas []viewDelta
	stmts  int // statements executed (MVCC checkpoints between them)
	done   bool
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

// BeginTx opens a write transaction on the local system. Under
// hierarchical locking the caller is normally the transaction layer, which
// WAL-logs the statements around it; MVCC transactions need no logging.
func (sys *System) BeginTx(ctx *sim.Ctx) *Tx {
	tx := &Tx{sys: sys, lock: sys.cfg.Concurrency == Hierarchical}
	// The paper's client ships every mutation by itself; everyone else's
	// ships at a barrier. OCC must buffer — nothing may reach the store
	// before validation passes — so it ignores the option.
	flushAt := 0
	if sys.cfg.SequentialWrites && sys.cfg.Concurrency != OCC {
		tx.eager, flushAt = true, 1
	}
	tx.mutator = sys.Engine.Client().NewBufferedMutator(flushAt)
	tx.opts.Mutator = tx.mutator
	switch sys.cfg.Concurrency {
	case MVCC:
		tx.mvccTx = sys.MVCCServer.Begin(ctx)
		tx.opts.TS, tx.opts.Read, tx.opts.OnWrite = tx.mvccTx.ID(), tx.mvccTx.ReadOpts(), tx.mvccTx.RecordWrite
	case OCC:
		tx.occTx = sys.OCC.Begin(ctx)
		tx.opts.Read, tx.opts.OnWrite = tx.occTx.ReadOpts(), tx.occTx.RecordWrite
		// Every read of the write path (read-before-write, lock-chain
		// walks, view-maintenance locates, query scans) goes through the
		// tracking reader, so the read set is complete — including scan
		// ranges, which is what catches phantom-shaped conflicts.
		tx.opts.Reader = tx.occTx.Track(tx.mutator.View())
	}
	return tx
}

// Exec runs one write statement inside the transaction. On error the
// caller must Abort — the statement's buffered mutations are still in the
// transaction buffer and must not survive. Under MVCC every statement
// after the first runs at a fresh checkpoint (write pointer), so one
// statement's tombstones never shadow a later statement's puts at an equal
// timestamp.
func (tx *Tx) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	if tx.done {
		return fmt.Errorf("synergy: transaction already finished")
	}
	if tx.mvccTx != nil && tx.stmts > 0 {
		tx.mvccTx.Checkpoint(ctx)
		tx.opts.TS = tx.mvccTx.ID()
		tx.opts.Read = tx.mvccTx.ReadOpts()
	}
	tx.stmts++
	return tx.sys.executeWriteBody(ctx, tx, stmt, params)
}

// Query runs a SELECT inside the transaction at the deployment's configured
// freshness contract (a Session passes its own). See open.
func (tx *Tx) Query(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (*phoenix.ResultSet, error) {
	p, err := tx.sys.prepare(sel)
	if err != nil {
		return nil, err
	}
	cur, err := tx.open(ctx, p, params, tx.sys.cfg.AsyncReads)
	if err != nil {
		return nil, err
	}
	return phoenix.DrainCursor(ctx, cur)
}

// open runs a prepared SELECT inside the transaction as a cursor. The
// statement reads its view-based rewrite, and reads see the transaction's own
// buffered writes: under hierarchical locking the mutator overlay merges over
// latest-committed rows (with the §VIII-C dirty-restart protocol guarding
// view scans), under MVCC the overlay merges over the transaction's snapshot
// at its current checkpoint, and under OCC the query runs through the
// tracking reader — its ranges and keys join the read set, so commit-time
// validation covers what the transaction saw, not just what it wrote.
//
// The ReadWatermark gate waits to the transaction's read point rather than
// the arrival clock: an in-flight MVCC/OCC transaction cannot move its
// snapshot forward, so deltas applied beyond it would be invisible anyway —
// waiting past the snapshot would charge the reader for freshness it cannot
// observe.
//
// The cursor holds no transaction state of its own: Close only releases the
// scanner, and the transaction outlives the cursor. The cursor must be
// closed before the next statement runs — it reads through the
// transaction's current checkpoint, which the next Exec advances.
func (tx *Tx) open(ctx *sim.Ctx, p *Prepared, params []schema.Value, reads ViewReadMode) (phoenix.RowCursor, error) {
	if tx.done {
		return nil, fmt.Errorf("synergy: transaction already finished")
	}
	sys := tx.sys
	var readTS int64
	switch {
	case tx.mvccTx != nil:
		readTS = tx.mvccTx.ID()
	case tx.occTx != nil:
		readTS = tx.occTx.Snapshot()
	default:
		readTS = sys.Store.CurrentTS()
	}
	if reads == ReadWatermark {
		for _, v := range p.async {
			sys.Feed.WaitWatermark(ctx, v, readTS)
		}
	}
	sys.countStale(ctx, p, readTS, reads)
	// The write path's reader and read options: the tracking reader or the
	// overlay view, at the snapshot's current checkpoint.
	return p.plan.Open(ctx, params, phoenix.QueryOpts{Read: tx.opts.Read, Reader: sys.Engine.Reader(tx.opts), DirtyCheck: tx.lock})
}

// Commit flushes every buffered mutation as one region-grouped batch round,
// finishes the MVCC transaction when present, and then frees the held locks
// in a flush of their own (releaseLocks) — writes become visible before any
// lock frees, preserving the §VIII protocol. An OCC transaction validates
// first: only a commit whose read set survived backward validation flushes
// anything, and a conflict returns occ.ErrConflict with the buffer discarded
// untouched. It validates, flushes and finalizes under System.occGate's read
// lock, so no OCC commit lands while an exclusive attempt runs (see
// ExecuteTxn). A lock found not held fails the commit with its key named,
// though the writes are durable by then.
func (tx *Tx) Commit(ctx *sim.Ctx) error {
	return tx.commit(ctx, nil, nil)
}

// commit is Commit that, once the commit flush has succeeded, also records
// stmts with their params in the transaction layer's log (LogCommitted), when
// the deployment has one and stmts is not empty. Nothing orders a committed
// transaction's lock releases against its log record, so the record is
// charged to a fork joined with the release round's: the request pays the
// longer of the two, not their sum.
func (tx *Tx) commit(ctx *sim.Ctx, stmts []sqlparser.Statement, params [][]schema.Value) error {
	if tx.done {
		return fmt.Errorf("synergy: transaction already finished")
	}
	tx.done = true
	if tx.occTx != nil {
		if !tx.exclusive {
			tx.sys.occGate.RLock()
			defer tx.sys.occGate.RUnlock()
		}
		// Validation reserves the commit's cell timestamps (StampPending
		// runs inside the validator's critical section) so the flushed
		// cells form one atomic block under every snapshot horizon.
		if err := tx.sys.OCC.Validate(ctx, tx.occTx, tx.mutator.StampPending); err != nil {
			tx.mutator.Discard()
			return err
		}
		// The validator holds new snapshots below the flush watermark
		// until Finalize, so nobody observes a half-applied commit; a
		// failed flush (which applies nothing) withdraws the commit.
		if err := tx.mutator.Flush(ctx); err != nil {
			tx.sys.OCC.AbandonFlush(ctx, tx.occTx)
			return err
		}
		tx.sys.OCC.Finalize(ctx, tx.occTx)
		tx.publishDeltas(ctx)
		return tx.finish(ctx, stmts, params)
	}
	// Lock entries for fresh root inserts that stayed deferred to the end (no
	// barrier or same-group statement promoted them) join the commit flush as
	// conditional create-free batch entries.
	for _, ref := range tx.deferred {
		if err := tx.sys.Locks.EnsureEntryDeferred(ctx, tx.mutator, ref.root, ref.key); err != nil {
			tx.mutator.Discard() // the release flush must not publish the writes
			tx.releaseLocks(ctx)
			return err
		}
	}
	if err := tx.mutator.Flush(ctx); err != nil {
		if tx.mvccTx != nil {
			tx.sys.MVCCServer.Abort(ctx, tx.mvccTx)
		}
		tx.releaseLocks(ctx)
		return err
	}
	if tx.mvccTx != nil {
		if err := tx.sys.MVCCServer.Commit(ctx, tx.mvccTx); err != nil {
			return err
		}
	}
	// Publish before the locks release: lock serialization on a root makes
	// the per-view publish order match commit order, so each changefeed lane
	// applies deltas FIFO in commit order.
	tx.publishDeltas(ctx)
	return tx.finish(ctx, stmts, params)
}

// finish ends a transaction whose commit flush succeeded: it frees the held
// locks and, when the deployment has a transaction layer and stmts is not
// empty, logs the transaction there, each on its own fork of ctx. The log is
// written even if a release fails: the writes it records are durable.
func (tx *Tx) finish(ctx *sim.Ctx, stmts []sqlparser.Statement, params [][]schema.Value) error {
	if tx.sys.Txn == nil || len(stmts) == 0 {
		return tx.releaseLocks(ctx)
	}
	release, log := ctx.Fork(), ctx.Fork()
	err := tx.releaseLocks(release)
	lerr := tx.sys.Txn.LogCommitted(log, stmts, params)
	ctx.Join(release, log)
	return errors.Join(err, lerr)
}

// publishDeltas hands the transaction's deferred view deltas to the
// changefeed, tagged with the commit timestamp: the high stamp of the
// transaction's flushes (a statement that deferred a delta wrote its base
// row, so there is one).
func (tx *Tx) publishDeltas(ctx *sim.Ctx) {
	if len(tx.deltas) == 0 {
		return
	}
	sys := tx.sys
	commitTS := tx.mutator.FlushTS()
	out := make([]changefeed.Delta, len(tx.deltas))
	for i, d := range tx.deltas {
		d := d
		out[i] = changefeed.Delta{View: d.view, CommitTS: commitTS, Apply: func(actx *sim.Ctx) error {
			return sys.applyDelta(actx, d)
		}}
	}
	tx.deltas = nil
	sys.Feed.Publish(ctx, out)
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
	atx := &Tx{sys: sys}
	// The statement's cells are shared by every delta it published, and under
	// MVCC they carry its transaction's id: the replay stamps a copy.
	w := *d.parts.Write
	w.Cells = slices.Clone(w.Cells)
	return sys.maintain(ctx, atx, []core.ViewAction{d.action}, writeParts{Write: &w, kind: d.parts.kind})
}

// Abort discards the buffered mutations unapplied, un-marks any dirty marks
// already published (by a phase barrier, or by a mutator that flushes at 1),
// invalidates the MVCC transaction when present, and frees every held lock
// in a flush after the un-marks' (releaseLocks), so no lock frees over a row
// still marked. It returns the first error, naming a lock found not held;
// the other locks free regardless. Work already persisted stays durable —
// under MVCC it is invisible (the transaction id is invalidated); under
// hierarchical locking §VIII-B has no undo, which is why barriers only fire
// inside the marked window.
func (tx *Tx) Abort(ctx *sim.Ctx) error {
	if tx.done {
		return nil
	}
	tx.done = true
	tx.deltas = nil // deferred maintenance dies with the transaction
	tx.mutator.Discard()
	first := tx.unmark(ctx)
	if tx.mvccTx != nil {
		tx.sys.MVCCServer.Abort(ctx, tx.mvccTx)
	}
	if tx.occTx != nil {
		// Nothing flushed (OCC runs no phase barriers), nothing marked,
		// nothing locked: the abort is a pure buffer discard.
		tx.sys.OCC.Abort(ctx, tx.occTx)
	}
	if err := tx.releaseLocks(ctx); err != nil && first == nil {
		first = err
	}
	return first
}

// acquireLock takes (and records) a root lock, holding it until Commit or
// Abort; re-acquisition of a lock the transaction already holds is free.
func (tx *Tx) acquireLock(ctx *sim.Ctx, root, key string) error {
	ref := lockRef{root, key}
	if _, held := tx.lockSet[ref]; held {
		return nil
	}
	// A ref this transaction deferred has a known-absent entry (the
	// conditional create is still buffered): take the create-first path.
	acquire := tx.sys.Locks.Acquire
	for i, d := range tx.deferred {
		if d == ref {
			acquire = tx.sys.Locks.AcquireNew
			tx.deferred = append(tx.deferred[:i], tx.deferred[i+1:]...)
			break
		}
	}
	if err := acquire(ctx, root, key); err != nil {
		return err
	}
	if tx.lockSet == nil {
		tx.lockSet = map[lockRef]struct{}{}
	}
	tx.lockSet[ref] = struct{}{}
	tx.locks = append(tx.locks, ref)
	return nil
}

// promoteDeferred converts every deferred lock entry into a held lock —
// called before the first phase barrier of a marked update, which would
// otherwise publish the still-unlocked fresh root rows mid-transaction.
// The buffered conditional entry writes then no-op at the commit flush
// (the entries exist, held or freed by then) and Release frees the locks.
func (tx *Tx) promoteDeferred(ctx *sim.Ctx) error {
	for len(tx.deferred) > 0 {
		ref := tx.deferred[0]
		if err := tx.acquireLock(ctx, ref.root, ref.key); err != nil {
			return err
		}
	}
	return nil
}

func (tx *Tx) isDeferred(ref lockRef) bool {
	for _, d := range tx.deferred {
		if d == ref {
			return true
		}
	}
	return false
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
	locks := tx.locks
	tx.locks, tx.lockSet, tx.deferred = nil, nil, nil
	if len(locks) == 0 {
		return nil
	}
	freed := make([]bool, len(locks))
	var first error
	for i := len(locks) - 1; i >= 0; i-- {
		if err := tx.sys.Locks.ReleaseDeferred(ctx, tx.mutator, locks[i].root, locks[i].key, &freed[i]); err != nil && first == nil {
			first = err
		}
	}
	if err := tx.mutator.Flush(ctx); err != nil && first == nil {
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
	for _, mk := range tx.marks {
		cell := []hbase.Cell{{Qualifier: phoenix.DirtyQualifier, Value: dirtyOff, TS: tx.opts.TS}}
		if err := tx.mutator.Put(ctx, mk.table, mk.key, cell); err != nil {
			return err
		}
	}
	tx.marks = nil
	return tx.mutator.Flush(ctx)
}

// resolveRootKey walks the lock chain upward — child foreign key to parent
// primary key — to find the root-relation row key this write must lock
// (§VIII-A "to update a row for a relation in a rooted tree, we acquire the
// lock on the key of the associated row in the root relation"). key and base
// are the written row's key and cells; a parent's key is the key of the
// child's foreign-key cells. Parent lookups go through rd so rows buffered by
// earlier statements of the same transaction resolve.
func (sys *System) resolveRootKey(ctx *sim.Ctx, rd hbase.Reader, plan *core.WritePlan, key string, base []hbase.Cell) (string, error) {
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
			return string(fk), nil
		}
		var err error
		if cur, err = phoenix.GetCells(ctx, rd, e.Parent, string(fk), hbase.ReadOpts{}); err != nil || cur == nil {
			return "", err
		}
	}
	return "", nil
}

// ExecuteWrite runs one write statement as its own transaction. Under
// hierarchical locking it is §VIII-B: acquire the single root lock, write
// the base table (and base indexes), maintain every applicable view per the
// §VII construction procedures — marking and un-marking rows around
// multi-row view updates — and release the lock. Under MVCC the same base
// write and view maintenance run inside a Tephra-like snapshot transaction
// (no locks, no dirty marking) — the MVCC-A configuration of §IX-D2.
func (sys *System) ExecuteWrite(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	return sys.ExecuteTxn(ctx, []sqlparser.Statement{stmt}, [][]schema.Value{params})
}

// occMaxRetries bounds the attempts of one optimistic transaction
// (ExecuteTxn); the last of them runs alone.
const occMaxRetries = 12

// ExecuteTxn runs stmts as one transaction on the local system: one
// transaction-scoped mutator shared by every statement, locks held to
// commit, a single commit flush. A statement error aborts the transaction —
// buffered mutations are discarded, flushed dirty marks un-marked, locks
// released. Note the §VIII-B durability caveat: under hierarchical locking
// a marked multi-row update's phase barriers flush everything buffered so
// far, and there is no undo log — an abort after such a barrier keeps that
// flushed work durable (under MVCC it is invisible instead, via the
// invalidated transaction id). Under OCC a validation conflict retries the
// whole transaction from a fresh snapshot, charged the lock path's capped
// exponential backoff — the optimistic mirror of its contended spin. The
// last of occMaxRetries attempts runs alone: it holds System.occGate's write
// lock from its begin to its end, so no commit lands in its validation
// window and it cannot lose — a conflict never outlasts the budget. A retried
// attempt re-executes every statement, and an aborted attempt has flushed
// nothing (OCC runs no phase barriers), so retry leaves no dirty marks and no
// partial state. The transaction layer calls this after WAL-logging; use
// System.ExecTxn to route through it.
func (sys *System) ExecuteTxn(ctx *sim.Ctx, stmts []sqlparser.Statement, paramsList [][]schema.Value) error {
	if len(stmts) != len(paramsList) {
		return fmt.Errorf("synergy: %d statements, %d parameter lists", len(stmts), len(paramsList))
	}
	for attempt := 1; ; attempt++ {
		err := sys.executeTxnOnce(ctx, stmts, paramsList, sys.cfg.Concurrency == OCC && attempt == occMaxRetries)
		if !errors.Is(err, occ.ErrConflict) || attempt == occMaxRetries {
			return err
		}
		ctx.CountOCCRetry()
		ctx.Charge(sys.cfg.Costs.LockBackoff(attempt - 1))
	}
}

// executeTxnOnce runs one attempt of the transaction; an exclusive one holds
// occGate's write lock throughout (see ExecuteTxn).
func (sys *System) executeTxnOnce(ctx *sim.Ctx, stmts []sqlparser.Statement, paramsList [][]schema.Value, exclusive bool) error {
	if exclusive {
		sys.occGate.Lock()
		defer sys.occGate.Unlock()
	}
	tx := sys.BeginTx(ctx)
	tx.exclusive = exclusive
	if tx.occTx != nil && sys.occPostBegin != nil {
		sys.occPostBegin(exclusive)
	}
	for i, stmt := range stmts {
		if err := tx.Exec(ctx, stmt, paramsList[i]); err != nil {
			// A failed abort (un-mark or lock release) must surface too:
			// it leaves rows dirty or locked, which the operator needs to
			// know about far more than the statement error alone.
			if aerr := tx.Abort(ctx); aerr != nil {
				return fmt.Errorf("%w (abort: %v)", err, aerr)
			}
			return err
		}
	}
	return tx.Commit(ctx)
}

// executeWriteBody is one statement inside tx: the base write, then the
// maintenance of every view the statement's plan names, in one pass.
func (sys *System) executeWriteBody(ctx *sim.Ctx, tx *Tx, stmt sqlparser.Statement, params []schema.Value) error {
	opts := tx.opts
	w, err := sys.Engine.BindWrite(stmt, params)
	if err != nil {
		return err
	}
	if sys.cfg.DisableViews {
		// Baseline deployment: plain Phoenix write.
		return sys.Engine.ExecWrite(ctx, w, opts)
	}
	plan, err := core.PlanWrite(sys.Design, stmt)
	if err != nil {
		return err
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
	if tx.lock && plan.Root != "" {
		chain := w.Cells // an insert's row; unread for a root-relation row
		if reads && plan.Root != plan.Table {
			if base, err = phoenix.GetCells(ctx, rd, w.Table.Name, w.Key, opts.Read); err != nil || base == nil {
				return err // nothing to write
			}
			chain = base
		}
		rootKey, err := sys.resolveRootKey(ctx, rd, plan, w.Key, chain)
		if err != nil {
			return err
		}
		deferEntry := !tx.eager && parts.kind == core.WriteInsert && plan.Root == plan.Table
		if rootKey != "" && !deferEntry {
			if _, held := tx.lockSet[lockRef{plan.Root, rootKey}]; !held {
				if err := tx.acquireLock(ctx, plan.Root, rootKey); err != nil {
					return err
				}
				base = nil
			}
		}
	}
	if reads && base == nil {
		if base, err = phoenix.GetCells(ctx, rd, w.Table.Name, w.Key, opts.Read); err != nil || base == nil {
			return err // nothing to write
		}
	}

	// Base write (+ base indexes) through the SQL layer, emitting into the
	// transaction's mutator.
	switch parts.kind {
	case core.WriteInsert:
		err = sys.Engine.PutCells(ctx, w.Table, w.Cells, opts)
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
	if tx.lock && parts.kind == core.WriteInsert && sys.isRoot(plan.Table) {
		ref := lockRef{plan.Table, w.Key}
		if _, held := tx.lockSet[ref]; !held && !tx.isDeferred(ref) {
			tx.deferred = append(tx.deferred, ref)
		}
	}

	// View maintenance. Async views defer to the changefeed: the delta is
	// captured now but published only if the transaction commits, so an abort
	// leaves no view delta applied.
	if sys.Feed != nil {
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
			memo = new([]parentRow)
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
		if cur, err = readParent(ctx, rd, e.Parent, fk, opts.Read, memo); err != nil || cur == nil {
			return err
		}
		combined = phoenix.MergeCells(make([]hbase.Cell, 0, len(cur)+len(combined)), cur, combined)
	}
	viewInfo, err := sys.Catalog.Table(action.View.Name())
	if err != nil {
		return err
	}
	return sys.Engine.PutCells(ctx, viewInfo, combined, opts)
}

// readParent reads the row of table under key, or finds it in memo.
func readParent(ctx *sim.Ctx, rd hbase.Reader, table string, key []byte, read hbase.ReadOpts, memo *[]parentRow) ([]hbase.Cell, error) {
	if memo == nil {
		return phoenix.GetCells(ctx, rd, table, string(key), read)
	}
	for _, p := range *memo {
		if p.table == table && p.key == string(key) {
			return p.cells, nil
		}
	}
	k := string(key)
	cells, err := phoenix.GetCells(ctx, rd, table, k, read)
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
	old, err := phoenix.GetCells(ctx, sys.Engine.Reader(tx.opts), viewInfo.Name, parts.Key, tx.opts.Read)
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

// viewRows is one view's share of an update: the view and its located rows.
type viewRows struct {
	info *phoenix.TableInfo
	rows []viewRow
}

// maintainUpdate applies a base-table update to the views of actions. Under
// the hierarchical protocol (tx.lock) it is the 6-step procedure of §VIII-B,
// each step taken once for the statement: (1) lock held by the transaction,
// (2) read the affected rows of every view, (3) mark them all dirty, (4)
// update them all, (5) un-mark them all, (6) release at commit. Under MVCC
// and OCC the marking steps are skipped — snapshot visibility isolates
// readers. A row is updated by putting the assignment's cells on it; its
// index entries move when the key of the updated cells — the located cells
// under the assignment's — differs from the key of the located ones.
func (sys *System) maintainUpdate(ctx *sim.Ctx, tx *Tx, actions []core.ViewAction, parts writeParts) error {
	opts := tx.opts
	mark := tx.lock

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
	if mark && len(tx.deferred) > 0 {
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
	var kbuf, nbuf [64]byte
	// markAll emits one phase of marks and barriers it. The dirty-on phase
	// records the marked rows on the transaction (reusing the index keys
	// it already computes) so an abort can un-mark them; the un-mark phase
	// has nothing to record.
	markAll := func(value []byte, record bool) error {
		var refs []markRef
		if record {
			refs = make([]markRef, 0, located)
		}
		markCell := []hbase.Cell{{Qualifier: phoenix.DirtyQualifier, Value: value, TS: opts.TS}}
		for _, v := range views {
			for _, tg := range v.rows {
				if err := batch.PutQuiet(ctx, v.info.Name, tg.key, markCell); err != nil {
					return err
				}
				if record {
					refs = append(refs, markRef{v.info.Name, tg.key})
				}
				for _, idx := range v.info.Indexes {
					if idx.KeyOnly {
						continue
					}
					ikey := string(phoenix.AppendIndexKey(kbuf[:0], v.info, idx, tg.cells))
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
			tx.marks = refs
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
	// update, so the marked set is re-recorded from the keys this loop
	// computes — after the barrier an abort must un-mark the rows that are
	// actually marked now.
	var updatedRefs []markRef
	if mark {
		updatedRefs = make([]markRef, 0, len(tx.marks))
	}
	assign := phoenix.StampCells(parts.Cells, opts.TS)
	for _, v := range views {
		viewInfo := v.info
		for ti := range v.rows {
			tg := &v.rows[ti]
			if err := batch.Put(ctx, viewInfo.Name, tg.key, assign); err != nil {
				return err
			}
			if mark {
				updatedRefs = append(updatedRefs, markRef{viewInfo.Name, tg.key})
			}
			if len(viewInfo.Indexes) == 0 {
				continue
			}
			updated := phoenix.StampCells(phoenix.MergeCells(make([]hbase.Cell, 0, len(tg.cells)+len(assign)), tg.cells, assign), opts.TS)
			for _, idx := range viewInfo.Indexes {
				oldKey := phoenix.AppendIndexKey(kbuf[:0], viewInfo, idx, tg.cells)
				newKey := string(phoenix.AppendIndexKey(nbuf[:0], viewInfo, idx, updated))
				if mark && !idx.KeyOnly {
					updatedRefs = append(updatedRefs, markRef{idx.Name, newKey})
				}
				if string(oldKey) != newKey {
					// The old entry's tombstone is a real write: it must be in
					// the transaction's write set (phoenix.UpdateRow notifies
					// its moved base-index deletes the same way), or OCC
					// validation would admit a transaction that scanned the old
					// key's range as conflict-free.
					if err := batch.Delete(ctx, idx.Name, string(oldKey), opts.TS); err != nil {
						return err
					}
					cells := phoenix.IndexCells(viewInfo, idx, updated)
					if mark && !idx.KeyOnly {
						// A copy: updated is every covered entry's cells.
						cells = append(slices.Clip(cells), hbase.Cell{Qualifier: phoenix.DirtyQualifier, Value: dirtyOn, TS: opts.TS})
					}
					if err := batch.Put(ctx, idx.Name, newKey, cells); err != nil {
						return err
					}
					continue
				}
				if !phoenix.IndexTouched(viewInfo, idx, assign) {
					continue
				}
				if err := batch.Put(ctx, idx.Name, newKey, assign); err != nil {
					return err
				}
			}
			tg.cells = updated
		}
	}
	if !mark {
		return batch.Flush(ctx)
	}
	if err := batch.Barrier(ctx); err != nil {
		return err
	}
	tx.marks = updatedRefs
	if err := sys.phaseDone(phaseUpdated); err != nil {
		return err
	}

	// Step 5: un-mark.
	if err := markAll(dirtyOff, false); err != nil {
		return err
	}
	tx.marks = nil
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
// share. The paper's client (tx.eager) locates one view after the other.
func (sys *System) locateAll(ctx *sim.Ctx, tx *Tx, actions []core.ViewAction, parts writeParts) ([]viewRows, error) {
	rd := sys.Engine.Reader(tx.opts)
	var children []*sim.Ctx
	if !tx.eager && len(actions) > 1 {
		children = make([]*sim.Ctx, 0, len(actions))
	}
	views := make([]viewRows, 0, len(actions))
	var err error
	for _, action := range actions {
		var info *phoenix.TableInfo
		if info, err = sys.Catalog.Table(action.View.Name()); err != nil {
			break
		}
		lctx := ctx
		if children != nil {
			lctx = ctx.Fork()
			children = append(children, lctx)
		}
		var rows []viewRow
		if rows, err = sys.locateViewRows(lctx, rd, action, info, parts, tx.opts.Read); err != nil {
			break
		}
		if len(rows) > 0 {
			views = append(views, viewRows{info, rows})
		}
	}
	if children != nil {
		ctx.JoinWidth(sys.cfg.Costs.ScanParallelism, children...)
	}
	return views, err
}

// locateViewRows finds the view rows affected by an update per the plan's
// locator (§VII-C). All reads go through rd, so view tuples buffered by
// earlier statements of the same transaction are located too.
func (sys *System) locateViewRows(ctx *sim.Ctx, rd hbase.Reader, action core.ViewAction, viewInfo *phoenix.TableInfo, parts writeParts, read hbase.ReadOpts) ([]viewRow, error) {
	switch action.Locator {
	case core.LocateByViewKey:
		cells, err := phoenix.GetCells(ctx, rd, viewInfo.Name, parts.Key, read)
		if err != nil || cells == nil {
			return nil, err
		}
		return []viewRow{{parts.Key, cells}}, nil

	case core.LocateByIndex:
		// The maintenance index stores only keys (§VII-C); collect the view
		// keys its entries under the written row's key hold, then read the
		// full rows with one multi-get. Locator probes are short prefix
		// reads, so they stay sequential.
		sc, err := rd.OpenScan(ctx, action.LocatorIndex.Name(), hbase.ScanSpec{Prefix: parts.Key + string(schema.KeySep), Read: read, Sequential: true})
		if err != nil {
			return nil, err
		}
		// The keys are built back to back and cut out of one string.
		var kbuf [64]byte
		var bufArr [512]byte
		var endsArr [16]int
		buf, ends := bufArr[:0], endsArr[:0]
		for r, ok := sc.Next(ctx); ok; r, ok = sc.Next(ctx) {
			buf = append(buf, phoenix.AppendKeyOfRow(kbuf[:0], r.Cells, viewInfo.Key)...)
			ends = append(ends, len(buf))
		}
		if len(ends) == 0 {
			return nil, nil
		}
		all, keys := string(buf), make([]string, len(ends))
		for i, start := 0, 0; i < len(ends); start, i = ends[i], i+1 {
			keys[i] = all[start:ends[i]]
		}
		got, err := rd.GetMany(ctx, viewInfo.Name, keys, read)
		if err != nil {
			return nil, err
		}
		// The rows' cells share one arena.
		n := 0
		for _, r := range got {
			n += len(r.Cells)
		}
		arena := make([]hbase.Cell, 0, n)
		out := make([]viewRow, 0, len(got))
		for i, r := range got {
			if r.Empty() {
				continue
			}
			start := len(arena)
			arena = phoenix.AppendRowCells(arena, r)
			out = append(out, viewRow{keys[i], arena[start:len(arena):len(arena)]})
		}
		return out, nil

	default: // LocateByScan
		// A full view scan with a pushed-down filter — the written row's key
		// against the key of the row's cells for the relation, compared where
		// the row is read; a view fans out at its regions and guideposts like
		// any other full scan.
		pk, key := sys.Design.Schema.Relation(parts.Table.Name).PK, parts.Key
		sc, err := rd.OpenScan(ctx, viewInfo.Name, hbase.ScanSpec{
			Read: read,
			Filter: func(r hbase.RowResult) bool {
				var buf [64]byte
				return string(phoenix.AppendKeyOfRow(buf[:0], r.Cells, pk)) == key
			},
		})
		if err != nil {
			return nil, err
		}
		var out []viewRow
		for r, ok := sc.Next(ctx); ok; r, ok = sc.Next(ctx) {
			out = append(out, viewRow{r.Key, phoenix.AppendRowCells(nil, r)})
		}
		return out, nil
	}
}
