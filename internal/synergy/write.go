package synergy

import (
	"errors"
	"fmt"

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

// writeParts is a parsed write statement.
type writeParts struct {
	table   string
	kind    core.WriteKind
	row     schema.Row // insert: full row
	assign  schema.Row // update: SET assignments
	keyVals []schema.Value
}

func (sys *System) parseWrite(stmt sqlparser.Statement, params []schema.Value) (*writeParts, *phoenix.TableInfo, error) {
	switch s := stmt.(type) {
	case *sqlparser.InsertStmt:
		info, err := sys.Catalog.Table(s.Table)
		if err != nil {
			return nil, nil, err
		}
		cols := s.Columns
		if len(cols) == 0 {
			cols = info.ColumnNames()
		}
		if len(cols) != len(s.Values) {
			return nil, nil, fmt.Errorf("synergy: %d columns, %d values", len(cols), len(s.Values))
		}
		row := schema.Row{}
		for i, c := range cols {
			v, err := evalConst(s.Values[i], params)
			if err != nil {
				return nil, nil, err
			}
			row[c] = v
		}
		keyVals := make([]schema.Value, len(info.Key))
		for i, k := range info.Key {
			keyVals[i] = row[k]
			if row[k] == nil {
				return nil, nil, fmt.Errorf("%w: %s.%s", phoenix.ErrKeyNotSpecified, s.Table, k)
			}
		}
		return &writeParts{table: s.Table, kind: core.WriteInsert, row: row, keyVals: keyVals}, info, nil

	case *sqlparser.UpdateStmt:
		info, err := sys.Catalog.Table(s.Table)
		if err != nil {
			return nil, nil, err
		}
		keyVals, err := keyValsFromWhere(info, s.Where, params)
		if err != nil {
			return nil, nil, err
		}
		assign := schema.Row{}
		for _, a := range s.Set {
			v, err := evalConst(a.Value, params)
			if err != nil {
				return nil, nil, err
			}
			assign[a.Column] = v
		}
		return &writeParts{table: s.Table, kind: core.WriteUpdate, assign: assign, keyVals: keyVals}, info, nil

	case *sqlparser.DeleteStmt:
		info, err := sys.Catalog.Table(s.Table)
		if err != nil {
			return nil, nil, err
		}
		keyVals, err := keyValsFromWhere(info, s.Where, params)
		if err != nil {
			return nil, nil, err
		}
		return &writeParts{table: s.Table, kind: core.WriteDelete, keyVals: keyVals}, info, nil
	default:
		return nil, nil, fmt.Errorf("%w: %T", phoenix.ErrUnsupported, stmt)
	}
}

func evalConst(e sqlparser.Expr, params []schema.Value) (schema.Value, error) {
	switch x := e.(type) {
	case sqlparser.Literal:
		return x.Value, nil
	case sqlparser.Param:
		if x.Index >= len(params) {
			return nil, fmt.Errorf("synergy: missing parameter %d", x.Index)
		}
		return params[x.Index], nil
	default:
		return nil, fmt.Errorf("%w: %s", phoenix.ErrUnsupported, e)
	}
}

func keyValsFromWhere(info *phoenix.TableInfo, where []sqlparser.Predicate, params []schema.Value) ([]schema.Value, error) {
	bound := map[string]schema.Value{}
	for _, p := range where {
		col, ok := p.Left.(sqlparser.ColumnRef)
		if !ok || p.Op != sqlparser.OpEq {
			return nil, fmt.Errorf("%w: write WHERE must be key equality (%s)", phoenix.ErrUnsupported, p)
		}
		v, err := evalConst(p.Right, params)
		if err != nil {
			return nil, err
		}
		bound[col.Column] = v
	}
	out := make([]schema.Value, len(info.Key))
	for i, k := range info.Key {
		v, ok := bound[k]
		if !ok {
			return nil, fmt.Errorf("%w: %s.%s", phoenix.ErrKeyNotSpecified, info.Name, k)
		}
		out[i] = v
	}
	return out, nil
}

// Tx is the write-pipeline state of one in-flight transaction: under
// hierarchical locking the §VIII procedure (root locks held to commit,
// dirty marking around multi-row view updates), under MVCC a Tephra-like
// snapshot transaction. A transaction owns one BufferedMutator for its
// whole lifetime: every statement emits into it, reads consult its
// read-your-writes overlay, the maintenance protocol's phase barriers flush
// it mid-flight, Commit flushes it once (one batch-RPC round, one WAL sync
// per touched region) and releases the locks, and Abort discards it with
// nothing buffered persisted.
type Tx struct {
	sys     *System
	opts    phoenix.WriteOpts
	mutator *hbase.BufferedMutator // nil in per-statement / sequential modes
	mvccTx  *mvcc.Tx               // nil unless Concurrency == MVCC
	occTx   *occ.Tx                // nil unless Concurrency == OCC
	lock    bool                   // hierarchical: root locks + dirty marks

	locks   []lockRef
	lockSet map[lockRef]struct{}
	// deferred are fresh-root-insert lock entries riding the commit flush
	// as conditional batch entries instead of being self-acquired (see
	// LockManager.EnsureEntryDeferred). While a ref is deferred the root
	// row is still unpublished; any phase barrier promotes all deferred
	// refs to held locks before it flushes.
	deferred []lockRef
	// marks are dirty marks a phase barrier has flushed but the protocol
	// has not yet un-marked; Abort un-marks them eagerly so an aborted
	// transaction never leaves rows permanently dirty (readers would
	// restart forever).
	marks []markRef
	// deltas are view-maintenance actions deferred to the changefeed
	// (async/hybrid views): captured during statement execution, published
	// only on commit, dropped on abort.
	deltas []viewDelta
	stmts  int // statements executed (MVCC checkpoints between them)
	done   bool
}

// viewDelta is one deferred view-maintenance action: enough to replay the
// §VII construction procedure for one view from the background applier.
type viewDelta struct {
	view   string
	action core.ViewAction
	parts  *writeParts
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
	switch sys.cfg.Concurrency {
	case MVCC:
		t := sys.MVCCServer.Begin(ctx)
		tx.mvccTx = t
		tx.opts = phoenix.WriteOpts{TS: t.ID(), Read: t.ReadOpts(), OnWrite: t.RecordWrite, Sequential: sys.cfg.SequentialWrites}
	case OCC:
		t := sys.OCC.Begin(ctx)
		tx.occTx = t
		tx.opts = phoenix.WriteOpts{Read: t.ReadOpts(), OnWrite: t.RecordWrite}
	default:
		tx.opts = phoenix.WriteOpts{Sequential: sys.cfg.SequentialWrites}
	}
	// SequentialWrites (eager per-mutation RPCs) and StatementFlush
	// (PR-2-style statement-scoped batches) both keep the per-statement
	// pipeline; otherwise the transaction owns the mutator. OCC has no
	// per-statement variant: nothing may reach the store before validation
	// passes, so the transaction-scoped mutator is mandatory and the two
	// pipeline knobs are ignored.
	if sys.cfg.Concurrency == OCC || (!sys.cfg.SequentialWrites && !sys.cfg.StatementFlush) {
		tx.mutator = sys.Engine.Client().NewTxMutator()
		tx.opts.Mutator = tx.mutator
	}
	if tx.occTx != nil {
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
// freshness contract (a Session passes its own). See queryStream.
func (tx *Tx) Query(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (*phoenix.ResultSet, error) {
	cur, err := tx.queryStream(ctx, sel, params, tx.sys.cfg.AsyncReads)
	if err != nil {
		return nil, err
	}
	return phoenix.DrainCursor(ctx, cur)
}

// queryStream runs a SELECT inside the transaction as a cursor. The query
// runs its view-based rewrite, and reads see the transaction's own buffered
// writes: under hierarchical locking the mutator overlay merges over
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
func (tx *Tx) queryStream(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value, reads ViewReadMode) (phoenix.RowCursor, error) {
	if tx.done {
		return nil, fmt.Errorf("synergy: transaction already finished")
	}
	sys := tx.sys
	stmt := sys.rewriteFor(sel)
	var readTS int64
	switch {
	case tx.mvccTx != nil:
		readTS = tx.mvccTx.ID()
	case tx.occTx != nil:
		readTS = tx.occTx.Snapshot()
	default:
		readTS = sys.Store.CurrentTS()
	}
	if sys.Feed != nil && reads == ReadWatermark {
		for _, v := range sys.asyncViewsIn(stmt) {
			sys.Feed.WaitWatermark(ctx, v, readTS)
		}
	}
	opts := phoenix.QueryOpts{OnViewScan: sys.staleObserver(readTS, reads)}
	switch {
	case tx.occTx != nil:
		opts.Read = tx.occTx.ReadOpts()
		opts.Reader = tx.opts.Reader
	case tx.mvccTx != nil:
		opts.Read = tx.opts.Read // checkpoint-current snapshot
		if tx.mutator != nil {
			opts.View = tx.mutator.View()
		}
	default:
		opts.DirtyCheck = true
		if tx.mutator != nil {
			opts.View = tx.mutator.View()
		}
	}
	return sys.Engine.QueryStreamOpts(ctx, stmt, params, opts)
}

// Commit flushes every buffered mutation as one region-grouped batch round,
// finishes the MVCC transaction when present, and releases the held locks —
// writes become visible before the locks free, preserving the §VIII
// protocol. An OCC transaction validates first: only a commit whose read
// set survived backward validation flushes anything, and a conflict returns
// occ.ErrConflict with the buffer discarded untouched.
func (tx *Tx) Commit(ctx *sim.Ctx) error {
	if tx.done {
		return fmt.Errorf("synergy: transaction already finished")
	}
	tx.done = true
	if tx.occTx != nil {
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
		return nil
	}
	if tx.mutator != nil {
		// Lock entries for fresh root inserts that stayed deferred to the
		// end (no barrier or same-group statement promoted them) join the
		// commit flush as conditional create-free batch entries.
		for _, ref := range tx.deferred {
			if err := tx.sys.Locks.EnsureEntryDeferred(ctx, tx.mutator, ref.root, ref.key); err != nil {
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
	}
	if tx.mvccTx != nil {
		if err := tx.sys.MVCCServer.Commit(ctx, tx.mvccTx); err != nil {
			return err
		}
		tx.publishDeltas(ctx)
		return nil
	}
	// Publish before the locks release: lock serialization on a root makes
	// the per-view publish order match commit order, so each changefeed lane
	// applies deltas FIFO in commit order.
	tx.publishDeltas(ctx)
	return tx.releaseLocks(ctx)
}

// publishDeltas hands the transaction's deferred view deltas to the
// changefeed, tagged with the commit timestamp: the high stamp of the
// transaction's flushes when it owned a mutator, else the store clock (an
// upper bound — eager-write modes stamped everything at or below it).
func (tx *Tx) publishDeltas(ctx *sim.Ctx) {
	if len(tx.deltas) == 0 {
		return
	}
	sys := tx.sys
	commitTS := sys.Store.CurrentTS()
	if tx.mutator != nil {
		if ts := tx.mutator.FlushTS(); ts > 0 {
			commitTS = ts
		}
	}
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

// deferMaintenance reports whether this view's maintenance for this write
// kind rides the changefeed instead of the writing statement.
func (tx *Tx) deferMaintenance(kind core.WriteKind, view string) bool {
	if tx.sys.Feed == nil {
		return false
	}
	switch tx.sys.maintModeFor(view) {
	case AsyncMaintenance:
		return true
	case HybridMaintenance:
		// Inserts and deletes stay synchronous (a view tuple's existence is
		// never stale); only the multi-row update phase is deferred.
		return kind == core.WriteUpdate
	}
	return false
}

// applyDelta replays one deferred maintenance action from the changefeed
// applier. The apply runs as its own statement-scoped write: no locks and no
// dirty marks (readers of an async view accept staleness instead of
// restarts), no transaction overlay (the base writes are flushed and
// visible), and zero-TS mutations pick up fresh oracle stamps at flush — so
// a snapshot begun after the apply sees the maintained view under every
// concurrency mode.
func (sys *System) applyDelta(ctx *sim.Ctx, d viewDelta) error {
	atx := &Tx{sys: sys, opts: phoenix.WriteOpts{}}
	switch d.parts.kind {
	case core.WriteInsert:
		return sys.maintainInsert(ctx, atx, d.action, d.parts)
	case core.WriteDelete:
		return sys.maintainDelete(ctx, atx, d.action, d.parts)
	default:
		return sys.maintainUpdate(ctx, atx, d.action, d.parts)
	}
}

// Abort discards the buffered mutations unapplied, eagerly un-marks any
// dirty marks a phase barrier already flushed, invalidates the MVCC
// transaction when present, and releases every held lock. Work a barrier
// already persisted stays durable — under MVCC it is invisible (the
// transaction id is invalidated); under hierarchical locking §VIII-B has no
// undo, which is why barriers only fire inside the marked window.
func (tx *Tx) Abort(ctx *sim.Ctx) error {
	if tx.done {
		return nil
	}
	tx.done = true
	tx.deltas = nil // deferred maintenance dies with the transaction
	if tx.mutator != nil {
		tx.mutator.Discard()
	}
	var first error
	if len(tx.marks) > 0 {
		first = tx.sys.unmarkEager(ctx, tx.marks, tx.opts)
		tx.marks = nil
	}
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

func (tx *Tx) releaseLocks(ctx *sim.Ctx) error {
	var first error
	for i := len(tx.locks) - 1; i >= 0; i-- {
		if err := tx.sys.Locks.Release(ctx, tx.locks[i].root, tx.locks[i].key); err != nil && first == nil {
			first = err
		}
	}
	// Deferred entries were never held: on commit the flush just created
	// them free; on abort the discarded buffer never created them.
	tx.locks, tx.lockSet, tx.deferred = nil, nil, nil
	return first
}

// unmarkEager writes dirty-off marks for flushed-but-not-unmarked rows on
// the abort path, through a private statement-scoped batch (the
// transaction's own mutator was just discarded).
func (sys *System) unmarkEager(ctx *sim.Ctx, marks []markRef, opts phoenix.WriteOpts) error {
	b := sys.Engine.NewWriteBatch(phoenix.WriteOpts{TS: opts.TS, Sequential: opts.Sequential})
	for _, mk := range marks {
		cell := []hbase.Cell{{Qualifier: phoenix.DirtyQualifier, Value: dirtyOff, TS: opts.TS}}
		if err := b.PutQuiet(ctx, mk.table, mk.key, cell); err != nil {
			return err
		}
	}
	return b.Flush(ctx)
}

// resolveRootKey walks the lock chain upward — child foreign key to parent
// primary key — to find the root-relation row key this write must lock
// (§VIII-A "to update a row for a relation in a rooted tree, we acquire the
// lock on the key of the associated row in the root relation"). Parent
// lookups go through rd so rows buffered by earlier statements of the same
// transaction resolve.
func (sys *System) resolveRootKey(ctx *sim.Ctx, rd hbase.Reader, plan *core.WritePlan, baseRow schema.Row) (string, error) {
	if plan.Root == "" {
		return "", nil
	}
	if plan.Root == plan.Table {
		info, err := sys.Catalog.Table(plan.Table)
		if err != nil {
			return "", err
		}
		return phoenix.PrimaryKey(info, baseRow)
	}
	cur := baseRow
	chain := plan.LockChain
	for i := len(chain) - 1; i >= 0; i-- {
		e := chain[i]
		fkVals := make([]schema.Value, len(e.FK))
		for j, c := range e.FK {
			fkVals[j] = cur[c]
			if cur[c] == nil {
				return "", nil // dangling reference: nothing to lock
			}
		}
		if i == 0 {
			// The FK values are the root's primary key.
			return schema.EncodeKey(fkVals...), nil
		}
		parentInfo, err := sys.Catalog.Table(e.Parent)
		if err != nil {
			return "", err
		}
		parentRow, found, err := sys.Engine.GetRowVia(ctx, rd, parentInfo, hbase.ReadOpts{}, fkVals...)
		if err != nil {
			return "", err
		}
		if !found {
			return "", nil
		}
		cur = parentRow
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

// ExecuteTxn runs stmts as one transaction on the local system: one
// transaction-scoped mutator shared by every statement, locks held to
// commit, a single commit flush. A statement error aborts the transaction —
// buffered mutations are discarded, flushed dirty marks un-marked, locks
// released. Note the §VIII-B durability caveat: under hierarchical locking
// a marked multi-row update's phase barriers flush everything buffered so
// far, and there is no undo log — an abort after such a barrier keeps that
// flushed work durable (under MVCC it is invisible instead, via the
// invalidated transaction id). Under OCC a validation conflict retries the
// whole transaction from a fresh snapshot with capped exponential backoff —
// the optimistic mirror of the lock path's contended spin — before
// surfacing occ.ErrConflict; a retried attempt re-executes every statement,
// and an aborted attempt has flushed nothing (OCC runs no phase barriers),
// so retry leaves no dirty marks and no partial state. The transaction
// layer calls this after WAL-logging; use System.ExecTxn to route through
// it.
func (sys *System) ExecuteTxn(ctx *sim.Ctx, stmts []sqlparser.Statement, paramsList [][]schema.Value) error {
	if len(stmts) != len(paramsList) {
		return fmt.Errorf("synergy: %d statements, %d parameter lists", len(stmts), len(paramsList))
	}
	maxRetries := sys.cfg.Costs.OCCMaxRetries
	if maxRetries <= 0 {
		maxRetries = 1
	}
	for attempt := 0; ; attempt++ {
		err := sys.executeTxnOnce(ctx, stmts, paramsList)
		if err == nil || !errors.Is(err, occ.ErrConflict) || attempt+1 >= maxRetries {
			return err
		}
		ctx.CountOCCRetry()
		// Conflict retries back off on the lock path's capped exponential
		// schedule before re-running from a fresh snapshot.
		ctx.Charge(sys.cfg.Costs.LockBackoff(attempt))
	}
}

// executeTxnOnce runs one attempt of the transaction.
func (sys *System) executeTxnOnce(ctx *sim.Ctx, stmts []sqlparser.Statement, paramsList [][]schema.Value) error {
	tx := sys.BeginTx(ctx)
	if tx.occTx != nil && sys.occPostBegin != nil {
		sys.occPostBegin()
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

// executeWriteBody is the shared base-write + view-maintenance procedure of
// one statement inside tx.
func (sys *System) executeWriteBody(ctx *sim.Ctx, tx *Tx, stmt sqlparser.Statement, params []schema.Value) error {
	opts := tx.opts
	parts, info, err := sys.parseWrite(stmt, params)
	if err != nil {
		return err
	}
	if sys.cfg.DisableViews {
		// Baseline deployment: plain Phoenix write.
		return sys.Engine.Exec(ctx, stmt, params, opts)
	}
	plan, err := core.PlanWrite(sys.Design, stmt)
	if err != nil {
		return err
	}

	// Materialize the base row: inserts carry it; updates/deletes read it
	// (also needed for view maintenance). The read goes through the
	// transaction's overlay so rows written by earlier statements of the
	// same transaction — still buffered, invisible in the store — resolve.
	rd := sys.Engine.Reader(opts)
	baseRow := parts.row
	if parts.kind != core.WriteInsert {
		row, found, err := sys.Engine.GetRowVia(ctx, rd, info, opts.Read, parts.keyVals...)
		if err != nil {
			return err
		}
		if !found {
			return nil // nothing to write
		}
		baseRow = row
	}

	// Step 1: acquire the single lock, held until the transaction commits.
	// A fresh root insert on a buffered transaction skips self-acquisition:
	// the new row is unpublished until a barrier or the commit flush, so no
	// concurrent transaction can resolve its group yet — its lock entry is
	// deferred into the commit flush below, and any phase barrier promotes
	// it to a held lock before publishing (see EnsureEntryDeferred).
	if tx.lock {
		rootKey, err := sys.resolveRootKey(ctx, rd, plan, baseRow)
		if err != nil {
			return err
		}
		deferEntry := tx.mutator != nil && parts.kind == core.WriteInsert && plan.Root == parts.table
		if plan.Root != "" && rootKey != "" && !deferEntry {
			if err := tx.acquireLock(ctx, plan.Root, rootKey); err != nil {
				return err
			}
		}
	}

	// Base write (+ base indexes) through the SQL layer, emitting into the
	// transaction's mutator.
	if err := sys.Engine.Exec(ctx, stmt, params, opts); err != nil {
		return err
	}
	// New root rows get a lock-table entry (§VIII-A). On a buffered
	// transaction the self-lock was skipped above and the entry is only
	// recorded here: Commit buffers a conditional create-free batch entry
	// for every ref still deferred (see EnsureEntryDeferred), while a ref
	// promoted to a held lock meanwhile needs no entry write at all —
	// Acquire created it and Release frees it. Buffer-less modes
	// self-acquired in step 1, so the held-lock check keeps this from
	// overwriting their live lock; the eager put stays as the fallback
	// for refs locked some other way.
	if tx.lock && parts.kind == core.WriteInsert && sys.isRoot(parts.table) {
		key, _ := phoenix.PrimaryKey(info, parts.row)
		ref := lockRef{parts.table, key}
		if _, held := tx.lockSet[ref]; !held {
			if tx.mutator != nil {
				if !tx.isDeferred(ref) {
					tx.deferred = append(tx.deferred, ref)
				}
			} else if err := sys.Locks.EnsureEntry(ctx, parts.table, key); err != nil {
				return err
			}
		}
	}

	// View maintenance. Async (and, for updates, hybrid) views defer to the
	// changefeed: the delta is captured now but published only if the
	// transaction commits, so an abort leaves no view delta applied.
	for _, action := range plan.Actions {
		if tx.deferMaintenance(parts.kind, action.View.Name()) {
			tx.deltas = append(tx.deltas, viewDelta{view: action.View.Name(), action: action, parts: parts})
			continue
		}
		switch parts.kind {
		case core.WriteInsert:
			if err := sys.maintainInsert(ctx, tx, action, parts); err != nil {
				return err
			}
		case core.WriteDelete:
			if err := sys.maintainDelete(ctx, tx, action, parts); err != nil {
				return err
			}
		case core.WriteUpdate:
			if err := sys.maintainUpdate(ctx, tx, action, parts); err != nil {
				return err
			}
		}
	}
	return nil
}

// maintainInsert constructs and inserts the view tuple (§VII-A2): read the
// k-1 related base rows walking the foreign keys upward (through the
// transaction overlay), merge, insert.
func (sys *System) maintainInsert(ctx *sim.Ctx, tx *Tx, action core.ViewAction, parts *writeParts) error {
	opts := tx.opts
	rd := sys.Engine.Reader(opts)
	combined := parts.row.Clone()
	cur := parts.row
	for _, e := range action.ReadChain {
		fkVals := make([]schema.Value, len(e.FK))
		for j, c := range e.FK {
			fkVals[j] = cur[c]
			if cur[c] == nil {
				return nil // dangling FK: no view tuple
			}
		}
		parentInfo, err := sys.Catalog.Table(e.Parent)
		if err != nil {
			return err
		}
		parentRow, found, err := sys.Engine.GetRowVia(ctx, rd, parentInfo, opts.Read, fkVals...)
		if err != nil {
			return err
		}
		if !found {
			return nil
		}
		for k, v := range parentRow {
			combined[k] = v
		}
		cur = parentRow
	}
	viewInfo, err := sys.Catalog.Table(action.View.Name())
	if err != nil {
		return err
	}
	return sys.Engine.PutRow(ctx, viewInfo, combined, opts)
}

// maintainDelete removes the view tuple: the view key equals the base key
// (the deleted relation is the view's last); the view row is read first to
// construct the view-index keys (§VII-B2).
func (sys *System) maintainDelete(ctx *sim.Ctx, tx *Tx, action core.ViewAction, parts *writeParts) error {
	viewInfo, err := sys.Catalog.Table(action.View.Name())
	if err != nil {
		return err
	}
	return sys.Engine.DeleteRow(ctx, viewInfo, parts.keyVals, tx.opts)
}

// maintainUpdate applies a base-table update to a view. Under the
// hierarchical protocol (tx.lock) it is the 6-step procedure of §VIII-B:
// (1) lock held by the transaction, (2) read affected rows, (3) mark them
// dirty, (4) update, (5) un-mark, (6) release at commit. Under MVCC the
// marking steps are skipped — snapshot visibility isolates readers.
func (sys *System) maintainUpdate(ctx *sim.Ctx, tx *Tx, action core.ViewAction, parts *writeParts) error {
	opts := tx.opts
	mark := tx.lock
	viewInfo, err := sys.Catalog.Table(action.View.Name())
	if err != nil {
		return err
	}

	// Step 2: read the view rows that need updating (overlay-aware: a view
	// tuple an earlier statement inserted but has not flushed is located).
	rows, err := sys.locateViewRows(ctx, sys.Engine.Reader(opts), action, viewInfo, parts, opts.Read)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
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

	type target struct {
		viewKey string
		row     schema.Row
	}
	targets := make([]target, 0, len(rows))
	for _, r := range rows {
		key, err := phoenix.PrimaryKey(viewInfo, r)
		if err != nil {
			return err
		}
		targets = append(targets, target{viewKey: key, row: r})
	}

	// Each phase of the protocol ends in an ordering barrier: the dirty
	// marks flush before any update is issued, the updates flush before any
	// row is un-marked. On a transaction-scoped mutator a barrier also
	// flushes whatever earlier statements buffered — buffer order is
	// preserved across it, so the §VIII-B ordering holds for the whole
	// transaction. Within a phase, mutations to independent rows carry no
	// ordering requirement and ship as region-grouped batch RPCs. Marks are
	// quiet (not part of the MVCC write set); under MVCC no barrier fires —
	// everything rides to the commit flush. The transaction records flushed
	// marks so an abort can un-mark them.
	batch := sys.Engine.NewWriteBatch(opts)
	markCell := func(v []byte) []hbase.Cell {
		return []hbase.Cell{{Qualifier: phoenix.DirtyQualifier, Value: v, TS: opts.TS}}
	}
	putCells := func(row schema.Row) []hbase.Cell {
		return phoenix.StampCells(phoenix.RowToCells(row), opts.TS)
	}
	// markAll emits one phase of marks and barriers it. The dirty-on phase
	// records the marked rows on the transaction (reusing the index keys
	// it already computes) so an abort can un-mark them; the un-mark phase
	// has nothing to record.
	markAll := func(value []byte, record bool) error {
		var refs []markRef
		if record {
			refs = make([]markRef, 0, len(targets))
		}
		for _, tg := range targets {
			if err := batch.PutQuiet(ctx, viewInfo.Name, tg.viewKey, markCell(value)); err != nil {
				return err
			}
			if record {
				refs = append(refs, markRef{viewInfo.Name, tg.viewKey})
			}
			for _, idx := range viewInfo.Indexes {
				if idx.KeyOnly {
					continue
				}
				ikey := phoenix.IndexKey(viewInfo, idx, tg.row)
				if err := batch.PutQuiet(ctx, idx.Name, ikey, markCell(value)); err != nil {
					return err
				}
				if record {
					refs = append(refs, markRef{idx.Name, ikey})
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
	}

	// Step 4: issue the updates as one batch. Index keys may move with the
	// update, so the marked set is re-recorded from the keys this loop
	// computes — after the barrier an abort must un-mark the rows that are
	// actually marked now.
	var updatedRefs []markRef
	if mark {
		updatedRefs = make([]markRef, 0, len(tx.marks))
	}
	for ti := range targets {
		tg := &targets[ti]
		updated := tg.row.Clone()
		for c, v := range parts.assign {
			updated[c] = v
		}
		if err := batch.Put(ctx, viewInfo.Name, tg.viewKey, putCells(parts.assign)); err != nil {
			return err
		}
		if mark {
			updatedRefs = append(updatedRefs, markRef{viewInfo.Name, tg.viewKey})
		}
		for _, idx := range viewInfo.Indexes {
			oldKey := phoenix.IndexKey(viewInfo, idx, tg.row)
			newKey := phoenix.IndexKey(viewInfo, idx, updated)
			if mark && !idx.KeyOnly {
				updatedRefs = append(updatedRefs, markRef{idx.Name, newKey})
			}
			if oldKey != newKey {
				// The old entry's tombstone is a real write: it must be in
				// the transaction's write set (phoenix.UpdateRow notifies
				// its moved base-index deletes the same way), or OCC
				// validation would admit a transaction that scanned the old
				// key's range as conflict-free.
				if err := batch.Delete(ctx, idx.Name, oldKey, opts.TS); err != nil {
					return err
				}
				cells := phoenix.IndexCells(viewInfo, idx, putCells(updated))
				if mark && !idx.KeyOnly {
					cells = append(cells, hbase.Cell{Qualifier: phoenix.DirtyQualifier, Value: dirtyOn, TS: opts.TS})
				}
				if err := batch.Put(ctx, idx.Name, newKey, cells); err != nil {
					return err
				}
				continue
			}
			if !phoenix.IndexTouched(viewInfo, idx, parts.assign) {
				continue
			}
			if err := batch.Put(ctx, idx.Name, newKey, putCells(parts.assign)); err != nil {
				return err
			}
		}
		tg.row = updated
	}
	if mark {
		if err := batch.Barrier(ctx); err != nil {
			return err
		}
		tx.marks = updatedRefs
	} else if err := batch.Flush(ctx); err != nil {
		return err
	}

	// Step 5: un-mark.
	if mark {
		if err := markAll(dirtyOff, false); err != nil {
			return err
		}
		tx.marks = nil
	}
	return nil
}

// locateViewRows finds the view rows affected by an update per the plan's
// locator (§VII-C). All reads go through rd, so view tuples buffered by
// earlier statements of the same transaction are located too.
func (sys *System) locateViewRows(ctx *sim.Ctx, rd hbase.Reader, action core.ViewAction, viewInfo *phoenix.TableInfo, parts *writeParts, read hbase.ReadOpts) ([]schema.Row, error) {
	switch action.Locator {
	case core.LocateByViewKey:
		row, found, err := sys.Engine.GetRowVia(ctx, rd, viewInfo, read, parts.keyVals...)
		if err != nil || !found {
			return nil, err
		}
		return []schema.Row{row}, nil

	case core.LocateByIndex:
		// The maintenance index stores only keys (§VII-C); collect the
		// view keys it yields, then read the full rows. Locator probes
		// are short prefix reads, so they stay sequential.
		prefix := schema.KeyPrefix(parts.keyVals...)
		sc, err := rd.OpenScan(ctx, action.LocatorIndex.Name(), hbase.ScanSpec{Prefix: prefix, Read: read, Sequential: true})
		if err != nil {
			return nil, err
		}
		var keys [][]schema.Value
		for {
			r, ok := sc.Next(ctx)
			if !ok {
				break
			}
			row := phoenix.CellsToRow(r)
			vals := make([]schema.Value, len(viewInfo.Key))
			for i, c := range viewInfo.Key {
				vals[i] = row[c]
			}
			keys = append(keys, vals)
		}
		var out []schema.Row
		for _, vals := range keys {
			full, found, err := sys.Engine.GetRowVia(ctx, rd, viewInfo, read, vals...)
			if err != nil {
				return nil, err
			}
			if found {
				out = append(out, full)
			}
		}
		return out, nil

	default: // LocateByScan
		// A full view scan with a pushed-down filter; multi-region views
		// scatter-gather the regions like any other full scan.
		rel := sys.Design.Schema.Relation(parts.table)
		pk := rel.PK
		keyVals := parts.keyVals
		sc, err := rd.OpenScan(ctx, viewInfo.Name, hbase.ScanSpec{
			Read: read,
			Filter: func(r hbase.RowResult) bool {
				row := phoenix.CellsToRow(r)
				for i, c := range pk {
					if !schema.ValuesEqual(row[c], keyVals[i]) {
						return false
					}
				}
				return true
			},
		})
		if err != nil {
			return nil, err
		}
		var out []schema.Row
		for {
			r, ok := sc.Next(ctx)
			if !ok {
				return out, nil
			}
			out = append(out, phoenix.CellsToRow(r))
		}
	}
}
