package synergy

import (
	"errors"
	"sync"

	"synergy/internal/mvcc"
	"synergy/internal/occ"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
)

// txnControl is the concurrency control mechanism (Figure 13): everything the
// write path asks of it. New picks hierarchical locks (lockControl),
// Tephra-like MVCC (mvccControl) or backward-validation OCC (occControl). The
// System's value answers begin, read and retries; begin returns the value a
// transaction holds (Tx.ctl), which answers the rest and lives in the
// transaction's own storage (Tx.controls). Every mechanism's commit is one
// sequence (Tx.commit).
type txnControl interface {
	// begin starts a transaction on tx, whose mutator exists, setting the
	// timestamp, read options, write hook and reader of tx.opts. An
	// exclusive attempt (ExecuteTxn's last) runs alone until it ends.
	begin(ctx *sim.Ctx, tx *Tx, exclusive bool) txnControl
	flushesEarly() bool             // the mutator may publish before commit
	locks() bool                    // the §VIII root-lock/dirty-mark protocol runs
	readPoint(tx *Tx) int64         // what the ReadWatermark gate waits to
	statement(ctx *sim.Ctx, tx *Tx) // before each statement
	// beforeFlush runs before the commit flush; when it fails, it has ended
	// the control and nothing is flushed. afterFlush ends the control given
	// the flush's error and returns the commit's.
	beforeFlush(ctx *sim.Ctx, tx *Tx) error
	afterFlush(ctx *sim.Ctx, flushErr error) error
	abort(ctx *sim.Ctx)
	// read opens an autocommit read (Session.Open) that cuts its key bounds
	// from strs.
	read(ctx *sim.Ctx, sys *System, p *Prepared, params []schema.Arg, reads ViewReadMode, strs *phoenix.StringBlock) (phoenix.RowCursor, error)
	retries(err error) bool // ExecuteTxn runs the transaction again
}

// lockControl is hierarchical locking (§VIII). Its lock and mark bookkeeping
// lives on Tx, where the write path drives it, so a transaction's control is
// the System's stateless value.
type lockControl struct{}

func (c lockControl) begin(*sim.Ctx, *Tx, bool) txnControl { return c }
func (lockControl) flushesEarly() bool                     { return true }
func (lockControl) locks() bool                            { return true }
func (lockControl) readPoint(tx *Tx) int64                 { return tx.sys.Store.CurrentTS() }
func (lockControl) statement(*sim.Ctx, *Tx)                {}
func (lockControl) beforeFlush(*sim.Ctx, *Tx) error        { return nil }
func (lockControl) afterFlush(_ *sim.Ctx, err error) error { return err }
func (lockControl) abort(*sim.Ctx)                         {}
func (lockControl) retries(error) bool                     { return false }

// read sees the latest committed state, with the dirty-read restart protocol
// (§VIII-C) guarding view scans.
func (lockControl) read(ctx *sim.Ctx, sys *System, p *Prepared, params []schema.Arg, reads ViewReadMode, strs *phoenix.StringBlock) (phoenix.RowCursor, error) {
	sys.countStale(ctx, p, sys.Store.CurrentTS(), reads)
	return p.plan.Open(ctx, params, phoenix.QueryOpts{DirtyCheck: true, Strings: strs})
}

// mvccControl is the snapshot transaction of the MVCC-A, MVCC-UA and
// Baseline systems (§IX-D2). Writes carry the transaction's write pointer,
// invisible to others until Commit and invalidated by an abort, so they may
// reach the store early.
type mvccControl struct {
	srv *mvcc.Server
	tx  *mvcc.Tx // nil on the System's value
	// stmt: a statement ran, so the next starts at a fresh checkpoint, where
	// this one's tombstones cannot shadow its puts at an equal stamp.
	stmt bool
}

func (c *mvccControl) begin(ctx *sim.Ctx, tx *Tx, _ bool) txnControl {
	t := c.srv.Begin(ctx)
	tx.opts.TS, tx.opts.Read, tx.opts.OnWrite, tx.opts.Notes = t.ID(), t.ReadOpts(), t.OnWrite(), t.Notes()
	tx.controls.mvcc = mvccControl{srv: c.srv, tx: t}
	return &tx.controls.mvcc
}

func (*mvccControl) flushesEarly() bool              { return true }
func (*mvccControl) locks() bool                     { return false }
func (c *mvccControl) readPoint(*Tx) int64           { return c.tx.ID() }
func (*mvccControl) beforeFlush(*sim.Ctx, *Tx) error { return nil }
func (c *mvccControl) abort(ctx *sim.Ctx)            { c.srv.Abort(ctx, c.tx) }
func (*mvccControl) retries(error) bool              { return false }

func (c *mvccControl) statement(ctx *sim.Ctx, tx *Tx) {
	if c.stmt {
		c.tx.Checkpoint(ctx)
		tx.opts.TS, tx.opts.Read = c.tx.ID(), c.tx.ReadOpts()
	}
	c.stmt = true
}

// afterFlush runs the write-write check (Commit) once the writes landed.
func (c *mvccControl) afterFlush(ctx *sim.Ctx, err error) error {
	if err != nil {
		c.srv.Abort(ctx, c.tx)
		return err
	}
	return c.srv.Commit(ctx, c.tx)
}

// read runs in a snapshot transaction the cursor's Close commits
// (QueryOpts.Commit); one whose statement fails to open is aborted.
func (c *mvccControl) read(ctx *sim.Ctx, sys *System, p *Prepared, params []schema.Arg, reads ViewReadMode, strs *phoenix.StringBlock) (phoenix.RowCursor, error) {
	tx := c.srv.Begin(ctx)
	sys.countStale(ctx, p, tx.ID(), reads)
	cur, err := p.plan.Open(ctx, params, phoenix.QueryOpts{Read: tx.ReadOpts(), Commit: tx, Strings: strs})
	if err != nil {
		c.srv.Abort(ctx, tx)
		return nil, err
	}
	return cur, nil
}

// occControl is backward validation (Larson et al.): a transaction runs
// lock-free on a begin-timestamp snapshot, records what it reads and writes,
// and validates before its commit flush. Nothing may reach the store before
// validation passes, so its mutator never flushes early.
type occControl struct {
	v *occ.Validator
	// gate lets ExecuteTxn's last attempt run alone: every commit validates,
	// flushes and finalizes under its read lock, and that attempt holds its
	// write lock from its begin to its end.
	gate      *sync.RWMutex
	tx        *occ.Tx // nil on the System's value
	exclusive bool    // holds gate's write lock
}

func (c *occControl) begin(ctx *sim.Ctx, tx *Tx, exclusive bool) txnControl {
	if exclusive {
		c.gate.Lock()
	}
	t := c.v.Begin(ctx)
	// Every read of the write path goes through the tracking reader, so the
	// read set is complete — scan ranges too, which catch phantoms.
	tx.opts.Read, tx.opts.OnWrite, tx.opts.Reader = t.ReadOpts(), t.RecordWrite, t.Track(tx.s.mutator.View())
	tx.controls.occ = occControl{v: c.v, gate: c.gate, tx: t, exclusive: exclusive}
	return &tx.controls.occ
}

func (*occControl) flushesEarly() bool      { return false }
func (*occControl) locks() bool             { return false }
func (c *occControl) readPoint(*Tx) int64   { return c.tx.Snapshot() }
func (*occControl) statement(*sim.Ctx, *Tx) {}
func (*occControl) retries(err error) bool  { return errors.Is(err, occ.ErrConflict) }

// beforeFlush validates, reserving the commit's cell stamps inside the
// validator's critical section (StampPending), so the flushed cells form one
// atomic block under every snapshot horizon.
func (c *occControl) beforeFlush(ctx *sim.Ctx, tx *Tx) error {
	if !c.exclusive {
		c.gate.RLock()
	}
	err := c.v.Validate(ctx, c.tx, tx.s.mutator.StampPending)
	if err != nil {
		c.release()
	}
	return err
}

// afterFlush publishes the commit, which the validator hides from new
// snapshots until Finalize; a failed flush (which applies nothing) withdraws it.
func (c *occControl) afterFlush(ctx *sim.Ctx, err error) error {
	if err != nil {
		c.v.AbandonFlush(ctx, c.tx)
	} else {
		c.v.Finalize(ctx, c.tx)
	}
	c.release()
	return err
}

func (c *occControl) abort(ctx *sim.Ctx) {
	c.v.Abort(ctx, c.tx)
	if c.exclusive {
		c.gate.Unlock()
	}
}

func (c *occControl) release() {
	if c.exclusive {
		c.gate.Unlock()
	} else {
		c.gate.RUnlock()
	}
}

// read takes a snapshot that registers no transaction: a read-only snapshot
// read is serializable as of its begin point and hides the stamp blocks of
// commits still flushing, so it needs neither validation nor dirty marks.
func (c *occControl) read(ctx *sim.Ctx, sys *System, p *Prepared, params []schema.Arg, reads ViewReadMode, strs *phoenix.StringBlock) (phoenix.RowCursor, error) {
	snap, ro := c.v.SnapshotRead(ctx)
	sys.countStale(ctx, p, snap, reads)
	return p.plan.Open(ctx, params, phoenix.QueryOpts{Read: ro, Strings: strs})
}
