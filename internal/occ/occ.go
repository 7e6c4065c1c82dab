// Package occ is a backward-validation optimistic concurrency control layer
// in the style of Larson et al., "High-Performance Concurrency Control
// Mechanisms for Main-Memory Databases": transactions run lock-free against a
// begin-timestamp snapshot, record their read set (point reads and scan
// ranges) and write set as they execute, and validate at commit against the
// write sets of transactions that committed while they ran. A transaction
// whose read set overlaps a concurrently committed write set aborts — its
// buffered writes are discarded unapplied — and the caller retries from a
// fresh snapshot, the optimistic analogue of the lock path's contended
// checkAndPut spin. Retrying alone does not promise progress: a transaction
// can lose every validation it reaches. A caller that bounds its retries
// makes the last one certain by holding off every other commit while it runs,
// so nothing it read can change before it validates.
//
// The layer is built on the transaction-scoped write pipeline: a transaction
// buffers every mutation in its BufferedMutator (nothing reaches the store
// before validation passes, so an abort is a pure buffer discard) and reads
// through the mutator's read-your-writes overlay. Snapshot isolation for
// readers comes from the store's cell timestamps alone — no transaction
// server sits on the read path, which is why OCC's per-statement overhead is
// closer to hierarchical locking's than to the Tephra-like MVCC layer's
// 800-900 ms (§IX-D4).
package occ

import (
	"errors"
	"fmt"
	"sync"

	"synergy/internal/hbase"
	"synergy/internal/sim"
)

// ErrConflict reports a validation failure at commit: the transaction read
// data that a concurrently committed transaction wrote, so its execution is
// not serializable after that commit. The transaction's buffered writes were
// discarded; the caller may retry from a fresh snapshot.
var ErrConflict = errors.New("occ: validation conflict")

// ErrFinished reports use of a transaction after commit or abort.
var ErrFinished = errors.New("occ: transaction already finished")

// commitRec is the write set of one validated transaction, kept for backward
// validation of transactions that overlapped it. start is the flush-start
// watermark: every cell of the commit was stamped after it, so a snapshot
// taken at or below start saw none of the commit's writes.
type commitRec struct {
	start  int64
	writes map[string]struct{}
}

// Validator is the commit-time validation service. Unlike the MVCC layer's
// transaction server it is not on the read path: Begin fetches one timestamp,
// reads carry no per-cell filter closures, and only commit pays a validation
// round trip.
type Validator struct {
	costs *sim.Costs
	// next allocates begin timestamps and flush watermarks. Deployments
	// share the store's timestamp oracle so snapshots order consistently
	// against every cell stamp in the cluster.
	next func() int64

	mu sync.Mutex
	// active tracks in-flight transactions; their snapshots bound how far
	// back committed write sets must be retained.
	active map[*Tx]struct{}
	// flushing maps the flush-start watermark of every validated commit
	// whose batch flush has not finished to the last cell stamp it
	// reserved: new snapshots hide that block so no reader ever observes
	// half of a multi-region commit.
	flushing  map[int64]int64
	committed []commitRec
	// writeIdx maps every key in a retained committed write set to the
	// newest retained commit that wrote it. Point validation probes it —
	// one hash lookup per read-set point — instead of walking committed;
	// "the snapshot missed the newest commit" is exactly "some conflicting
	// commit exists": any other commit of the key has an older start, and
	// no commit of a key validates while an older one is flushing (it
	// would have missed that one), so a visible newest commit leaves
	// nothing hidden below it. The record
	// slice remains the source of truth for range (phantom) validation and
	// for rebuilding the index on the rare AbandonFlush.
	writeIdx map[string]int64
	// stats
	begun, commits, aborts, conflicts int64
}

// ActiveTxns reports the number of in-flight transactions — snapshots that
// pin the retained committed write sets. Session layers use it to verify
// that a disconnected client's transaction was aborted and released.
func (v *Validator) ActiveTxns() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.active)
}

// NewValidator creates a standalone validator allocating timestamps from a
// private counter (tests); deployments use NewValidatorWithOracle.
func NewValidator(costs *sim.Costs) *Validator {
	var ctr int64
	return NewValidatorWithOracle(costs, func() int64 { ctr++; return ctr })
}

// NewValidatorWithOracle creates a validator drawing timestamps from the
// given oracle — deployments pass the store's clock so begin snapshots line
// up with every cell timestamp in the cluster.
func NewValidatorWithOracle(costs *sim.Costs, next func() int64) *Validator {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	return &Validator{
		costs:    costs,
		next:     next,
		active:   map[*Tx]struct{}{},
		flushing: map[int64]int64{},
		writeIdx: map[string]int64{},
	}
}

// Tx is one in-flight optimistic transaction: a begin-timestamp snapshot, a
// read set accumulated by the tracking reader, and a write set accumulated
// through phoenix.WriteOpts.OnWrite. All fields are owned by the
// transaction's goroutine; the validator only touches them under its mutex
// during Begin/Validate/Abort.
type Tx struct {
	v    *Validator
	snap int64 // snapshot horizon: the oracle timestamp at begin
	// hidden are the stamp blocks of the commits still flushing at begin:
	// below the horizon, yet invisible, and so conflicts at validation.
	hidden []stampBlock
	rs     ReadSet
	writes map[string]struct{}
	// commitStart is the flush watermark allocated at validation; 0 until
	// validated (or for read-only commits, which need no watermark).
	commitStart int64
	done        bool
}

// stampBlock is one commit's reserved timestamps: its flush watermark lo
// through its last cell stamp hi.
type stampBlock struct{ lo, hi int64 }

// Begin starts a transaction: one oracle round trip for the begin timestamp,
// which is the snapshot horizon. The stamp block of any commit still
// flushing is hidden from the snapshot, so a half-applied commit is invisible
// in its entirety rather than partially visible, while every commit that
// finished before the begin stays visible — a client's own previous commit
// above all, which a horizon lowered to another client's in-flight
// watermark would hide and then report as a conflict.
func (v *Validator) Begin(ctx *sim.Ctx) *Tx {
	ctx.Charge(v.costs.OCCBegin)
	v.mu.Lock()
	defer v.mu.Unlock()
	v.begun++
	t := &Tx{v: v, writes: map[string]struct{}{}}
	t.snap, t.hidden = v.snapshotLocked()
	v.active[t] = struct{}{}
	return t
}

// snapshotLocked draws a begin timestamp and lists the stamp blocks of the
// commits still flushing, which the snapshot hides. Caller holds v.mu.
func (v *Validator) snapshotLocked() (snap int64, hidden []stampBlock) {
	snap = v.next()
	for lo, hi := range v.flushing {
		hidden = append(hidden, stampBlock{lo, hi})
	}
	return snap, hidden
}

// SnapshotRead takes a read snapshot without registering a transaction: one
// oracle round trip, under Begin's rule. Read-only snapshot reads are
// serializable as of their begin point and validate nothing, so they need no
// registration. It returns the horizon and the read options that apply it.
func (v *Validator) SnapshotRead(ctx *sim.Ctx) (int64, hbase.ReadOpts) {
	ctx.Charge(v.costs.OCCBegin)
	v.mu.Lock()
	snap, hidden := v.snapshotLocked()
	v.mu.Unlock()
	return snap, readOpts(snap, hidden)
}

// missed reports whether the commit with watermark start is invisible to the
// transaction's snapshot: committed after it, or flushing when it began.
func (t *Tx) missed(start int64) bool {
	if start >= t.snap {
		return true
	}
	for _, b := range t.hidden {
		if b.lo == start {
			return true
		}
	}
	return false
}

// oldest is the lowest watermark whose commit the transaction may conflict
// with: the committed write sets it pins.
func (t *Tx) oldest() int64 {
	low := t.snap
	for _, b := range t.hidden {
		low = min(low, b.lo)
	}
	return low
}

// Snapshot reports the transaction's snapshot horizon: cells stamped above
// it are invisible to the transaction's reads (and so, below it, are the
// cells of the commits that were flushing when it began).
func (t *Tx) Snapshot() int64 { return t.snap }

// ReadOpts returns the snapshot visibility filter for the transaction's
// reads: everything committed at or below the snapshot horizon but outside
// the hidden stamp blocks, plus the synthetic overlay timestamps of the
// transaction's own buffered writes.
func (t *Tx) ReadOpts() hbase.ReadOpts { return readOpts(t.snap, t.hidden) }

// readOpts is the visibility filter of horizon snap with the stamp blocks
// hidden excluded below it.
func readOpts(snap int64, hidden []stampBlock) hbase.ReadOpts {
	ro := hbase.SnapshotRead(snap)
	if len(hidden) == 0 {
		return ro
	}
	above := ro.Excluded
	ro.Excluded = func(ts int64) bool {
		for _, b := range hidden {
			if ts >= b.lo && ts <= b.hi {
				return true
			}
		}
		return above(ts)
	}
	return ro
}

// RecordWrite adds a row to the transaction's write set; it has the
// signature of phoenix.WriteOpts.OnWrite.
func (t *Tx) RecordWrite(table, rowKey string) {
	t.writes[table+"\x00"+rowKey] = struct{}{}
}

// HasWrite reports whether a row is in the transaction's write set (tests
// pin write-set completeness through it).
func (t *Tx) HasWrite(table, rowKey string) bool {
	_, ok := t.writes[table+"\x00"+rowKey]
	return ok
}

// HasRead reports whether a row is in the transaction's read set as a point
// read (tests pin read-set completeness through it).
func (t *Tx) HasRead(table, rowKey string) bool {
	_, ok := t.rs.points[table+"\x00"+rowKey]
	return ok
}

// ReadRanges reports how many scan ranges the transaction's read set holds
// (tests pin that a point read is recorded as a point through it).
func (t *Tx) ReadRanges() int { return len(t.rs.ranges) }

// Track wraps a reader so every point get and scan range it serves lands in
// the transaction's read set. Wrap the transaction's read-your-writes view
// (or the plain store client) and thread the result through the SQL layer's
// Reader options.
func (t *Tx) Track(r hbase.Reader) hbase.Reader {
	return &trackingReader{inner: r, rs: &t.rs}
}

// Validate is the first half of commit: backward validation against every
// write set that committed after the transaction's snapshot. On success it
// allocates the flush watermark, reserves the commit's cell timestamps by
// running stampPending (when non-nil) against the oracle inside the same
// critical section, and publishes the transaction's write set for future
// validators; the caller then flushes the buffered mutations and calls
// Finalize (or AbandonFlush if the flush failed). On conflict the
// transaction is finished — the caller discards its buffer and may retry
// from a fresh Begin.
//
// Stamping inside the critical section is what keeps commits atomic to
// snapshots: every timestamp the validator ever hands out (begin snapshots,
// watermarks, cell stamps) is allocated under the lock, so one commit's
// stamp block can never straddle another transaction's snapshot horizon —
// a snapshot sees all of a commit or none of it, and "fully visible" is
// exactly "rec.start < snap and the commit was not flushing at begin".
func (v *Validator) Validate(ctx *sim.Ctx, t *Tx, stampPending func(next func() int64) int) error {
	ctx.Charge(v.costs.OCCValidate)
	ctx.Charge(sim.Micros(int64(t.rs.Len()+len(t.writes)) * int64(v.costs.OCCValidatePerEntry)))
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.done {
		return ErrFinished
	}
	delete(v.active, t)
	// Point reads probe the write index: O(read set), independent of how
	// many commit records the active-transaction horizon retains.
	for p := range t.rs.points {
		if start, ok := v.writeIdx[p]; ok && t.missed(start) {
			t.done = true
			v.aborts++
			v.conflicts++
			return fmt.Errorf("%w: read of %s overlaps a write its snapshot %d missed", ErrConflict, describeKey(p), t.snap)
		}
	}
	// Blind write-write overlap (no read of the row, e.g. two concurrent
	// upserts): also non-serializable under last-writer-wins flushing, so
	// it aborts too. Same probe.
	for w := range t.writes {
		if start, ok := v.writeIdx[w]; ok && t.missed(start) {
			t.done = true
			v.aborts++
			v.conflicts++
			return fmt.Errorf("%w: write of %s overlaps a write its snapshot %d missed", ErrConflict, describeKey(w), t.snap)
		}
	}
	// Scan ranges cannot be hash-probed; only transactions that scanned
	// walk the retained records, and only the records their snapshot missed.
	if len(t.rs.ranges) > 0 {
		for i := range v.committed {
			rec := &v.committed[i]
			if !t.missed(rec.start) {
				continue // fully visible in our snapshot: not a conflict
			}
			for w := range rec.writes {
				tbl, key := splitWriteKey(w)
				for _, r := range t.rs.ranges {
					if r.Table != tbl || !r.contains(key) {
						continue
					}
					t.done = true
					v.aborts++
					v.conflicts++
					return fmt.Errorf("%w: read of %s overlaps a write its snapshot %d missed", ErrConflict, describeKey(w), t.snap)
				}
			}
		}
	}
	t.done = true
	t.commitStart = 0
	pending := 0
	if len(t.writes) > 0 {
		t.commitStart = v.next()
		last := t.commitStart
		if stampPending != nil {
			pending = stampPending(func() int64 { last = v.next(); return last })
		}
		v.flushing[t.commitStart] = last
		v.committed = append(v.committed, commitRec{start: t.commitStart, writes: t.writes})
		for w := range t.writes {
			v.writeIdx[w] = t.commitStart // newest commit of the key, by construction
		}
		v.gcLocked()
	} else if stampPending != nil {
		pending = stampPending(v.next)
	}
	if pending > 0 && len(t.writes) == 0 {
		// Pending mutations with an empty write set would flush invisibly
		// to validation; nothing in the write path produces this (quiet
		// mutations only ever accompany recorded ones), but guard the
		// invariant loudly rather than silently losing serializability.
		// The transaction is already finished — the caller discards the
		// buffer like any other failed commit.
		return fmt.Errorf("occ: %d pending mutations with an empty write set", pending)
	}
	return nil
}

// AbandonFlush retires a validated commit whose flush failed. The batch
// path resolves every table before applying any mutation, so a failed
// flush applied nothing: the watermark is retired and the write set
// published at validation is withdrawn — the dead commit neither pins
// snapshot horizons nor causes false conflicts.
func (v *Validator) AbandonFlush(ctx *sim.Ctx, t *Tx) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.commitStart != 0 {
		delete(v.flushing, t.commitStart)
		kept := v.committed[:0]
		for _, rec := range v.committed {
			if rec.start != t.commitStart {
				kept = append(kept, rec)
			}
		}
		tail := v.committed[len(kept):]
		for i := range tail {
			tail[i] = commitRec{}
		}
		v.committed = kept
		// The dead commit may have shadowed older commits of the same keys
		// in the index; this path is rare (flush failure), so rebuild from
		// the survivors instead of reasoning about shadowing.
		v.writeIdx = make(map[string]int64, len(v.writeIdx))
		for _, rec := range v.committed {
			for w := range rec.writes {
				if cur, ok := v.writeIdx[w]; !ok || rec.start > cur {
					v.writeIdx[w] = rec.start
				}
			}
		}
		t.commitStart = 0
	}
	v.aborts++
}

// Finalize is the second half of commit, called after the buffered mutations
// flushed: the commit's flush watermark is retired, so new snapshots admit
// its (now fully applied) writes.
func (v *Validator) Finalize(ctx *sim.Ctx, t *Tx) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.commitStart != 0 {
		delete(v.flushing, t.commitStart)
		// The retired watermark may have been the only thing pinning this
		// commit's write set (see gcLocked).
		v.gcLocked()
	}
	v.commits++
}

// Abort finishes the transaction without validation. Nothing was flushed —
// an optimistic transaction's writes live in its buffer until validation
// passes — so there is no visibility cleanup of any kind.
func (v *Validator) Abort(ctx *sim.Ctx, t *Tx) {
	ctx.Charge(v.costs.RPC)
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	delete(v.active, t)
	v.aborts++
}

// gcLocked prunes committed write sets no active transaction can conflict
// with: a record is kept while some active snapshot predates it or hides it
// — or while its own flush is still in flight, because a transaction
// beginning inside the flush window hides the commit and will need the
// record at validation (dropping it would let a stale read commit a lost
// update). Caller holds v.mu.
func (v *Validator) gcLocked() {
	minSnap := int64(1<<62 - 1)
	for t := range v.active {
		minSnap = min(minSnap, t.oldest())
	}
	for fs := range v.flushing {
		if fs < minSnap {
			minSnap = fs
		}
	}
	kept := v.committed[:0]
	for _, rec := range v.committed {
		if rec.start >= minSnap {
			kept = append(kept, rec)
		}
	}
	tail := v.committed[len(kept):]
	for i := range tail {
		tail[i] = commitRec{}
	}
	dropped := len(tail) > 0
	v.committed = kept
	if dropped {
		// An index entry below the horizon has no surviving record: every
		// commit of its key is at most the (dropped) newest one.
		for k, start := range v.writeIdx {
			if start < minSnap {
				delete(v.writeIdx, k)
			}
		}
	}
}

// Stats reports validator counters.
type Stats struct {
	Begun, Commits, Aborts, Conflicts int64
	RetainedWriteSets                 int
	// IndexedKeys is the committed write-set index size; it shrinks with
	// RetainedWriteSets as the active-transaction horizon advances.
	IndexedKeys int
}

// Stats returns a snapshot of the validator counters.
func (v *Validator) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return Stats{
		Begun: v.begun, Commits: v.commits, Aborts: v.aborts, Conflicts: v.conflicts,
		RetainedWriteSets: len(v.committed),
		IndexedKeys:       len(v.writeIdx),
	}
}

// describeKey renders a write-set key ("table\x00rowkey") readably.
func describeKey(k string) string {
	for i := 0; i < len(k); i++ {
		if k[i] == 0 {
			return fmt.Sprintf("%s/%q", k[:i], k[i+1:])
		}
	}
	return fmt.Sprintf("%q", k)
}
