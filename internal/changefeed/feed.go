// Package changefeed is the asynchronous view-maintenance lane: a bounded
// per-view delta queue fed by committed base-table writes and drained by
// background applier workers.
//
// The paper's §VIII-B maintenance protocol runs synchronously inside the
// writing statement, so write latency scales with the number of views a
// table feeds. The changefeed takes that work off the client's critical
// path: the commit publishes a delta per affected view (paying only a queue
// hop), and appliers replay the mark/update/un-mark phases in background
// batches. Each view carries a freshness watermark — the highest commit
// timestamp whose delta has been applied — which is what staleness-aware
// reads (ReadStale / ReadWatermark) measure themselves against.
//
// Cost accounting is split the way the real system's would be: the writer is
// charged the enqueue hop, the applier's work accrues on background contexts
// (visible via AppliedCost), and a watermark reader that blocks is charged
// the applier work it actually waited out.
package changefeed

import (
	"sync"
	"sync/atomic"

	"synergy/internal/sim"
)

// Delta is one view's maintenance work for one committed transaction. Apply
// replays the view-maintenance phases for the transaction's writes against
// one view; CommitTS is the transaction's commit timestamp — once applied,
// the view's watermark covers it.
type Delta struct {
	// View names the materialized view this delta maintains.
	View string
	// CommitTS is the commit timestamp of the base-table transaction the
	// delta derives from.
	CommitTS int64
	// Apply performs the maintenance work, charging the supplied background
	// context.
	Apply func(ctx *sim.Ctx) error
}

// batchMax caps the deltas an applier drains per batch.
const batchMax = 32

// Config sizes a Feed.
type Config struct {
	// QueueCap bounds each view's queue (queued + in-flight deltas). A full
	// queue blocks the publisher — backpressure, never drops. Zero means a
	// default of 1024.
	QueueCap int
	// Costs supplies the async cost knobs (queue hop, per-batch apply
	// overhead, watermark wait).
	Costs *sim.Costs
}

// Feed is the changefeed: one bounded lane per view, each drained by at most
// one applier goroutine at a time. Publish order is apply order within a
// lane (FIFO), which is what makes drained-async state converge to the
// synchronous maintenance result.
type Feed struct {
	cfg Config

	mu    sync.Mutex
	lanes map[string]*lane

	paused bool

	published atomic.Int64
	applied   atomic.Int64

	errMu    sync.Mutex
	firstErr error
}

// lane is one view's delta queue plus its applier state.
type lane struct {
	f    *Feed
	view string

	mu   sync.Mutex
	cond *sync.Cond
	// queue holds published-but-not-yet-drained deltas in publish order.
	queue []Delta
	// inflight counts deltas the applier has drained but not yet applied;
	// inflightOldest is the smallest CommitTS among them. Together with the
	// queue they answer "is anything ≤ readTS still unapplied?".
	inflight       int
	inflightOldest int64
	// watermark is the highest CommitTS whose delta has been applied.
	watermark int64
	// appliedCost accumulates the applier's background sim time; watermark
	// waiters charge the slice that elapsed while they blocked.
	appliedCost sim.Micros
	running     bool
}

// New returns an empty feed.
func New(cfg Config) *Feed {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	return &Feed{cfg: cfg, lanes: make(map[string]*lane)}
}

func (f *Feed) lane(view string) *lane {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.lanes[view]
	if l == nil {
		l = &lane{f: f, view: view}
		l.cond = sync.NewCond(&l.mu)
		f.lanes[view] = l
	}
	return l
}

// Publish hands a committed transaction's view deltas to the feed. The
// writer is charged one queue hop; per-view publish order is preserved, and
// a full lane blocks the publisher until the applier frees space
// (backpressure — deltas are never dropped). Appliers start on demand.
func (f *Feed) Publish(ctx *sim.Ctx, deltas []Delta) {
	if len(deltas) == 0 {
		return
	}
	if f.cfg.Costs != nil {
		ctx.Charge(f.cfg.Costs.AsyncQueueHop)
	}
	for _, d := range deltas {
		l := f.lane(d.View)
		l.mu.Lock()
		for len(l.queue)+l.inflight >= f.cfg.QueueCap {
			l.cond.Wait()
		}
		l.queue = append(l.queue, d)
		f.published.Add(1)
		f.mu.Lock()
		paused := f.paused
		f.mu.Unlock()
		if !l.running && !paused {
			l.running = true
			go l.drain()
		}
		l.mu.Unlock()
	}
}

// drain is the applier loop of one lane: pop a batch, apply it on a fresh
// background context, advance the watermark, repeat until the queue empties
// (or the feed pauses). Runs with l.mu held only between batches.
func (l *lane) drain() {
	l.mu.Lock()
	for {
		f := l.f
		f.mu.Lock()
		paused := f.paused
		f.mu.Unlock()
		if paused || len(l.queue) == 0 {
			l.running = false
			l.cond.Broadcast()
			l.mu.Unlock()
			return
		}
		n := min(len(l.queue), batchMax)
		batch := make([]Delta, n)
		copy(batch, l.queue)
		l.queue = l.queue[n:]
		l.inflight = n
		l.inflightOldest = batch[0].CommitTS
		for _, d := range batch[1:] {
			if d.CommitTS < l.inflightOldest {
				l.inflightOldest = d.CommitTS
			}
		}
		l.cond.Broadcast() // queue space freed: unblock publishers
		l.mu.Unlock()

		actx := sim.NewCtx()
		if f.cfg.Costs != nil {
			actx.Charge(f.cfg.Costs.AsyncApplyBatch)
		}
		for _, d := range batch {
			if err := d.Apply(actx); err != nil {
				f.recordErr(err)
			}
		}

		l.mu.Lock()
		for _, d := range batch {
			if d.CommitTS > l.watermark {
				l.watermark = d.CommitTS
			}
		}
		l.inflight = 0
		l.inflightOldest = 0
		l.appliedCost += actx.Elapsed()
		f.applied.Add(int64(n))
		l.cond.Broadcast() // watermark advanced: wake waiters
	}
}

// staleBehindLocked reports whether any delta with CommitTS ≤ readTS is
// still unapplied. Caller holds l.mu.
func (l *lane) staleBehindLocked(readTS int64) bool {
	if l.inflight > 0 && l.inflightOldest <= readTS {
		return true
	}
	for i := range l.queue {
		if l.queue[i].CommitTS <= readTS {
			return true
		}
	}
	return false
}

// StaleBehind reports how far the view's watermark lags a reader's snapshot:
// zero when every delta at or below readTS has been applied, otherwise the
// positive timestamp gap (at least 1). This is the lag a ReadStale reader
// records.
func (f *Feed) StaleBehind(view string, readTS int64) int64 {
	l := f.lane(view)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.staleBehindLocked(readTS) {
		return 0
	}
	lag := readTS - l.watermark
	if lag < 1 {
		lag = 1
	}
	return lag
}

// Watermark reports the view's freshness watermark — the highest commit
// timestamp whose delta has been applied.
func (f *Feed) Watermark(view string) int64 {
	l := f.lane(view)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.watermark
}

// WaitWatermark blocks a ReadWatermark reader until every delta at or below
// readTS has been applied to the view. The reader is charged the fixed
// watermark-check cost plus the applier work that ran while it waited — the
// latency a real system's freshness barrier would expose. On a paused feed
// the wait holds until Resume/Drain restarts the appliers.
func (f *Feed) WaitWatermark(ctx *sim.Ctx, view string, readTS int64) {
	l := f.lane(view)
	l.mu.Lock()
	if !l.staleBehindLocked(readTS) {
		l.mu.Unlock()
		return
	}
	if f.cfg.Costs != nil {
		ctx.Charge(f.cfg.Costs.WatermarkWait)
	}
	ctx.CountWatermarkWait()
	c0 := l.appliedCost
	for l.staleBehindLocked(readTS) {
		if !l.running && len(l.queue) > 0 {
			f.mu.Lock()
			paused := f.paused
			f.mu.Unlock()
			if !paused {
				l.running = true
				go l.drain()
			}
		}
		l.cond.Wait()
	}
	ctx.Charge(l.appliedCost - c0)
	l.mu.Unlock()
}

// Drain applies every published delta and returns the first apply error, if
// any. It restarts appliers a Pause stopped.
func (f *Feed) Drain() error {
	f.mu.Lock()
	f.paused = false
	lanes := make([]*lane, 0, len(f.lanes))
	for _, l := range f.lanes {
		lanes = append(lanes, l)
	}
	f.mu.Unlock()
	for _, l := range lanes {
		l.mu.Lock()
		if !l.running && len(l.queue) > 0 {
			l.running = true
			go l.drain()
		}
		for len(l.queue) > 0 || l.inflight > 0 {
			l.cond.Wait()
		}
		l.mu.Unlock()
	}
	return f.Err()
}

// Pause stops appliers at their next batch boundary; published deltas stay
// queued. Benchmarks use it to keep background apply work out of a timed
// section.
func (f *Feed) Pause() {
	f.mu.Lock()
	f.paused = true
	f.mu.Unlock()
}

// Resume restarts draining after a Pause.
func (f *Feed) Resume() {
	f.mu.Lock()
	f.paused = false
	lanes := make([]*lane, 0, len(f.lanes))
	for _, l := range f.lanes {
		lanes = append(lanes, l)
	}
	f.mu.Unlock()
	for _, l := range lanes {
		l.mu.Lock()
		if !l.running && len(l.queue) > 0 {
			l.running = true
			go l.drain()
		}
		l.mu.Unlock()
	}
}

// Published reports the total deltas handed to the feed.
func (f *Feed) Published() int64 { return f.published.Load() }

// Applied reports the total deltas applied.
func (f *Feed) Applied() int64 { return f.applied.Load() }

// AppliedCost reports the summed background sim time the appliers have
// spent across all lanes — the maintenance cost the async lane moved off
// the writers' critical path.
func (f *Feed) AppliedCost() sim.Micros {
	f.mu.Lock()
	lanes := make([]*lane, 0, len(f.lanes))
	for _, l := range f.lanes {
		lanes = append(lanes, l)
	}
	f.mu.Unlock()
	var total sim.Micros
	for _, l := range lanes {
		l.mu.Lock()
		total += l.appliedCost
		l.mu.Unlock()
	}
	return total
}

func (f *Feed) recordErr(err error) {
	f.errMu.Lock()
	if f.firstErr == nil {
		f.firstErr = err
	}
	f.errMu.Unlock()
}

// Err returns the first apply error the feed has seen, if any.
func (f *Feed) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.firstErr
}
