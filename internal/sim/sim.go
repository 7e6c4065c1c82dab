// Package sim provides the simulated-time substrate that every component of
// the reproduction is built on.
//
// The paper's evaluation (§IX) reports request response times measured on an
// eight node Amazon EC2 cluster. This repository replaces the physical
// cluster with a deterministic simulation: components perform their real work
// (rows are stored, scanned, joined, locked), and every action that would
// cost wall-clock time on the testbed — an RPC round trip, a WAL append, a
// row moved over the network — charges simulated microseconds to the request
// that performed it. Nothing ever sleeps, so experiments are fast and results
// are reproducible bit-for-bit.
//
// A Ctx represents one in-flight request (one benchmark statement, one
// transaction). It accumulates the simulated latency of all work done on its
// behalf; Elapsed reports the virtual response time, which is the metric τ
// used throughout the paper's figures.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Micros is a duration in simulated microseconds.
type Micros int64

// Common conversions.
func (m Micros) Milliseconds() float64 { return float64(m) / 1000.0 }
func (m Micros) Seconds() float64      { return float64(m) / 1e6 }

// Duration converts a simulated duration to a time.Duration for display.
func (m Micros) Duration() time.Duration { return time.Duration(m) * time.Microsecond }

func (m Micros) String() string {
	switch {
	case m >= 1e6:
		return fmt.Sprintf("%.2fs", m.Seconds())
	case m >= 1000:
		return fmt.Sprintf("%.2fms", m.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", int64(m))
	}
}

// FromMillis builds a Micros value from a (possibly fractional) millisecond
// count. Cost-model constants are most naturally written in milliseconds
// because that is the unit the paper reports.
func FromMillis(ms float64) Micros { return Micros(ms * 1000) }

// Ctx is the simulated-time context of a single request. It is carried
// through every layer (store, SQL executor, transaction layer) in the same
// way a context.Context would be, and accumulates virtual latency.
//
// A Ctx is safe for concurrent use: a request that fans out work across
// simulated cluster nodes may charge from several goroutines.
type Ctx struct {
	elapsed atomic.Int64 // simulated microseconds

	// Counters give tests and the benchmark harness visibility into the
	// physical work performed, independent of the latency calibration.
	rpcs           atomic.Int64
	rowsScanned    atomic.Int64
	rowsReturned   atomic.Int64
	bytesMoved     atomic.Int64
	locks          atomic.Int64
	restarts       atomic.Int64
	occRetries     atomic.Int64
	staleReads     atomic.Int64
	staleLag       atomic.Int64
	watermarkWaits atomic.Int64
	queueWaits     atomic.Int64
	queueWaitTime  atomic.Int64

	// firstRow records the elapsed time at which the request produced its
	// first result row, stored as elapsed+1 so zero means "not yet marked".
	// The serving wire layer marks it as it encodes the first row packet,
	// so streamed and materialized responses measure the same event: a
	// streamed scan marks after one chunk, a materialized one only after
	// the whole result was buffered.
	firstRow atomic.Int64
}

// NewCtx returns a fresh request context with zero elapsed time.
func NewCtx() *Ctx { return &Ctx{} }

// Charge adds d simulated time to the request.
func (c *Ctx) Charge(d Micros) {
	if c == nil || d <= 0 {
		return
	}
	c.elapsed.Add(int64(d))
}

// Elapsed reports the simulated response time accumulated so far.
func (c *Ctx) Elapsed() Micros {
	if c == nil {
		return 0
	}
	return Micros(c.elapsed.Load())
}

// Fork returns a child context for one branch of a parallel fan-out (a
// scatter-gather scan, a parallel view refresh). The branch charges its own
// work to the child; Join folds the children back into the parent when the
// fan-out completes.
func (c *Ctx) Fork() *Ctx { return NewCtx() }

// Join merges forked children back into c. Elapsed time advances by the
// maximum child elapsed — concurrent branches overlap in wall-clock time, so
// the request waits only for the slowest one — while the physical work
// counters advance by the sum, since every branch's rows and RPCs are real
// work regardless of overlap.
func (c *Ctx) Join(children ...*Ctx) {
	if c == nil {
		return
	}
	var longest int64
	for _, ch := range children {
		if ch == nil {
			continue
		}
		if e := ch.elapsed.Load(); e > longest {
			longest = e
		}
		c.addCounters(ch)
	}
	c.elapsed.Add(longest)
}

// JoinWidth merges forked children like Join, but models a bounded worker
// pool of the given width instead of unlimited concurrency: children are
// scheduled in submission order, each starting on the lane that frees
// earliest, and elapsed advances by the resulting makespan. For n
// equal-cost children it charges ceil(n/width) rounds of the child cost
// rather than a single round. A width of zero or >= len(children)
// degenerates to Join.
func (c *Ctx) JoinWidth(width int, children ...*Ctx) {
	c.JoinLanes(width, 0, len(children), func(i int) *Ctx { return children[i] })
}

// JoinLanes is JoinWidth over the n children child(0) … child(n-1), for a
// parent already charged prepaid of the makespan ahead of the join — a scan
// charges the request for its first row when that row is handed out, before
// the fan-out completes. prepaid is at most the elapsed of one child, which
// the makespan covers.
func (c *Ctx) JoinLanes(width int, prepaid Micros, n int, child func(i int) *Ctx) {
	if c == nil {
		return
	}
	if width <= 0 || width > n {
		width = n
	}
	var small [16]int64 // the common widths need no allocation
	lanes := small[:]
	if width > len(small) {
		lanes = make([]int64, width)
	}
	lanes = lanes[:width]
	for i := range n {
		ch := child(i)
		if ch == nil {
			continue
		}
		li := 0
		for l := 1; l < width; l++ {
			if lanes[l] < lanes[li] {
				li = l
			}
		}
		lanes[li] += ch.elapsed.Load()
		c.addCounters(ch)
	}
	var makespan int64
	for _, l := range lanes {
		makespan = max(makespan, l)
	}
	c.elapsed.Add(makespan - int64(prepaid))
}

// addCounters folds one child's work counters into c (elapsed excluded —
// Join/JoinWidth own the overlap semantics).
func (c *Ctx) addCounters(ch *Ctx) {
	c.rpcs.Add(ch.rpcs.Load())
	c.rowsScanned.Add(ch.rowsScanned.Load())
	c.rowsReturned.Add(ch.rowsReturned.Load())
	c.bytesMoved.Add(ch.bytesMoved.Load())
	c.locks.Add(ch.locks.Load())
	c.restarts.Add(ch.restarts.Load())
	c.occRetries.Add(ch.occRetries.Load())
	c.staleReads.Add(ch.staleReads.Load())
	c.staleLag.Add(ch.staleLag.Load())
	c.watermarkWaits.Add(ch.watermarkWaits.Load())
	c.queueWaits.Add(ch.queueWaits.Load())
	c.queueWaitTime.Add(ch.queueWaitTime.Load())
}

// Reset zeroes the context so it can be reused for a new request.
func (c *Ctx) Reset() {
	c.elapsed.Store(0)
	c.rpcs.Store(0)
	c.rowsScanned.Store(0)
	c.rowsReturned.Store(0)
	c.bytesMoved.Store(0)
	c.locks.Store(0)
	c.restarts.Store(0)
	c.occRetries.Store(0)
	c.staleReads.Store(0)
	c.staleLag.Store(0)
	c.watermarkWaits.Store(0)
	c.queueWaits.Store(0)
	c.queueWaitTime.Store(0)
	c.firstRow.Store(0)
}

// MarkFirstRow records the current elapsed time as the request's
// time-to-first-row. Only the first call per request (or per ResetFirstRow)
// takes effect; later calls are no-ops.
func (c *Ctx) MarkFirstRow() {
	if c == nil {
		return
	}
	c.firstRow.CompareAndSwap(0, c.elapsed.Load()+1)
}

// ResetFirstRow clears the time-to-first-row mark so a long-lived context
// (a server connection serving many statements) can measure each statement
// independently.
func (c *Ctx) ResetFirstRow() {
	if c != nil {
		c.firstRow.Store(0)
	}
}

// TimeToFirstRow reports the elapsed simulated time at which the first
// result row was produced. ok is false if no row was marked (no streaming
// read ran, or the result was empty).
func (c *Ctx) TimeToFirstRow() (Micros, bool) {
	if c == nil {
		return 0, false
	}
	v := c.firstRow.Load()
	if v == 0 {
		return 0, false
	}
	return Micros(v - 1), true
}

// CountRPC records an RPC round trip (the latency is charged separately by
// the cost model so that counters stay calibration-independent).
func (c *Ctx) CountRPC() {
	if c != nil {
		c.rpcs.Add(1)
	}
}

// CountRowsScanned records rows examined server-side.
func (c *Ctx) CountRowsScanned(n int) {
	if c != nil {
		c.rowsScanned.Add(int64(n))
	}
}

// CountRowsReturned records rows shipped back to the client.
func (c *Ctx) CountRowsReturned(n int) {
	if c != nil {
		c.rowsReturned.Add(int64(n))
	}
}

// CountBytesMoved records payload bytes crossing the simulated network.
func (c *Ctx) CountBytesMoved(n int) {
	if c != nil {
		c.bytesMoved.Add(int64(n))
	}
}

// CountLock records one lock acquire/release cycle.
func (c *Ctx) CountLock() {
	if c != nil {
		c.locks.Add(1)
	}
}

// CountRestart records one dirty-read scan restart (§VIII-C).
func (c *Ctx) CountRestart() {
	if c != nil {
		c.restarts.Add(1)
	}
}

// CountOCCRetry records one optimistic-transaction validation abort that
// was retried from a fresh snapshot.
func (c *Ctx) CountOCCRetry() {
	if c != nil {
		c.occRetries.Add(1)
	}
}

// CountStaleRead records one read that observed an asynchronously maintained
// view lagging its snapshot, with the observed lag in timestamp units
// (commits the view has not yet applied as of the reader's snapshot).
func (c *Ctx) CountStaleRead(lag int64) {
	if c != nil {
		c.staleReads.Add(1)
		if lag > 0 {
			c.staleLag.Add(lag)
		}
	}
}

// CountWatermarkWait records one read that blocked until a view's freshness
// watermark covered its snapshot.
func (c *Ctx) CountWatermarkWait() {
	if c != nil {
		c.watermarkWaits.Add(1)
	}
}

// CountQueueWait records one server-side operation that queued behind a
// region server's outstanding load under the per-server queueing model,
// with the simulated wait it paid.
func (c *Ctx) CountQueueWait(wait Micros) {
	if c != nil {
		c.queueWaits.Add(1)
		c.queueWaitTime.Add(int64(wait))
	}
}

// Stats is a snapshot of the work counters of a Ctx.
type Stats struct {
	RPCs         int64
	RowsScanned  int64
	RowsReturned int64
	BytesMoved   int64
	Locks        int64
	Restarts     int64
	OCCRetries   int64
	// StaleReads counts reads that observed an async-maintained view behind
	// the reader's snapshot; StaleLag is their summed lag in timestamp units.
	StaleReads int64
	StaleLag   int64
	// WatermarkWaits counts reads that blocked on a view freshness watermark.
	WatermarkWaits int64
	// QueueWaits counts server-side operations that queued behind a region
	// server's outstanding load; QueueWaitTime is their summed simulated wait.
	QueueWaits    int64
	QueueWaitTime Micros
	// TTFR is the elapsed simulated time at which the request produced its
	// first result row (zero when nothing marked one — see MarkFirstRow).
	TTFR    Micros
	Elapsed Micros
}

// Snapshot returns the current work counters.
func (c *Ctx) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{
		RPCs:           c.rpcs.Load(),
		RowsScanned:    c.rowsScanned.Load(),
		RowsReturned:   c.rowsReturned.Load(),
		BytesMoved:     c.bytesMoved.Load(),
		Locks:          c.locks.Load(),
		Restarts:       c.restarts.Load(),
		OCCRetries:     c.occRetries.Load(),
		StaleReads:     c.staleReads.Load(),
		StaleLag:       c.staleLag.Load(),
		WatermarkWaits: c.watermarkWaits.Load(),
		QueueWaits:     c.queueWaits.Load(),
		QueueWaitTime:  Micros(c.queueWaitTime.Load()),
		Elapsed:        c.Elapsed(),
	}
	if ttfr, ok := c.TimeToFirstRow(); ok {
		s.TTFR = ttfr
	}
	return s
}
