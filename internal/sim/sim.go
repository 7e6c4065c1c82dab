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
//
// Work that overlaps runs on one pacing rule. A consumer that works on a
// producer's output while the producer goes on is a FIFO server (Lane): an
// item that arrives at `at` and needs d is served from the later of its
// arrival and the end of the item before it,
//
//	free = max(free, at) + d
//
// Three consumers pace by it. The wire sends each result packet no earlier
// than the server wrote it, so rows drain while the scan reads on
// (server.writeCursor). A hash build hashes each row no earlier than its
// build side handed it out (Arrivals.Pace, from the arrivals its reader
// noted). A fanned-out scan's units run on the read pool, each on the lane
// that frees earliest, and the request waits for the pool's makespan less
// what its first row already charged (Lanes, Ctx.JoinLanes).
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

	// counts give tests and the benchmark harness visibility into the
	// physical work performed, independent of the latency calibration.
	counts [numCounters]atomic.Int64

	// firstRow records the elapsed time at which the request produced its
	// first result row, stored as elapsed+1 so zero means "not yet marked".
	// The serving wire layer marks it as it encodes the first row packet,
	// so streamed and materialized responses measure the same event: a
	// streamed scan marks after one chunk, a materialized one only after
	// the whole result was buffered.
	firstRow atomic.Int64
}

// The work counters of a Ctx, indexes into its counts.
const (
	rpcs = iota
	rowsScanned
	rowsReturned
	bytesMoved
	locks
	restarts
	occRetries
	staleReads
	staleLag
	watermarkWaits
	numCounters
)

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

// Join merges the children of a parallel fan-out (a scatter-gather scan, a
// parallel view refresh) back into c once it completes: each branch charged
// its own work to a child of its own. A child is nothing but a fresh Ctx, and
// so is a zero Ctx value: a fan-out that knows its branch count forks them all
// at once as one slice of Ctx values — one allocation, not one per branch —
// and joins it with JoinAll (or JoinLanes, for a bounded width). Elapsed time
// advances by the maximum child elapsed — concurrent branches overlap in
// wall-clock time, so the request waits only for the slowest one — while the
// physical work counters advance by the sum, since every branch's rows and
// RPCs are real work regardless of overlap.
func (c *Ctx) Join(children ...*Ctx) {
	c.JoinLanes(new(Lanes), 0, len(children), func(i int) *Ctx { return children[i] })
}

// JoinAll is Join over children forked as one slice of Ctx values.
func (c *Ctx) JoinAll(children []Ctx) {
	c.JoinLanes(new(Lanes), 0, len(children), func(i int) *Ctx { return &children[i] })
}

// JoinLanes folds the n children child(0) … child(n-1) into c as a bounded
// worker pool of the given width: each child is served in order on pool's
// lane that frees earliest, the lowest on a tie, and elapsed advances by the
// pool's makespan less what pool prepaid. For n equal-cost children that is
// ceil(n/width) rounds of the child cost rather than one. A width of zero or
// at least n gives every child a lane of its own, which is Join. The work
// counters advance by the sum, as in Join.
func (c *Ctx) JoinLanes(pool *Lanes, width, n int, child func(i int) *Ctx) {
	if c == nil {
		return
	}
	var lanes []Lane // nil: a lane per child, so each ends with its child
	if width > 0 && width < n {
		lanes = pool.small[:min(width, len(pool.small))]
		if width > len(pool.small) {
			lanes = make([]Lane, width)
		}
		clear(lanes)
	}
	var makespan Nanos
	for i := range n {
		ch := child(i)
		if ch == nil {
			continue
		}
		end := ch.Elapsed().Nanos()
		if lanes != nil {
			li := 0
			for l := range lanes {
				if lanes[l].End() < lanes[li].End() {
					li = l
				}
			}
			end = lanes[li].Serve(0, end)
		}
		makespan = max(makespan, end)
		c.addCounters(ch)
	}
	c.elapsed.Add(int64(makespan.Micros() - pool.prepaid))
}

// addCounters folds one child's work counters into c (elapsed excluded —
// Join, JoinAll and JoinLanes own the overlap semantics).
func (c *Ctx) addCounters(ch *Ctx) {
	for i := range c.counts {
		c.counts[i].Add(ch.counts[i].Load())
	}
}

// Reset zeroes the context so it can be reused for a new request.
func (c *Ctx) Reset() {
	c.elapsed.Store(0)
	for i := range c.counts {
		c.counts[i].Store(0)
	}
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
		c.counts[rpcs].Add(1)
	}
}

// CountRowsScanned records rows examined server-side.
func (c *Ctx) CountRowsScanned(n int) {
	if c != nil {
		c.counts[rowsScanned].Add(int64(n))
	}
}

// CountRowsReturned records rows shipped back to the client.
func (c *Ctx) CountRowsReturned(n int) {
	if c != nil {
		c.counts[rowsReturned].Add(int64(n))
	}
}

// CountBytesMoved records payload bytes crossing the simulated network.
func (c *Ctx) CountBytesMoved(n int) {
	if c != nil {
		c.counts[bytesMoved].Add(int64(n))
	}
}

// CountLock records one lock acquire/release cycle.
func (c *Ctx) CountLock() {
	if c != nil {
		c.counts[locks].Add(1)
	}
}

// CountRestart records one dirty-read scan restart (§VIII-C).
func (c *Ctx) CountRestart() {
	if c != nil {
		c.counts[restarts].Add(1)
	}
}

// CountOCCRetry records one optimistic-transaction validation abort that
// was retried from a fresh snapshot.
func (c *Ctx) CountOCCRetry() {
	if c != nil {
		c.counts[occRetries].Add(1)
	}
}

// CountStaleRead records one read that observed an asynchronously maintained
// view lagging its snapshot, with the observed lag in timestamp units
// (commits the view has not yet applied as of the reader's snapshot).
func (c *Ctx) CountStaleRead(lag int64) {
	if c != nil {
		c.counts[staleReads].Add(1)
		if lag > 0 {
			c.counts[staleLag].Add(lag)
		}
	}
}

// CountWatermarkWait records one read that blocked until a view's freshness
// watermark covered its snapshot.
func (c *Ctx) CountWatermarkWait() {
	if c != nil {
		c.counts[watermarkWaits].Add(1)
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
		RPCs:           c.counts[rpcs].Load(),
		RowsScanned:    c.counts[rowsScanned].Load(),
		RowsReturned:   c.counts[rowsReturned].Load(),
		BytesMoved:     c.counts[bytesMoved].Load(),
		Locks:          c.counts[locks].Load(),
		Restarts:       c.counts[restarts].Load(),
		OCCRetries:     c.counts[occRetries].Load(),
		StaleReads:     c.counts[staleReads].Load(),
		StaleLag:       c.counts[staleLag].Load(),
		WatermarkWaits: c.counts[watermarkWaits].Load(),
		Elapsed:        c.Elapsed(),
	}
	s.TTFR, _ = c.TimeToFirstRow() // zero when no row was marked
	return s
}
