package server

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrServerBusy reports an admission-queue overflow: every execution slot is
// busy and the wait queue is at its bound. The wire layer surfaces it as
// MySQL error 1040.
var ErrServerBusy = errors.New("server: admission queue full")

// Gate is the statement admission controller: a fixed pool of execution
// slots plus a bounded wait queue. Overload queues callers — wall-clock
// backpressure only, no simulated time is charged for queueing — and past
// the queue bound admission fails fast instead of accumulating unbounded
// waiters. One slot is held for the duration of one statement execution,
// never across client think time, so a session blocked mid-transaction on
// its client holds locks but no slot.
//
// Slot ownership and queue occupancy are one state, changed under mu: a
// releaser that finds a waiter hands its slot straight over and takes the
// waiter off the queue count in the same step, so a woken waiter that has
// not been scheduled yet is never counted against the queue bound. With C
// callers and slots+queue >= C, no caller is ever refused.
type Gate struct {
	maxQueue int

	mu      sync.Mutex
	free    int // idle slots
	waiting int // acquirers parked on handoff, not yet given a slot
	// handoff carries slots from releasers to parked acquirers. A token is
	// only ever sent for an acquirer already counted in waiting, and at most
	// one per slot is in flight, so the buffer makes Release non-blocking.
	handoff chan struct{}

	queued   atomic.Int64 // cumulative acquisitions that had to queue
	rejected atomic.Int64 // cumulative fast-fail rejections
}

// NewGate builds a gate with the given slot and queue bounds (defaults: 8
// slots, 16 queued).
func NewGate(slots, queue int) *Gate {
	if slots <= 0 {
		slots = 8
	}
	if queue <= 0 {
		queue = 16
	}
	return &Gate{maxQueue: queue, free: slots, handoff: make(chan struct{}, slots)}
}

// Acquire takes an execution slot, blocking in the wait queue when every
// slot is busy. It reports whether the caller had to queue; when the queue
// is at its bound it fails immediately with ErrServerBusy.
func (g *Gate) Acquire() (bool, error) {
	g.mu.Lock()
	if g.free > 0 {
		g.free--
		g.mu.Unlock()
		return false, nil
	}
	if g.waiting >= g.maxQueue {
		g.mu.Unlock()
		g.rejected.Add(1)
		return false, ErrServerBusy
	}
	g.waiting++
	g.mu.Unlock()
	g.queued.Add(1)
	<-g.handoff
	return true, nil
}

// TryAcquire takes a slot only if one is free, never queueing, so a caller
// can occupy the pool deterministically.
func (g *Gate) TryAcquire() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.free == 0 {
		return false
	}
	g.free--
	return true
}

// Release gives the slot to the longest-queued acquirer (channel order),
// taking it off the queue count on its behalf, or returns it to the pool
// when nobody waits.
func (g *Gate) Release() {
	g.mu.Lock()
	if g.waiting == 0 {
		g.free++
		g.mu.Unlock()
		return
	}
	g.waiting--
	g.mu.Unlock()
	g.handoff <- struct{}{}
}

// Waiting reports the acquirers currently queued.
func (g *Gate) Waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiting
}

// GateStats are cumulative admission counters.
type GateStats struct {
	// Queued counts acquisitions that found every slot busy and waited.
	Queued int64
	// Rejected counts acquisitions refused because the queue was full.
	Rejected int64
}

// Stats returns the cumulative admission counters.
func (g *Gate) Stats() GateStats {
	return GateStats{Queued: g.queued.Load(), Rejected: g.rejected.Load()}
}
