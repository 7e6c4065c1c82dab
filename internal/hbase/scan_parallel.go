package hbase

import (
	"sync"
	"sync/atomic"

	"synergy/internal/sim"
)

// chunkPrefetch bounds how many fetched-but-unconsumed batches each region
// stream may hold, so a fast producer cannot buffer an entire region ahead
// of the consumer.
const chunkPrefetch = 2

// scanWorkers is the scatter-gather half of a Scanner: every in-range region
// becomes one drain job on the client's shared scan pool (see scanPool), and
// the consumer folds the per-region streams back into one key-ordered stream.
// Regions hold disjoint key ranges and the scanner lists them in scan order
// (ascending, or last to first for a reversed scan), so the ordered merge
// delivers region i's buffered chunks before region i+1's while later regions
// prefetch in the background. A job the pool has not started by the time the
// consumer needs it is claimed and drained by the consumer itself
// (Scanner.advance), so a busy pool slows a scan down to at worst the pace of
// a scan without workers but can never stall it.
//
// Simulated cost follows fork/join semantics: each region stream charges its
// RPCs and per-row work to a forked child ctx, and when the scan finishes
// (or is closed early) the parent is charged the children's makespan on the
// pool plus a per-chunk merge cost — not the sum, since the region fetches
// overlap.
type scanWorkers struct {
	streams []regionStream // one per region, in region (= key) order
	jobs    []scanJob      // one per region, claimed exactly once
	cancel  chan struct{}
	wg      sync.WaitGroup
	width   int   // pool width the cost join models
	chunks  int64 // chunks folded into the ordered stream
	joined  bool
}

type regionStream struct {
	ch  chan *chunkBuf
	ctx *sim.Ctx
}

// scanJob is one region's drain work, submitted to a scanPool. Whoever
// wins the claim — a pool worker, the consumer (caller-runs), or a closing
// scan sweeping unstarted jobs — owns the job's wg slot.
type scanJob struct {
	s     *Scanner
	idx   int
	taken atomic.Bool
}

// claim marks the job taken; only the winner may run (or discard) it.
func (j *scanJob) claim() bool { return j.taken.CompareAndSwap(false, true) }

// run drains the job's region on a pool worker.
func (j *scanJob) run() {
	defer j.s.workers.wg.Done()
	j.s.drainRegion(j.idx)
}

// startWorkers forks one child ctx per region and submits one drain job per
// region, in key order, to the pool — the stream the consumer needs next is
// always the oldest queued work.
func (s *Scanner) startWorkers(ctx *sim.Ctx, pool *scanPool) {
	w := &scanWorkers{
		streams: make([]regionStream, len(s.regions)),
		jobs:    make([]scanJob, len(s.regions)),
		cancel:  make(chan struct{}),
		width:   pool.size,
	}
	s.workers = w
	w.wg.Add(len(s.regions))
	for i := range s.regions {
		w.streams[i] = regionStream{ch: make(chan *chunkBuf, chunkPrefetch), ctx: ctx.Fork()}
		w.jobs[i] = scanJob{s: s, idx: i}
	}
	for i := range w.jobs {
		pool.submit(&w.jobs[i])
	}
}

// drainRegion fetches region i chunk by chunk on a pool worker, streaming
// the chunks to the consumer. Each chunk rides its own pooled buffer;
// ownership passes to the consumer on send, and buffers that never make it
// out (empty chunks, cancelled sends) go straight back to the pool.
func (s *Scanner) drainRegion(i int) {
	w := s.workers
	st := w.streams[i]
	defer close(st.ch)
	if w.cancelled() {
		return
	}
	resume := s.openRegion(st.ctx, i)
	sent := 0
	for {
		buf := s.client.getChunkBuf()
		next, done := s.nextChunk(st.ctx, i, buf, resume, sent)
		sent += len(buf.rows)
		if len(buf.rows) > 0 {
			select {
			case st.ch <- buf:
			case <-w.cancel:
				s.client.putChunkBuf(buf) // no consumer ever saw it
				return
			}
		} else {
			s.client.putChunkBuf(buf) // empty chunk: nothing escaped
		}
		if done {
			return
		}
		// Check between chunks too: a fully filtered-out region never
		// sends, and a closed scan must not keep draining it.
		if w.cancelled() {
			return
		}
		resume = next
	}
}

func (w *scanWorkers) cancelled() bool {
	select {
	case <-w.cancel:
		return true
	default:
		return false
	}
}

// install makes a worker's chunk b the consumer-visible chunk and recycles
// the previous one — the refill point at which rows handed out from the old
// chunk become invalid under the Cells lifetime rule.
func (s *Scanner) install(b *chunkBuf) {
	s.client.putChunkBuf(s.cur)
	s.cur, s.bi = b, 0
	s.workers.chunks++
}

// stop cancels outstanding region fetches and joins whatever work they
// already performed into ctx. Jobs still queued on the pool are claimed
// away so no worker ever starts them. Only buffers no consumer ever saw —
// those still sitting in the prefetch channels once the workers have
// stopped — return to the pool here; cur is the consumer's (see Next).
func (s *Scanner) stop(ctx *sim.Ctx) {
	w := s.workers
	if w.joined {
		return
	}
	close(w.cancel)
	if s.inline {
		s.inline = false
		w.wg.Done() // consumer owned the claimed job it was draining
	}
	for i := range w.jobs {
		if w.jobs[i].claim() {
			w.wg.Done() // never started; nothing fetched, nothing to charge
		}
	}
	// Unblock producers stuck on full streams, then wait them out.
	w.wg.Wait()
	// Producers are done, so a non-blocking sweep sees every buffered
	// chunk. Channels of claimed-away jobs were never closed — range would
	// block on them, hence the select.
	for i := range w.streams {
	drain:
		for {
			select {
			case buf, ok := <-w.streams[i].ch:
				if !ok {
					break drain
				}
				s.client.putChunkBuf(buf)
			default:
				break drain
			}
		}
	}
	s.join(ctx)
}

// join folds the per-region children back into the parent under the pool's
// real concurrency: a scan over more regions than the pool has workers pays
// ceil(regions/width) rounds of region cost, not one — the shared pool's
// completion time, which is what makes pool sharing visible in figures.
func (s *Scanner) join(ctx *sim.Ctx) {
	w := s.workers
	w.joined = true
	children := make([]*sim.Ctx, len(w.streams))
	for i := range w.streams {
		children[i] = w.streams[i].ctx
	}
	ctx.JoinWidth(w.width, children...)
	ctx.Charge(sim.Micros(w.chunks * int64(s.client.hc.costs.ScanMergeChunk)))
}
