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

// parScanner is the scatter-gather engine behind Scanner: every in-range
// region becomes one drain job on the client's shared scan pool (see
// scanPool), and the consumer folds the per-region streams back into one
// key-ordered stream. Regions hold disjoint key ranges and the scanner lists
// them in scan order (ascending, or last to first for a reversed scan), so
// the ordered merge delivers region i's buffered chunks before region i+1's
// while later regions prefetch in the background.
//
// Jobs the pool has not started by the time the consumer needs them are
// claimed and fetched inline on the consuming request (caller-runs), so a
// busy pool slows a scan down to at worst the sequential pace but can
// never stall it.
//
// Simulated cost follows fork/join semantics: each region stream charges its
// RPCs and per-row work to a forked child ctx, and when the scan finishes
// (or is closed early) the parent is charged max(child elapsed) plus a
// per-chunk merge cost — not the sum, since the region fetches overlap.
type parScanner struct {
	s       *Scanner
	streams []regionStream // one per region, in region (= key) order
	jobs    []scanJob      // one per region, claimed exactly once
	cancel  chan struct{}
	wg      sync.WaitGroup

	ci     int       // region currently being consumed
	cur    *chunkBuf // pooled buffer backing buf; released at the next install
	buf    []RowResult
	bi     int
	chunks int64 // chunks folded into the ordered stream
	width  int   // pool width the cost join models (0 = unbounded)
	joined bool

	// Caller-runs state: set while the consumer itself drains the claimed
	// region ci chunk-by-chunk instead of reading a worker's stream.
	inline       bool
	inlineEOF    bool
	inlineResume string
	inlineSent   int
}

type regionStream struct {
	ch  chan *chunkBuf
	ctx *sim.Ctx
}

// scanJob is one region's drain work, submitted to a scanPool. Whoever
// wins the claim — a pool worker, the consumer (caller-runs), or a closing
// scan sweeping unstarted jobs — owns the job's wg slot.
type scanJob struct {
	p     *parScanner
	idx   int
	taken atomic.Bool
}

// claim marks the job taken; only the winner may run (or discard) it.
func (j *scanJob) claim() bool { return j.taken.CompareAndSwap(false, true) }

// run drains the job's region on a pool worker.
func (j *scanJob) run() {
	defer j.p.wg.Done()
	j.p.drainRegion(j.idx)
}

// startParScan forks one child ctx per region and submits one drain job per
// region, in key order, to the pool — the stream the consumer needs next is
// always the oldest queued work.
func startParScan(ctx *sim.Ctx, s *Scanner, pool *scanPool) *parScanner {
	p := &parScanner{
		s:       s,
		streams: make([]regionStream, len(s.regions)),
		jobs:    make([]scanJob, len(s.regions)),
		cancel:  make(chan struct{}),
		width:   pool.size,
	}
	p.wg.Add(len(s.regions))
	for i := range s.regions {
		p.streams[i] = regionStream{ch: make(chan *chunkBuf, chunkPrefetch), ctx: ctx.Fork()}
		p.jobs[i] = scanJob{p: p, idx: i}
	}
	for i := range p.jobs {
		pool.submit(&p.jobs[i])
	}
	return p
}

// openRegion charges the region-open cost to region i's child ctx and
// returns the clamped resume key — the shared entry protocol of a worker
// drain and a caller-runs inline drain.
func (p *parScanner) openRegion(i int) (resume string) {
	r := p.s.regions[i]
	hc := p.s.client.hc
	hc.serverWork(p.streams[i].ctx, r.Server(), hc.costs.ScanOpen)
	return p.s.enter(r, p.s.from)
}

// nextChunk performs one scanner RPC of region i from resume into buf,
// charging the region's child ctx exactly as the sequential path charges
// its parent. done reports the region exhausted — by its end, the range's far
// bound, or the per-region limit cap. Both the worker path (drainRegion) and the
// caller-runs path (fetchInline) fetch exclusively through here, so the
// two can never diverge on limit or resume semantics.
//
// Limit-bounded scatter-gather scans cap every region at Limit rows: the
// merged result takes the first Limit rows in scan order, so no single region
// can contribute more. Rows past the limit in early regions are speculative
// overfetch — the client trims them and cancels the workers.
func (p *parScanner) nextChunk(i int, buf *chunkBuf, resume string, sent int) (next string, done bool) {
	limit := p.s.spec.Limit
	want := p.s.batch
	if limit > 0 && limit-sent < want {
		want = limit - sent
	}
	next, truncated := p.s.fetchChunk(p.streams[i].ctx, p.s.regions[i], buf, resume, want)
	done = truncated || next == "" || (limit > 0 && sent+len(buf.rows) >= limit)
	return next, done
}

// drainRegion fetches region i chunk by chunk on a pool worker, streaming
// the chunks to the consumer. Each chunk rides its own pooled buffer;
// ownership passes to the consumer on send, and buffers that never make it
// out (empty chunks, cancelled sends) go straight back to the pool.
func (p *parScanner) drainRegion(i int) {
	st := p.streams[i]
	defer close(st.ch)
	if p.cancelled() {
		return
	}
	resume := p.openRegion(i)
	sent := 0
	for {
		buf := p.s.client.getChunkBuf()
		next, done := p.nextChunk(i, buf, resume, sent)
		sent += len(buf.rows)
		if len(buf.rows) > 0 {
			select {
			case st.ch <- buf:
			case <-p.cancel:
				p.s.client.putChunkBuf(buf) // no consumer ever saw it
				return
			}
		} else {
			p.s.client.putChunkBuf(buf) // empty chunk: nothing escaped
		}
		if done {
			return
		}
		// Check between chunks too: a fully filtered-out region never
		// sends, and a closed scan must not keep draining it.
		if p.cancelled() {
			return
		}
		resume = next
	}
}

func (p *parScanner) cancelled() bool {
	select {
	case <-p.cancel:
		return true
	default:
		return false
	}
}

// next returns the next row in key order, joining the forked costs into ctx
// once every stream is exhausted.
func (p *parScanner) next(ctx *sim.Ctx) (RowResult, bool) {
	for p.bi >= len(p.buf) {
		if p.inline {
			if p.fetchInline() {
				continue // buf refilled
			}
			p.inline, p.inlineEOF = false, false
			p.wg.Done() // the consumer owned this claimed job
			p.ci++
			continue
		}
		if p.ci >= len(p.streams) {
			p.finish(ctx)
			return RowResult{}, false
		}
		if p.jobs[p.ci].claim() {
			// The pool has not started this region yet — run it inline
			// rather than wait for a worker (CallerRunsPolicy).
			p.startInline(p.ci)
			continue
		}
		chunk, ok := <-p.streams[p.ci].ch
		if !ok {
			p.ci++
			continue
		}
		p.installChunk(chunk)
	}
	row := p.buf[p.bi]
	p.bi++
	return row, true
}

// installChunk makes b the consumer-visible chunk and recycles the previous
// one — the refill point at which rows handed out from the old chunk become
// invalid under the Cells lifetime rule.
func (p *parScanner) installChunk(b *chunkBuf) {
	if p.cur != nil {
		p.s.client.putChunkBuf(p.cur)
	}
	p.cur = b
	p.buf, p.bi = b.rows, 0
	p.chunks++
}

// startInline begins a consumer-driven drain of region i.
func (p *parScanner) startInline(i int) {
	p.inline, p.inlineEOF = true, false
	p.inlineResume, p.inlineSent = p.openRegion(i), 0
}

// fetchInline pulls the next chunk of the consumer-claimed region into a
// fresh pooled buffer and installs it. Reports false once the region is
// exhausted.
func (p *parScanner) fetchInline() bool {
	if p.inlineEOF {
		return false
	}
	for {
		buf := p.s.client.getChunkBuf()
		next, done := p.nextChunk(p.ci, buf, p.inlineResume, p.inlineSent)
		p.inlineSent += len(buf.rows)
		p.inlineEOF = done
		p.inlineResume = next
		if len(buf.rows) > 0 {
			p.installChunk(buf)
			return true
		}
		p.s.client.putChunkBuf(buf)
		if done {
			return false
		}
	}
}

// close cancels outstanding region fetches and joins whatever work they
// already performed into ctx. Jobs still queued on the pool are claimed
// away so no worker ever starts them.
//
// Chunk recycling on close is deliberately partial: only buffers no
// consumer ever saw — those still sitting in the prefetch channels once the
// workers have stopped — return to the pool. The consumer-visible current
// chunk is left to the GC, because Scanner.Next trims a limit-bounded scan
// in the same call that returns the limit-th row: that row still aliases
// p.cur when close runs.
func (p *parScanner) close(ctx *sim.Ctx) {
	if p.joined {
		return
	}
	close(p.cancel)
	if p.inline {
		p.inline = false
		p.wg.Done() // consumer owned the claimed job it was draining
	}
	for i := range p.jobs {
		if p.jobs[i].claim() {
			p.wg.Done() // never started; nothing fetched, nothing to charge
		}
	}
	// Unblock producers stuck on full streams, then wait them out.
	p.wg.Wait()
	// Producers are done, so a non-blocking sweep sees every buffered
	// chunk. Channels of claimed-away jobs were never closed — range would
	// block on them, hence the select.
	for i := range p.streams {
	drain:
		for {
			select {
			case buf, ok := <-p.streams[i].ch:
				if !ok {
					break drain
				}
				p.s.client.putChunkBuf(buf)
			default:
				break drain
			}
		}
	}
	p.cur = nil // stays with the consumer's last rows; GC reclaims it
	p.join(ctx)
}

func (p *parScanner) finish(ctx *sim.Ctx) {
	if p.joined {
		return
	}
	// Natural exhaustion: this Next call returns no row, so rows handed out
	// from the current chunk are no longer valid and it can be recycled.
	if p.cur != nil {
		p.s.client.putChunkBuf(p.cur)
		p.cur, p.buf, p.bi = nil, nil, 0
	}
	p.wg.Wait() // all streams closed, workers are done or exiting
	p.join(ctx)
}

// join folds the per-region children back into the parent under the pool's
// real concurrency: a scan over more regions than the pool has workers pays
// ceil(regions/width) rounds of region cost, not one — the shared pool's
// completion time, which is what makes pool sharing visible in figures.
func (p *parScanner) join(ctx *sim.Ctx) {
	p.joined = true
	children := make([]*sim.Ctx, len(p.streams))
	for i := range p.streams {
		children[i] = p.streams[i].ctx
	}
	ctx.JoinWidth(p.width, children...)
	ctx.Charge(sim.Micros(p.chunks * int64(p.s.client.hc.costs.ScanMergeChunk)))
}
