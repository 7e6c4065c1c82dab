package hbase

import (
	"slices"
	"sync"

	"synergy/internal/sim"
)

// Client is an application-side HBase handle, analogous to an HBase
// Connection + Table API. Clients carry the connection/meta-cache state whose
// warm-up cost dominates the paper's lock-overhead experiment (Figure 11):
// a cold client pays ConnectionSetup before its first operation and a
// MetaLookup per table on first touch.
type Client struct {
	hc   *HCluster
	node string // node the client runs on

	mu        sync.Mutex
	connected bool
	// metaCache maps table name → the region-layout generation this client
	// last looked up. A split or balancer move bumps the table's generation,
	// so the client's next touch misses and pays one MetaLookup — the
	// meta-cache invalidation real HBase clients experience as an NSRE retry.
	metaCache map[string]int64

	// mutPool recycles Mutation buffers across BufferedMutator flushes —
	// the write path's dominant per-statement allocation once batching
	// amortized the RPCs.
	mutPool sync.Pool
	// overlayPool and otPool recycle the read-your-writes overlay index
	// (the per-table map and the overlayTable structs) across transactions
	// on the same client — the maps were the next allocation hot spot after
	// Mutation buffers on maintenance-heavy statements.
	overlayPool sync.Pool
	otPool      sync.Pool

	// chunkPool recycles scan chunk buffers (rows + cell arena) across the
	// client's scanners — the read path's dominant allocation once rows
	// stopped being materialized one slice at a time. See chunkBuf for the
	// ownership protocol.
	chunkPool sync.Pool

	// pool is the client's shared scatter-gather scan pool (lazily built;
	// guarded by mu). All of the client's parallel scans draw region-fetch
	// workers from it, modeling Phoenix's global thread pool: a client's
	// total in-flight region fetches never exceed Costs.ScanParallelism,
	// however many scanners are open.
	pool *scanPool
}

// sharedScanPool returns the client's scan pool, creating it at
// Costs.ScanParallelism workers on first use.
func (c *Client) sharedScanPool() *scanPool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pool == nil {
		c.pool = newScanPool(c.hc.costs.ScanParallelism)
	}
	return c.pool
}

// getMutBuf returns an empty Mutation buffer, reusing a flushed one when
// available.
func (c *Client) getMutBuf() []Mutation {
	if v := c.mutPool.Get(); v != nil {
		return (*v.(*[]Mutation))[:0]
	}
	return make([]Mutation, 0, 16)
}

// putMutBuf recycles a Mutation buffer. MutateBatch copies mutations into
// region groups before applying, so the buffer is dead once a flush
// returns.
func (c *Client) putMutBuf(buf []Mutation) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	c.mutPool.Put(&buf)
}

// getOverlay returns an empty overlay index, reusing a recycled one.
func (c *Client) getOverlay() map[string]*overlayTable {
	if v := c.overlayPool.Get(); v != nil {
		return v.(map[string]*overlayTable)
	}
	return make(map[string]*overlayTable, 4)
}

// getOverlayTable returns an empty per-table overlay, reusing a recycled
// one (rows map kept allocated, keys slice kept at capacity).
func (c *Client) getOverlayTable() *overlayTable {
	if v := c.otPool.Get(); v != nil {
		return v.(*overlayTable)
	}
	return newOverlayTable()
}

// putOverlay recycles an overlay index, its tables, and the pending rowData
// structs themselves onto each table's freelist. Recycling the rowDatas is
// safe because no returned RowResult aliases a pending cell slice — every
// overlay read path (ReadView.Get, overlayRow, the overlay scanner) copies
// the visible pairs out of the pending cells before returning, so the only
// state a caller can still hold is the Value byte slices, which are shared,
// immutable, and never cleared here. Safe only once nothing reads through
// the overlay anymore, which the BufferedMutator contract already
// guarantees (one request, scans drained before a flush boundary).
func (c *Client) putOverlay(ov map[string]*overlayTable) {
	for tbl, ot := range ov {
		for _, rd := range ot.rows {
			clear(rd.cells[:cap(rd.cells)]) // drop value refs; keep capacity
			rd.cells = rd.cells[:0]
			ot.free = append(ot.free, rd)
		}
		clear(ot.rows)
		ot.keys = ot.keys[:0]
		ot.sorted = false
		c.otPool.Put(ot)
		delete(ov, tbl)
	}
	c.overlayPool.Put(ov)
}

// getChunkBuf returns an empty chunk buffer, reusing a released one when
// available.
func (c *Client) getChunkBuf() *chunkBuf {
	if v := c.chunkPool.Get(); v != nil {
		return v.(*chunkBuf)
	}
	return &chunkBuf{}
}

// putChunkBuf releases a chunk buffer back to the pool. Callers must
// guarantee that no row handed out from the buffer is still consumer-visible
// under the Cells lifetime rule — the legal release points are enumerated on
// chunkBuf.
func (c *Client) putChunkBuf(b *chunkBuf) {
	if b == nil {
		return
	}
	b.reset()
	c.chunkPool.Put(b)
}

// NewClient returns a cold client running on the workload driver node.
func (hc *HCluster) NewClient() *Client {
	return &Client{hc: hc, node: "client-0", metaCache: make(map[string]int64)}
}

// NewWarmClient returns a client with established connections and a primed
// meta cache, as a long-running application server would hold.
func (hc *HCluster) NewWarmClient() *Client {
	c := hc.NewClient()
	c.connected = true
	for _, name := range hc.Tables() {
		if t, err := hc.lookup(name); err == nil {
			c.metaCache[name] = t.gen.Load() + 1
		}
	}
	return c
}

// prepare charges connection warm-up and region location lookup as needed.
// The cache is keyed by the table's region-layout generation: a split or a
// balancer move since the last lookup means the cached locations are stale
// and the client pays one fresh MetaLookup.
func (c *Client) prepare(ctx *sim.Ctx, t *table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.connected {
		ctx.Charge(c.hc.costs.ConnectionSetup)
		c.connected = true
	}
	// Cache generations are stored +1 so the zero value of a missing entry
	// never collides with a real generation.
	gen := t.gen.Load() + 1
	if c.metaCache[t.spec.Name] != gen {
		ctx.Charge(c.hc.costs.MetaLookup)
		c.metaCache[t.spec.Name] = gen
	}
}

// open resolves a table and charges the client's connection/meta warm-up —
// the shared entry of every data operation.
func (c *Client) open(ctx *sim.Ctx, tbl string) (*table, error) {
	t, err := c.hc.lookup(tbl)
	if err != nil {
		return nil, err
	}
	c.prepare(ctx, t)
	return t, nil
}

// Get reads one row: GetRow with nothing but the read options.
func (c *Client) Get(ctx *sim.Ctx, tbl, key string, opts ReadOpts) (RowResult, error) {
	return c.GetRow(ctx, tbl, key, ScanSpec{Read: opts})
}

// GetRow reads row key the way a scan of the single-row range [key, key\x00)
// would, as one Get: under spec.Read, cut to spec.Columns, and dropped
// server-side unless spec.Filter keeps it (HBase's Get with its column and
// filter options). The rest of spec — the range, Limit, Batch, Reversed,
// Sequential, Fold — has nothing to say about one row. It is charged a GetSeek and
// the bytes of what it ships (nothing for an absent or filtered-out row, as a
// scan ships nothing for it), and counts a stored row as one row examined
// whether or not the filter keeps it.
func (c *Client) GetRow(ctx *sim.Ctx, tbl, key string, spec ScanSpec) (RowResult, error) {
	t, err := c.open(ctx, tbl)
	if err != nil {
		return RowResult{}, err
	}
	r := t.regionFor(key)
	srv := r.Server()
	res := r.get(key, spec.Read, spec.Columns)
	shipped := 0
	if !res.Empty() {
		ctx.CountRowsScanned(1)
		if spec.Filter == nil || spec.Filter(res) {
			shipped = res.Bytes()
			ctx.CountRowsReturned(1)
		} else {
			res.Cells = nil
		}
	}
	c.hc.serverWork(ctx, srv, c.hc.costs.GetSeek)
	c.hc.cl.RPC(ctx, c.node, srv, shipped)
	return res, nil
}

// GetMany reads several rows of one table: HBase's multi-get. The keys are
// grouped by region, each region's group travels in one RPC charged a GetSeek
// per key and the bytes of the rows it returns, and several regions are read
// in parallel with fork/join accounting, as MutateBatch applies its region
// groups — so one key costs what Get costs. The results line up with keys; an
// absent row is an empty RowResult.
func (c *Client) GetMany(ctx *sim.Ctx, tbl string, keys []string, opts ReadOpts) ([]RowResult, error) {
	out := make([]RowResult, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	t, err := c.open(ctx, tbl)
	if err != nil {
		return nil, err
	}
	first := t.regionFor(keys[0])
	var regions []*Region // per key, once the keys span regions
	for i := 1; i < len(keys) && regions == nil; i++ {
		if r := t.regionFor(keys[i]); r != first {
			regions = make([]*Region, len(keys))
			for j := range keys {
				regions[j] = t.regionFor(keys[j])
			}
		}
	}
	if regions == nil {
		c.getFrom(ctx, first, keys, nil, out, opts)
		return out, nil
	}
	var children []*sim.Ctx
	for i, r := range regions {
		if slices.Index(regions, r) < i {
			continue // the group of r is read already
		}
		child := ctx.Fork()
		c.getFrom(child, r, keys, regions, out, opts)
		children = append(children, child)
	}
	ctx.Join(children...)
	return out, nil
}

// getFrom is one region's share of a multi-get: the keys whose region is r
// (every key when regions is nil) read into out, in one RPC.
func (c *Client) getFrom(ctx *sim.Ctx, r *Region, keys []string, regions []*Region, out []RowResult, opts ReadOpts) {
	srv := r.Server()
	n, bytes, found := 0, 0, 0
	for i, key := range keys {
		if regions != nil && regions[i] != r {
			continue
		}
		out[i] = r.get(key, opts, nil)
		n++
		bytes += out[i].Bytes()
		if !out[i].Empty() {
			found++
		}
	}
	c.hc.serverWork(ctx, srv, sim.Micros(int64(n)*int64(c.hc.costs.GetSeek)))
	c.hc.cl.RPC(ctx, c.node, srv, bytes)
	ctx.CountRowsScanned(found)
	ctx.CountRowsReturned(found)
}

// Put writes cells to a row. Zero-timestamp cells are stamped server-side.
func (c *Client) Put(ctx *sim.Ctx, tbl, key string, cells []Cell) error {
	_, _, err := c.mutateOne(ctx, PutMutation(tbl, key, cells, 0))
	return err
}

// Delete removes a whole row, or only the given qualifiers.
func (c *Client) Delete(ctx *sim.Ctx, tbl, key string, qualifiers ...string) error {
	return c.DeleteAt(ctx, tbl, key, 0, qualifiers...)
}

// DeleteAt removes a row (or qualifiers) with an explicit tombstone
// timestamp; ts == 0 uses the server clock. MVCC transactions stamp
// tombstones with their transaction id.
func (c *Client) DeleteAt(ctx *sim.Ctx, tbl, key string, ts int64, qualifiers ...string) error {
	_, _, err := c.mutateOne(ctx, DeleteMutation(tbl, key, ts, qualifiers...))
	return err
}

// CheckAndPut atomically puts cell iff the current value of (key, qualifier)
// equals expected (nil = absent). It is the primitive the Synergy lock tables
// are built on (§VIII-A, §IX-C). A zero-timestamp cell is stamped by the
// region inside the compare's critical section, above the version it
// compared against — stamped out here, an acquirer that lost the CPU between
// the stamp and the compare could apply "held" beneath a later "free" and
// leave the lock looking free to the next acquirer. It reports whether the
// put applied: whether the region stamped it, which a cell that arrives
// stamped does not tell.
func (c *Client) CheckAndPut(ctx *sim.Ctx, tbl, key, qualifier string, expected []byte, cell Cell) (bool, error) {
	one := casCells.Get().(*[1]Cell)
	one[0] = cell
	_, casTS, err := c.mutateOne(ctx, Mutation{Table: tbl, Key: key, Cells: one[:], CheckAndPut: true, CheckQualifier: qualifier, CheckExpected: expected})
	*one = [1]Cell{}
	casCells.Put(one)
	return casTS != 0, err
}

// casCells recycles the one-cell slice a CheckAndPut's mutation carries. The
// region takes the cell by value, so the slice is free again once mutateOne
// returns, and a lock acquire or release allocates nothing for it.
var casCells = sync.Pool{New: func() any { return new([1]Cell) }}

// ScanSpec describes a scan.
type ScanSpec struct {
	Start  string // inclusive; "" = table start
	Stop   string // exclusive; "" = table end
	Prefix string // convenience: restricts to keys with this prefix
	Limit  int    // max rows returned; 0 = unlimited
	// Reversed streams the range in descending key order. Start, Stop and
	// Prefix still name the same [Start, Stop) key range and Limit still
	// counts returned rows — the scan simply begins just below Stop and ends
	// at Start, visiting regions last to first. The SQL planner sets it to
	// serve ORDER BY … DESC from a key instead of a sort.
	Reversed bool
	Read     ReadOpts
	// Filter drops rows server-side; dropped rows are examined but not
	// shipped (HBase filter pushdown). Filters must be pure row predicates:
	// a transaction's read-your-writes view evaluates the same filter both
	// server-side (store rows with no pending mutations) and client-side
	// (rows merged with pending cells).
	Filter func(RowResult) bool
	// Fold, when non-nil, aggregates the scan where its rows live, as
	// Phoenix's server-side aggregation does: each region takes a Folder from
	// Fold, adds every visible row of its share of the range that passes
	// Filter — charged AggRow per row, as server work — and answers with one
	// RPC carrying the Folder's partial rows instead of the rows. The stream
	// then yields those, region by region in scan order; Batch does not apply
	// and a caller folding sets no Limit. A reader that cannot fold where the
	// rows live ignores Fold and streams the rows — a point read (GetRow), a
	// transaction's view with pending rows in the range — so the caller tells
	// a partial row from a stored one.
	Fold func() Folder
	// Columns, when non-nil, is the set of qualifiers the scan reads: every
	// other cell stays in the store — the filter does not see it, the response
	// does not carry it, Bytes and with it the per-byte charge do not count
	// it. nil reads every column, at no cost for having the choice. The set
	// must hold every qualifier Filter reads and a column no stored row lacks
	// (a row with none of its cells in the set reads as absent); a caller that
	// checks rows for the dirty marker adds phoenix.DirtyQualifier itself.
	Columns *ColumnSet
	// Batch overrides the scanner caching (rows per RPC).
	Batch int
	// Sequential keeps the scan off the worker pool even when it could
	// scatter-gather: the consumer drains the regions one at a time. Two
	// callers set it, because they run many short scans whose fan-out would
	// cost more than it overlaps: the index nested-loop join's per-outer-row
	// prefix probe (phoenix; a probe binding the whole row key is a Get and
	// reaches no scanner) and the view-maintenance locate scan (synergy). Without
	// it a scan gets workers once it spans more than one region and its Limit
	// is 0 or at least one Batch; a smaller Limit is reached sooner by early
	// termination than by speculative per-region prefetch.
	Sequential bool
}

// Folder aggregates one region's share of a folding scan (ScanSpec.Fold).
type Folder interface {
	// Add folds in one row. Its Cells are valid only during the call; the
	// values they hold are immutable and may be kept.
	Add(RowResult)
	// Rows returns what was folded in as partial rows: the region's answer.
	Rows() []RowResult
}

func (s ScanSpec) bounds() (start, stop string) {
	start, stop = s.Start, s.Stop
	if s.Prefix != "" {
		start = s.Prefix
		stop = s.Prefix + "\xff\xff\xff\xff"
	}
	return start, stop
}

// Scanner streams rows from a table in key order across regions — ascending,
// or descending for a reversed spec, which lists its regions last to first
// and is otherwise the same scanner.
//
// There is one region walk. The consumer takes the regions in scan order and
// drains each one chunk by chunk itself (caller-runs), unless a worker of the
// client's shared scan pool has already started it — then it reads that
// worker's chunks instead. A scan without workers (see ScanSpec.Sequential)
// charges every RPC straight to the request ctx, stops at Limit, and asks each
// chunk for no more rows than the Limit leaves. A scan with workers is
// Phoenix's intra-query parallelism: every region is a job on the pool, each
// charging a forked ctx that is joined into the request when the scan ends or
// is closed (see scanWorkers). A Scanner assumes one sim.Ctx per request: the
// ctx passed to Next/Close is the one the scan is charged to.
type Scanner struct {
	client  *Client
	tbl     *table
	spec    ScanSpec
	batch   int
	regions []*Region    // in scan order: last to first for a reversed spec
	from    string       // bound the scan enters its range at: Start, or Stop reversed
	to      string       // bound it leaves at: Stop (exclusive), or Start (inclusive) reversed
	workers *scanWorkers // nil: the consumer drains every region itself

	ci  int       // region being consumed
	cur *chunkBuf // the chunk rows are handed out of; refilled in place by caller-runs
	bi  int       // next row of cur
	// Caller-runs state: set while the consumer drains region ci itself.
	inline bool
	eof    bool   // region ci has no chunk left
	resume string // key region ci's next chunk starts from
	base   int    // rows returned before region ci's own count against Limit begins
	sent   int
	done   bool
}

// Scan opens a scanner.
func (c *Client) Scan(ctx *sim.Ctx, tbl string, spec ScanSpec) (*Scanner, error) {
	t, err := c.open(ctx, tbl)
	if err != nil {
		return nil, err
	}
	batch := spec.Batch
	if batch <= 0 {
		batch = c.hc.costs.ScannerBatch
	}
	from, to := spec.bounds()
	regions := t.regionsInRange(from, to)
	if spec.Reversed {
		slices.Reverse(regions)
		from, to = to, from
	}
	s := &Scanner{
		client:  c,
		tbl:     t,
		spec:    spec,
		batch:   batch,
		regions: regions,
		from:    from,
		to:      to,
	}
	if len(regions) > 1 && (spec.Limit <= 0 || spec.Limit >= batch) && !spec.Sequential && c.hc.costs.ScanParallelism > 1 {
		s.startWorkers(ctx, c.sharedScanPool())
	}
	return s, nil
}

// Next returns the next row. ok is false when the scan is exhausted.
func (s *Scanner) Next(ctx *sim.Ctx) (row RowResult, ok bool) {
	if s.done {
		return RowResult{}, false
	}
	for s.cur == nil || s.bi >= len(s.cur.rows) {
		if !s.advance(ctx) {
			s.done = true
			s.finish(ctx)
			return RowResult{}, false
		}
	}
	row = s.cur.rows[s.bi]
	s.bi++
	s.sent++
	if s.spec.Limit > 0 && s.sent >= s.spec.Limit {
		s.done = true
		if s.workers != nil {
			// Client-side trim: stop the region workers and fold their
			// already-performed (speculative) work into ctx. cur still backs
			// the row returned here, so it stays until Close.
			s.stop(ctx)
		}
	}
	return row, true
}

// advance makes the next non-empty chunk of the scan current: the next chunk
// of the region the consumer drains itself, else that of the next region — a
// worker's, or, when no worker has claimed it, the consumer's own. It reports
// false once every region is exhausted.
func (s *Scanner) advance(ctx *sim.Ctx) bool {
	for {
		if s.inline {
			if s.refillInline(ctx) {
				return true
			}
			s.inline = false
			if s.workers != nil {
				s.workers.wg.Done() // the consumer owned this claimed job
			}
			s.ci++
			continue
		}
		if s.ci >= len(s.regions) {
			return false
		}
		w := s.workers
		if w == nil || w.jobs[s.ci].claim() {
			// No worker has started this region — run it inline rather than
			// wait for one (CallerRunsPolicy).
			s.startInline(ctx, s.ci)
			continue
		}
		chunk, ok := <-w.streams[s.ci].ch
		if !ok {
			s.ci++
			continue
		}
		s.install(chunk)
		return true
	}
}

// regionCtx is the ctx region i's work is charged to: the request's own, or
// the region's fork when the scan has workers.
func (s *Scanner) regionCtx(ctx *sim.Ctx, i int) *sim.Ctx {
	if s.workers == nil {
		return ctx
	}
	return s.workers.streams[i].ctx
}

// openRegion charges the region-open cost of region i to ctx and returns the
// key its first chunk starts from: the scan's entry bound, clamped to the
// region — the entry of a worker drain and a caller-runs drain alike.
func (s *Scanner) openRegion(ctx *sim.Ctx, i int) (resume string) {
	r := s.regions[i]
	hc := s.client.hc
	hc.serverWork(ctx, r.Server(), hc.costs.ScanOpen)
	if s.spec.Reversed {
		if r.end != "" && (s.from == "" || s.from > r.end) {
			return r.end
		}
	} else if s.from < r.start {
		return r.start
	}
	return s.from
}

// startInline begins a consumer-driven drain of region i. A scan with workers
// caps every region at Limit rows of its own (see nextChunk); one without
// counts every row it has returned against Limit.
func (s *Scanner) startInline(ctx *sim.Ctx, i int) {
	s.inline, s.eof = true, false
	s.resume = s.openRegion(s.regionCtx(ctx, i), i)
	s.base = 0
	if s.workers != nil {
		s.base = s.sent
	}
}

// refillInline refills cur in place with the next non-empty chunk of the
// region the consumer drains itself; every row handed out of cur has been
// consumed, so the refill is the point at which they become invalid. It
// reports false once the region is exhausted.
func (s *Scanner) refillInline(ctx *sim.Ctx) bool {
	if s.cur == nil {
		s.cur = s.client.getChunkBuf()
	}
	for !s.eof {
		var next string
		next, s.eof = s.nextChunk(s.regionCtx(ctx, s.ci), s.ci, s.cur, s.resume, s.sent-s.base)
		s.resume, s.bi = next, 0
		if len(s.cur.rows) > 0 {
			if s.workers != nil {
				s.workers.chunks++
			}
			return true
		}
	}
	return false
}

// nextChunk performs one scanner RPC of region i from resume into buf,
// charging ctx. done reports the region exhausted — by its end, the range's
// far bound, or the limit. Both the worker path (drainRegion) and the
// caller-runs path (refillInline) fetch exclusively through here, so the two
// can never diverge on limit or resume semantics. sent is the rows already
// counted against Limit: the whole scan's without workers; the region's own
// with them, since the merged result takes the first Limit rows in scan order
// and so no single region can contribute more — rows past the limit in early
// regions are speculative overfetch that the client trims. A folding scan's
// region answers in one chunk, whatever want is.
func (s *Scanner) nextChunk(ctx *sim.Ctx, i int, buf *chunkBuf, resume string, sent int) (next string, done bool) {
	limit := s.spec.Limit
	want := s.batch
	if limit > 0 && limit-sent < want {
		want = limit - sent
	}
	next, truncated := s.readChunk(ctx, s.regions[i], buf, resume, want)
	done = truncated || next == "" || (limit > 0 && sent+len(buf.rows) >= limit)
	return next, done
}

// finish ends a scan at natural exhaustion. This Next call returns no row, so
// rows handed out of cur are no longer valid and it goes back to the pool.
func (s *Scanner) finish(ctx *sim.Ctx) {
	s.release()
	if s.workers != nil {
		s.workers.wg.Wait() // all streams closed, workers are done or exiting
		s.join(ctx)
	}
}

// Close releases an unfinished scan. A fully drained scanner needs no
// Close; callers that abandon a scan early (dirty-read restarts) must call
// it so workers stop and their already-performed work is still charged to
// ctx. Close invalidates previously returned rows (the Cells lifetime rule),
// which is what lets it recycle the current chunk.
func (s *Scanner) Close(ctx *sim.Ctx) {
	if s.workers != nil {
		s.stop(ctx)
	}
	s.release()
	s.done = true
}

// release returns the current chunk to the client pool. Called only at
// points that invalidate previously returned rows — exhaustion, or Close.
func (s *Scanner) release() {
	s.client.putChunkBuf(s.cur)
	s.cur, s.bi = nil, 0
}

// past reports whether key lies beyond the bound the scan leaves its range at.
func (s *Scanner) past(key string) bool { return beyond(key, s.to, s.spec.Reversed) }

// readChunk performs one scanner RPC against region r into buf, charging
// ctx for the server-side work and the response shipment. The buffer is
// reset on entry — this is the refill point that invalidates whatever rows
// it previously held. next is "" when
// the region is exhausted; truncated reports that the range's far bound (the
// stop key, or the start key of a reversed scan) cut the chunk, meaning every
// remaining key in this and any later region is out of range. A folding
// scan's chunk is the region's partial rows, which the region cut to the
// range itself.
func (s *Scanner) readChunk(ctx *sim.Ctx, r *Region, buf *chunkBuf, resume string, want int) (next string, truncated bool) {
	hc := s.client.hc
	srv := r.Server()
	buf.reset()
	examined, folded, next := r.scanChunk(buf, resume, want, &s.spec)
	for n := len(buf.rows); s.spec.Fold == nil && n > 0 && s.past(buf.rows[n-1].Key); n-- {
		buf.rows[n-1] = RowResult{} // reset clears rows to its length only
		buf.rows = buf.rows[:n-1]
		truncated = true
	}
	ctx.CountRowsScanned(examined)
	hc.serverWork(ctx, srv, sim.Micros(int64(examined)*int64(hc.costs.ScanNextRow)+int64(folded)*int64(hc.costs.AggRow)))
	bytes := 0
	for _, row := range buf.rows {
		bytes += row.Bytes()
	}
	ctx.CountRowsReturned(len(buf.rows))
	hc.cl.RPC(ctx, s.client.node, srv, bytes)
	return next, truncated
}

// All drains the scanner into a caller-owned slice. The rows are deep-copied
// out of the stream's pooled chunk buffers into one arena owned by the
// result, so All costs O(log rows) allocations rather than one Clone per
// row, and the returned rows are caller-stable forever (point-read
// semantics) rather than bound by the stream lifetime rule.
//
//cellsvet:owner
func (s *Scanner) All(ctx *sim.Ctx) []RowResult {
	var out []RowResult
	var arena Cells
	for {
		row, ok := s.Next(ctx)
		if !ok {
			return out
		}
		start := len(arena)
		arena = append(arena, row.Cells...)
		out = append(out, RowResult{Key: row.Key, Cells: arena[start:len(arena):len(arena)]})
	}
}
