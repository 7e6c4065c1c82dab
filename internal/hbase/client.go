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

// Get reads one row.
func (c *Client) Get(ctx *sim.Ctx, tbl, key string, opts ReadOpts) (RowResult, error) {
	t, err := c.open(ctx, tbl)
	if err != nil {
		return RowResult{}, err
	}
	r := t.regionFor(key)
	srv := r.Server()
	res := r.get(key, opts)
	c.hc.serverWork(ctx, srv, c.hc.costs.GetSeek)
	c.hc.cl.RPC(ctx, c.node, srv, res.Bytes())
	if !res.Empty() {
		ctx.CountRowsReturned(1)
	}
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
		out[i] = r.get(key, opts)
		n++
		bytes += out[i].Bytes()
		if !out[i].Empty() {
			found++
		}
	}
	c.hc.serverWork(ctx, srv, sim.Micros(int64(n)*int64(c.hc.costs.GetSeek)))
	c.hc.cl.RPC(ctx, c.node, srv, bytes)
	ctx.CountRowsReturned(found)
}

// Put writes cells to a row. Zero-timestamp cells are stamped server-side.
func (c *Client) Put(ctx *sim.Ctx, tbl, key string, cells []Cell) error {
	t, err := c.open(ctx, tbl)
	if err != nil {
		return err
	}
	r := t.regionFor(key)
	srv := r.Server()
	ts := c.hc.NextTS()
	bytes := 0
	stamped := make([]Cell, len(cells))
	for i, cell := range cells {
		if cell.TS == 0 {
			cell.TS = ts
		}
		stamped[i] = cell
		bytes += len(key) + len(cell.Qualifier) + len(cell.Value) + kvOverhead
	}
	c.hc.cl.RPC(ctx, c.node, srv, bytes)
	c.hc.walAppend(ctx, srv, bytes)
	c.hc.serverWork(ctx, srv, c.hc.costs.PutApply)
	r.put(key, stamped)
	return nil
}

// Delete removes a whole row, or only the given qualifiers.
func (c *Client) Delete(ctx *sim.Ctx, tbl, key string, qualifiers ...string) error {
	return c.DeleteAt(ctx, tbl, key, 0, qualifiers...)
}

// DeleteAt removes a row (or qualifiers) with an explicit tombstone
// timestamp; ts == 0 uses the server clock. MVCC transactions stamp
// tombstones with their transaction id.
func (c *Client) DeleteAt(ctx *sim.Ctx, tbl, key string, ts int64, qualifiers ...string) error {
	t, err := c.open(ctx, tbl)
	if err != nil {
		return err
	}
	if ts == 0 {
		ts = c.hc.NextTS()
	}
	r := t.regionFor(key)
	srv := r.Server()
	c.hc.cl.RPC(ctx, c.node, srv, len(key)+32)
	c.hc.walAppend(ctx, srv, len(key)+32)
	c.hc.serverWork(ctx, srv, c.hc.costs.PutApply)
	r.deleteRow(key, ts, qualifiers)
	return nil
}

// Increment atomically adds delta to a big-endian int64 counter cell.
func (c *Client) Increment(ctx *sim.Ctx, tbl, key, qualifier string, delta int64) (int64, error) {
	t, err := c.open(ctx, tbl)
	if err != nil {
		return 0, err
	}
	r := t.regionFor(key)
	srv := r.Server()
	c.hc.cl.RPC(ctx, c.node, srv, len(key)+len(qualifier)+16)
	c.hc.walAppend(ctx, srv, len(key)+len(qualifier)+16)
	c.hc.serverWork(ctx, srv, c.hc.costs.GetSeek+c.hc.costs.PutApply)
	return r.increment(key, qualifier, delta, c.hc.NextTS), nil
}

// CheckAndPut atomically puts cell iff the current value of (key, qualifier)
// equals expected (nil = absent). It is the primitive the Synergy lock tables
// are built on (§VIII-A, §IX-C). A zero-timestamp cell is stamped by the
// region inside the compare's critical section, above the version it
// compared against — stamped out here, an acquirer that lost the CPU between
// the stamp and the compare could apply "held" beneath a later "free" and
// leave the lock looking free to the next acquirer.
func (c *Client) CheckAndPut(ctx *sim.Ctx, tbl, key, qualifier string, expected []byte, cell Cell) (bool, error) {
	t, err := c.open(ctx, tbl)
	if err != nil {
		return false, err
	}
	r := t.regionFor(key)
	srv := r.Server()
	bytes := len(key) + len(cell.Qualifier) + len(cell.Value) + len(expected) + kvOverhead
	c.hc.cl.RPC(ctx, c.node, srv, bytes)
	c.hc.serverWork(ctx, srv, c.hc.costs.CheckAndPut)
	ok, _ := r.checkAndPut(key, qualifier, expected, cell, c.hc.NextTS)
	if ok {
		c.hc.walAppend(ctx, srv, bytes)
		c.hc.serverWork(ctx, srv, c.hc.costs.PutApply)
	}
	return ok, nil
}

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
	// FilterMergedOnly marks the filter as safe only over fully merged
	// rows: a read-your-writes view then keeps it entirely client-side
	// instead of pushing the store-safe split down. Plain store scans
	// ignore it (there is nothing to merge).
	FilterMergedOnly bool
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
	// Sequential forces region-at-a-time draining even when the scan
	// could scatter-gather. Point probes and short prefix scans set it:
	// their fan-out overhead outweighs the parallelism. Limit-bounded
	// scans scatter-gather only once Limit reaches the chunk size (at
	// least one full scanner RPC per region), where speculative per-region
	// prefetch amortizes the fan-out; smaller limits stay sequential for
	// early termination.
	Sequential bool
	// Parallelism caps the in-flight region scans of a scatter-gather
	// scan (0 = the cost model's ScanParallelism).
	Parallelism int
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
// Unlimited scans over multi-region ranges run in scatter-gather mode, as
// real Phoenix does for intra-query parallelism: a bounded worker pool
// drains every in-range region concurrently and the client folds the
// disjoint per-region streams back into one key-ordered stream. Limit-
// bounded scans (and spec.Sequential) keep the region-at-a-time path, where
// early termination beats parallel prefetch. A Scanner assumes one sim.Ctx
// per request: the ctx passed to Next/Close is the one the scatter-gather
// fork/join cost is charged to.
type Scanner struct {
	client  *Client
	tbl     *table
	spec    ScanSpec
	batch   int
	regions []*Region   // in scan order: last to first for a reversed spec
	from    string      // bound the scan enters its range at: Start, or Stop reversed
	to      string      // bound it leaves at: Stop (exclusive), or Start (inclusive) reversed
	par     *parScanner // nil in sequential mode
	ri      int         // current region index
	resume  string      // next key within current region
	opened  bool        // ScanOpen charged for current region
	chunk   *chunkBuf   // sequential mode: the one buffer refilled in place
	buf     []RowResult
	bi      int
	sent    int
	done    bool
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
		resume:  from,
	}
	if (spec.Limit <= 0 || spec.Limit >= batch) && !spec.Sequential && len(s.regions) > 1 {
		par := spec.Parallelism
		if par <= 0 {
			par = c.hc.costs.ScanParallelism
		}
		if par > 1 {
			// Scans ride the client's shared pool; an explicit Parallelism
			// override gets a private pool of that size (per-query pool
			// sizing, outside the shared cap).
			var pool *scanPool
			if spec.Parallelism > 0 {
				pool = newScanPool(spec.Parallelism)
			} else {
				pool = c.sharedScanPool()
			}
			s.par = startParScan(ctx, s, pool)
		}
	}
	return s, nil
}

// Next returns the next row. ok is false when the scan is exhausted.
func (s *Scanner) Next(ctx *sim.Ctx) (row RowResult, ok bool) {
	if s.done {
		return RowResult{}, false
	}
	if s.par != nil {
		row, ok = s.par.next(ctx)
		if !ok {
			s.done = true
			return row, ok
		}
		s.sent++
		if s.spec.Limit > 0 && s.sent >= s.spec.Limit {
			// Client-side trim: stop the region workers and fold their
			// already-performed (speculative) work into ctx.
			s.done = true
			s.par.close(ctx)
		}
		return row, true
	}
	for s.bi >= len(s.buf) {
		if !s.fetch(ctx) {
			s.done = true
			return RowResult{}, false
		}
	}
	row = s.buf[s.bi]
	s.bi++
	s.sent++
	if s.spec.Limit > 0 && s.sent >= s.spec.Limit {
		s.done = true
	}
	return row, true
}

// Close releases an unfinished scan. A fully drained scanner needs no
// Close; callers that abandon a scan early (dirty-read restarts) must call
// it so scatter-gather workers stop and their already-performed work is
// still charged to ctx. Close invalidates previously returned rows (the
// Cells lifetime rule), which is what lets it recycle the sequential chunk
// buffer.
func (s *Scanner) Close(ctx *sim.Ctx) {
	if s.par != nil {
		s.par.close(ctx)
	}
	s.releaseChunk()
	s.done = true
}

// releaseChunk returns the sequential scanner's chunk buffer to the client
// pool. Called only at points that invalidate previously returned rows —
// exhaustion of the last region, or Close.
func (s *Scanner) releaseChunk() {
	if s.chunk != nil {
		s.client.putChunkBuf(s.chunk)
		s.chunk, s.buf, s.bi = nil, nil, 0
	}
}

// past reports whether key lies beyond the bound the scan leaves its range at.
func (s *Scanner) past(key string) bool {
	if s.spec.Reversed {
		return key < s.to
	}
	return s.to != "" && key >= s.to
}

// enter clamps a resume key to region r: the key a chunk of r starts from
// when the scan arrives there at from.
func (s *Scanner) enter(r *Region, from string) string {
	if s.spec.Reversed {
		if r.end != "" && (from == "" || from > r.end) {
			return r.end
		}
	} else if from < r.start {
		return r.start
	}
	return from
}

// fetchChunk performs one scanner RPC against region r into buf, charging
// ctx for the server-side work and the response shipment. It is shared by
// the sequential path and the scatter-gather workers so that both modes
// charge identically. The buffer is reset on entry — this is the refill
// point that invalidates whatever rows it previously held. next is "" when
// the region is exhausted; truncated reports that the range's far bound (the
// stop key, or the start key of a reversed scan) cut the chunk, meaning every
// remaining key in this and any later region is out of range.
func (s *Scanner) fetchChunk(ctx *sim.Ctx, r *Region, buf *chunkBuf, resume string, want int) (next string, truncated bool) {
	hc := s.client.hc
	srv := r.Server()
	buf.reset()
	examined, next := r.scanChunk(buf, resume, want, s.spec.Reversed, s.spec.Read, s.spec.Filter, s.spec.Columns)
	for n := len(buf.rows); n > 0 && s.past(buf.rows[n-1].Key); n-- {
		buf.rows[n-1] = RowResult{} // reset clears rows to its length only
		buf.rows = buf.rows[:n-1]
		truncated = true
	}
	ctx.CountRowsScanned(examined)
	hc.serverWork(ctx, srv, sim.Micros(int64(examined)*int64(hc.costs.ScanNextRow)))
	bytes := 0
	for _, row := range buf.rows {
		bytes += row.Bytes()
	}
	ctx.CountRowsReturned(len(buf.rows))
	hc.cl.RPC(ctx, s.client.node, srv, bytes)
	return next, truncated
}

// fetch pulls the next chunk from the current region into the scanner's
// owned chunk buffer, advancing to the next region as needed. Reports false
// when all regions are exhausted, at which point the buffer returns to the
// client pool (exhaustion invalidates previously returned rows).
func (s *Scanner) fetch(ctx *sim.Ctx) bool {
	hc := s.client.hc
	if s.chunk == nil {
		s.chunk = s.client.getChunkBuf()
	}
	for s.ri < len(s.regions) {
		r := s.regions[s.ri]
		if !s.opened {
			hc.serverWork(ctx, r.Server(), hc.costs.ScanOpen)
			s.opened = true
			s.resume = s.enter(r, s.resume)
		}
		want := s.batch
		if s.spec.Limit > 0 {
			if remaining := s.spec.Limit - s.sent; remaining < want {
				want = remaining
			}
		}
		next, truncated := s.fetchChunk(ctx, r, s.chunk, s.resume, want)
		switch {
		case truncated:
			// Terminate so no further region is ever opened.
			s.ri = len(s.regions)
			s.opened = false
		case next == "":
			// The next region is entered at its near edge; enter clamps the
			// scan's own entry key to it.
			s.ri++
			s.opened = false
			s.resume = s.from
		default:
			s.resume = next
		}
		if len(s.chunk.rows) > 0 {
			s.buf, s.bi = s.chunk.rows, 0
			return true
		}
	}
	s.releaseChunk()
	return false
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
