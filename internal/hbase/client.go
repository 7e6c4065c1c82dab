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
	// Phoenix's server-side aggregation does: the scan takes one Folder from
	// Fold, and each region — each unit of a fanned-out scan — adds every
	// visible row of its share of the range that passes Filter to it, charged
	// AggRow per row as server work, and answers with one RPC carrying the
	// Folder's partial rows instead of the rows. The stream then yields those,
	// region by region in scan order; Batch does not apply and a caller
	// folding sets no Limit. A reader that cannot fold where the rows live
	// ignores Fold and streams the rows — a point read (GetRow), a
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
	// Sequential keeps the scan from fanning out even when it could: its
	// regions are walked whole, one at a time, on the request ctx. Two callers
	// set it, because they run many short scans whose fan-out would cost more
	// than it overlaps: the index nested-loop join's per-outer-row prefix
	// probe (phoenix; a probe binding the whole row key is a Get and reaches
	// no scanner) and the view-maintenance locate scan (synergy). Without it a
	// scan fans out once it spans more than one region or a guidepost, and its
	// Limit is 0 or at least one Batch; a smaller Limit is reached sooner
	// walking in order than by forking.
	Sequential bool
}

// Folder aggregates a folding scan (ScanSpec.Fold) one region or unit at a
// time.
type Folder interface {
	// Add folds in one row. Its Cells are valid only during the call; the
	// values they hold are immutable and may be kept.
	Add(RowResult)
	// Rows returns what was folded in since the last Rows as partial rows —
	// one region's or unit's answer — and empties the Folder for the next.
	// The rows' Cells stay valid until the next Rows; the values they hold
	// may be kept.
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
// There is one walk, and the consumer runs it: it takes the regions in scan
// order and drains each chunk by chunk, asking each chunk for no more rows
// than Limit leaves. A scan without fan-out (see ScanSpec.Sequential) walks
// every region whole and charges every RPC to the request ctx. A fanned-out
// scan is Phoenix's intra-query parallelism: the range is cut into units of
// even depth that fill whole waves of the read pool, none crossing a region
// (see scanUnit), and each unit is charged to its own forked ctx; the forks
// are joined into the request when the scan ends or is closed, as if the
// units had run side by side. A Scanner assumes one sim.Ctx per request: the
// ctx passed to Next/Close is the one the scan is charged to.
type Scanner struct {
	client  *Client
	spec    ScanSpec
	batch   int
	regions []*Region  // in scan order: last to first for a reversed spec
	from    string     // bound the scan enters its range at: Start, or Stop reversed
	to      string     // bound it leaves at: Stop (exclusive), or Start (inclusive) reversed
	units   []scanUnit // a fanned-out scan's units, in scan order; nil: the regions, walked whole
	fold    Folder     // the scan's one Folder, handed to one region or unit after another
	paid    sim.Micros // charged to the request ctx at the first row, ahead of the join
	chunks  int64      // non-empty chunks handed to the consumer
	joined  bool

	wi     int  // region, or unit, being walked
	open   bool // walk wi is open: resume is where its next chunk starts
	eof    bool // walk wi has no chunk left
	resume string
	cur    *chunkBuf // the chunk rows are handed out of, refilled in place
	bi     int       // next row of cur
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
		spec:    spec,
		batch:   batch,
		regions: regions,
		from:    from,
		to:      to,
	}
	if spec.Fold != nil {
		s.fold = spec.Fold()
	}
	if (spec.Limit <= 0 || spec.Limit >= batch) && !spec.Sequential && c.hc.costs.ScanParallelism > 1 {
		s.units = s.cut()
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
	if s.sent == 0 && s.units != nil {
		// The first row is out once its unit's chunk is: the request has
		// waited that long, whatever the other units still do (see join).
		s.paid = s.units[s.wi].ctx.Elapsed()
		ctx.Charge(s.paid)
	}
	s.sent++
	if s.spec.Limit > 0 && s.sent >= s.spec.Limit {
		// cur still backs the row returned here, so it stays until Close.
		s.done = true
		s.join(ctx)
	}
	return row, true
}

// advance refills cur in place with the next non-empty chunk of the walk,
// moving on to the next region or unit as each runs out; every row handed
// out of cur has been consumed, so the refill is the point at which they
// become invalid. It reports false once every walk is exhausted.
func (s *Scanner) advance(ctx *sim.Ctx) bool {
	if s.cur == nil {
		s.cur = s.client.getChunkBuf()
	}
	for {
		if s.eof {
			s.wi++
			s.open, s.eof = false, false
		}
		if s.wi >= s.walks() {
			return false
		}
		r, from, end, wctx := s.walk(ctx)
		if !s.open {
			hc := s.client.hc
			hc.serverWork(wctx, r.Server(), hc.costs.ScanOpen)
			s.resume, s.open = from, true
		}
		var next string
		next, s.eof = s.nextChunk(wctx, r, end, s.cur, s.resume)
		s.resume, s.bi = next, 0
		if len(s.cur.rows) > 0 {
			s.chunks++
			return true
		}
	}
}

// walks counts the scan's walks: its units, or its regions.
func (s *Scanner) walks() int {
	if s.units != nil {
		return len(s.units)
	}
	return len(s.regions)
}

// walk describes walk wi: its region, the key it enters at, the bound it
// leaves at, and the ctx it is charged to — a unit's own fork, or the
// request's.
func (s *Scanner) walk(ctx *sim.Ctx) (r *Region, from, end string, wctx *sim.Ctx) {
	if s.units != nil {
		u := &s.units[s.wi]
		return u.r, u.from, u.end, &u.ctx
	}
	r = s.regions[s.wi]
	return r, s.entry(r), r.edge(s.spec.Reversed), ctx
}

// entry is the key a walk of region r starts from: the scan's entry bound,
// clamped to the region.
func (s *Scanner) entry(r *Region) string {
	if s.spec.Reversed {
		if r.end != "" && (s.from == "" || s.from > r.end) {
			return r.end
		}
	} else if s.from < r.start {
		return r.start
	}
	return s.from
}

// nextChunk performs one scanner RPC of region r from resume into buf,
// charging ctx. done reports the walk exhausted — by end, the range's far
// bound, or the limit; sent counts every row the scan returned against
// Limit. A folding scan's walk answers in one chunk, whatever want is.
func (s *Scanner) nextChunk(ctx *sim.Ctx, r *Region, end string, buf *chunkBuf, resume string) (next string, done bool) {
	limit := s.spec.Limit
	want := s.batch
	if limit > 0 && limit-s.sent < want {
		want = limit - s.sent
	}
	next, truncated := s.readChunk(ctx, r, end, buf, resume, want)
	done = truncated || next == "" || (limit > 0 && s.sent+len(buf.rows) >= limit)
	return next, done
}

// finish ends a scan at natural exhaustion. This Next call returns no row, so
// rows handed out of cur are no longer valid and it goes back to the pool.
func (s *Scanner) finish(ctx *sim.Ctx) {
	s.release()
	s.join(ctx)
}

// Close releases an unfinished scan. A fully drained scanner needs no
// Close; callers that abandon a scan early (dirty-read restarts) must call
// it so the work its units already did is still charged to ctx. Close
// invalidates previously returned rows (the Cells lifetime rule), which is
// what lets it recycle the current chunk.
func (s *Scanner) Close(ctx *sim.Ctx) {
	s.join(ctx)
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

// readChunk performs one scanner RPC against region r into buf, walking no
// further than end, and charges ctx for the server-side work and the
// response shipment. The buffer is reset on entry — this is the refill point
// that invalidates whatever rows it previously held. next is "" when the
// walk reached end; truncated reports that the range's far bound (the stop
// key, or the start key of a reversed scan) cut the chunk, meaning every
// remaining key in this and any later region is out of range. A folding
// scan's chunk is the walk's partial rows, which the region cut to the range
// itself.
func (s *Scanner) readChunk(ctx *sim.Ctx, r *Region, end string, buf *chunkBuf, resume string, want int) (next string, truncated bool) {
	hc := s.client.hc
	srv := r.Server()
	buf.reset()
	examined, folded, next := r.scanChunk(buf, resume, end, want, &s.spec, s.fold)
	for n := len(buf.rows); s.fold == nil && n > 0 && s.past(buf.rows[n-1].Key); n-- {
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
