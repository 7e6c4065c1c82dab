package hbase

import (
	"bytes"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// memStore is the in-memory write buffer of a region. It hands out the
// storage of its rows from blocks it owns, as HBase's MemStore-Local
// Allocation Buffer (MSLAB) does, so a write allocates nothing of its own
// once a block has room:
//
//   - A row's rowData is cut from a block of rowDatas, and its cells live in a
//     window cut from a block of cells. A window belongs to the one row it was
//     handed to and is clipped to its capacity, so no append through it can
//     reach a neighbour's cells.
//   - A row that outgrows its window moves to one half as large again (room),
//     and its old window is cleared and kept as a spare for the next row that
//     needs one of that size — rows of a table grow through the same sizes.
//   - Blocks grow with the memstore (memBlockSize): the first is the first
//     row's size, the next as large as what the memstore has handed out up
//     to minBlock entries, then a quarter of it up to maxBlock. A block's
//     unused tail never exceeds what the memstore holds.
//
// The blocks belong to the memstore alone and are dropped with it at flush,
// once the rows are packed into a store file; nothing outside the region
// lock ever holds a window.
type memStore struct {
	rows map[string]*rowData
	keys []string
	// bytes is the KeyValue-format footprint (Σ KVSize) of the resident
	// cells, kept current by apply: it is what the flush trigger compares on
	// every write, so it must not cost a walk of the map.
	bytes int64

	// rowBlock and cellBlock are the unused tails of the current blocks;
	// held counts the cells of every window handed out so far. spare holds
	// the windows rows have moved out of, by capacity, for the next row
	// that needs a window of that size.
	rowBlock  []rowData
	cellBlock []Cell
	held      int
	spare     map[int][][]Cell

	// sortMu guards the lazy key sort so that concurrent scans — which
	// hold only the region read lock — do not race re-sorting keys.
	sortMu sync.Mutex
	sorted bool
}

// minBlock and maxBlock bound the entries of one memstore block.
const (
	minBlock = 16
	maxBlock = 256
)

func newMemStore() *memStore {
	return &memStore{rows: make(map[string]*rowData)}
}

// memBlockSize is the size of the next block of a memstore that has handed
// out held entries and needs room for n: as many as it has handed out, up to
// minBlock, then a quarter of them, up to maxBlock. A memstore's first block
// is its first row's.
func memBlockSize(held, n int) int {
	return max(n, min(held, max(held/4, minBlock), maxBlock))
}

func (m *memStore) upsert(key string) *rowData {
	rd := m.rows[key]
	if rd == nil {
		if len(m.rowBlock) == 0 {
			m.rowBlock = make([]rowData, memBlockSize(len(m.rows), 1))
		}
		rd = &m.rowBlock[0]
		m.rowBlock = m.rowBlock[1:]
		m.rows[key] = rd
		m.keys = append(m.keys, key)
		m.sorted = false
	}
	return rd
}

// room makes room in rd's window for n more cells, moving the row to a
// window half as large again, or as large as it needs, when its own has less.
func (m *memStore) room(rd *rowData, n int) {
	if cap(rd.cells)-len(rd.cells) >= n {
		return
	}
	size := max(cap(rd.cells)+cap(rd.cells)/2, len(rd.cells)+n)
	w := m.window(size)[:len(rd.cells)]
	copy(w, rd.cells)
	if old := rd.cells[:cap(rd.cells)]; len(old) > 0 {
		clear(old) // a spare window must not keep values alive
		if m.spare == nil {
			m.spare = make(map[int][][]Cell)
		}
		m.spare[len(old)] = append(m.spare[len(old)], old)
	}
	rd.cells = w
}

// window hands out an empty window of size cells: a spare one of that size,
// or else one cut from the current block.
func (m *memStore) window(size int) []Cell {
	if ws := m.spare[size]; len(ws) > 0 {
		m.spare[size] = ws[:len(ws)-1]
		return ws[len(ws)-1]
	}
	if len(m.cellBlock) < size {
		m.cellBlock = make([]Cell, memBlockSize(m.held, size))
	}
	w := m.cellBlock[:size:size]
	m.cellBlock = m.cellBlock[size:]
	m.held += size
	return w
}

// apply applies one cell to rd, the row upsert returned for key.
func (m *memStore) apply(key string, rd *rowData, c Cell, maxVersions int) {
	if len(rd.cells) == cap(rd.cells) && rd.grows(c, maxVersions) {
		m.room(rd, 1)
	}
	cells, payload := rd.apply(c, maxVersions)
	m.bytes += int64(cells*(kvOverhead+len(key)) + payload)
}

func (m *memStore) sortedKeys() []string {
	m.sortMu.Lock()
	if !m.sorted {
		sort.Strings(m.keys)
		m.sorted = true
	}
	m.sortMu.Unlock()
	return m.keys
}

func (m *memStore) len() int { return len(m.rows) }

// Region is one contiguous key range [start, end) of a table. An empty
// start/end means unbounded on that side.
type Region struct {
	mu    sync.RWMutex
	spec  *TableSpec
	start string
	end   string
	mem   *memStore
	files []*hfile // newest first
	// stats is the table-wide ledger of flushes and compactions; a split's
	// daughters keep counting into their parent's.
	stats *storeStats

	// server is the hosting region server node. It is written once, before
	// the region is published — in a table's region list, or as a split
	// parent's daughter — and only read after.
	server string

	// daughters is set (under mu) when the region splits: the region becomes
	// a forwarding shell. In-flight readers drain against its flushed, shared
	// store files, but writes arriving through a stale *Region — a mutation
	// batch grouped before a concurrent split — forward to the daughter that
	// owns the key, so no write ever lands in a dead memstore.
	daughters []*Region
}

func newRegion(spec *TableSpec, start, end string) *Region {
	return &Region{spec: spec, start: start, end: end, mem: newMemStore(), stats: new(storeStats)}
}

// storeStats counts the background store work of one table. Flushes and
// compactions are region server housekeeping in HBase — they run beside the
// request that happened to trip them and charge no statement's sim.Ctx — so
// they are counted here instead, for whoever prices them later.
type storeStats struct {
	flushes        atomic.Int64
	compactions    atomic.Int64
	compactedBytes atomic.Int64 // KeyValue-format bytes read by compactions
}

// contains reports whether key belongs to this region.
func (r *Region) contains(key string) bool {
	if key < r.start {
		return false
	}
	return r.end == "" || key < r.end
}

// readLocked materializes the visible pairs of one row, cut to cols (nil =
// every column), as a fresh, caller-stable Cells (nil when the row is absent
// or invisible). Caller holds r.mu.
func (r *Region) readLocked(key string, opts ReadOpts, cols *ColumnSet) Cells {
	m, parts := lookupRow(r.mem, r.files, key, cols)
	defer m.release()
	_, cells := m.read(parts, nil, opts)
	return cells
}

// get reads one row, cut to cols (nil = every column).
func (r *Region) get(key string, opts ReadOpts, cols *ColumnSet) RowResult {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return RowResult{Key: key, Cells: r.readLocked(key, opts, cols)}
}

// daughterFor returns the daughter owning key when the region has split, or
// nil while the region is live. Caller holds r.mu (either mode).
func (r *Region) daughterFor(key string) *Region {
	for _, d := range r.daughters {
		if d.contains(key) {
			return d
		}
	}
	return nil
}

// put applies one put mutation to a row, stamping it as it applies it. A
// zero ts is the server clock: it is drawn from clock while r.mu is held, one
// stamp per mutation, so the region applies the puts of one cell in the order
// of their stamps. Every cell whose TS is zero takes the mutation's stamp, and
// is written into the memstore by value, so cells is read and never written.
// It returns the stamp it drew, zero when ts arrived set.
func (r *Region) put(key string, ts int64, cells []Cell, clock func() int64) (drawn int64) {
	r.mu.Lock()
	if d := r.daughterFor(key); d != nil {
		r.mu.Unlock()
		return d.put(key, ts, cells, clock)
	}
	defer r.mu.Unlock()
	if ts == 0 {
		ts = clock()
		drawn = ts
	}
	rd := r.mem.upsert(key)
	if rd.cells == nil {
		r.mem.room(rd, len(cells)) // a row written whole, as BulkLoad sizes it
	}
	for _, c := range cells {
		if c.TS == 0 {
			c.TS = ts
		}
		r.mem.apply(key, rd, c, r.spec.MaxVersions)
	}
	r.afterWriteLocked()
	return drawn
}

// deleteRow writes a row tombstone, or column tombstones when qualifiers are
// given, stamped ts; a zero ts is drawn from clock under r.mu, as put draws
// it. It returns the stamp it drew, zero when ts arrived set.
func (r *Region) deleteRow(key string, ts int64, qualifiers []string, clock func() int64) (drawn int64) {
	r.mu.Lock()
	if d := r.daughterFor(key); d != nil {
		r.mu.Unlock()
		return d.deleteRow(key, ts, qualifiers, clock)
	}
	defer r.mu.Unlock()
	if ts == 0 {
		ts = clock()
		drawn = ts
	}
	rd := r.mem.upsert(key)
	if len(qualifiers) == 0 {
		r.mem.apply(key, rd, Cell{Qualifier: "", TS: ts, Type: TypeDeleteRow}, r.spec.MaxVersions)
	}
	for _, q := range qualifiers {
		r.mem.apply(key, rd, Cell{Qualifier: q, TS: ts, Type: TypeDeleteCol}, r.spec.MaxVersions)
	}
	r.afterWriteLocked()
	return drawn
}

// mutate applies one unconditional mutation, a put or a delete, and returns
// the stamp it drew (see put).
func (r *Region) mutate(m *Mutation, clock func() int64) int64 {
	if m.Delete {
		return r.deleteRow(m.Key, m.TS, m.Qualifiers, clock)
	}
	return r.put(m.Key, m.TS, m.Cells, clock)
}

// currentLocked reads what a conditional write compares against and must
// supersede: the visible value of (key, qualifier), and the newest timestamp
// among the versions and tombstones that cover that cell — its own
// qualifier's and the row's. newest is math.MinInt64 when there are none.
// Caller holds r.mu.
func (r *Region) currentLocked(key, qualifier string) (value []byte, newest int64) {
	m, parts := lookupRow(r.mem, r.files, key, nil)
	defer m.release()
	rd := m.fold(parts)
	newest = math.MinInt64
	for _, c := range rd.cells {
		if (c.Qualifier == qualifier || c.Qualifier == "") && c.TS > newest {
			newest = c.TS
		}
	}
	return rd.read(ReadOpts{}).Get(qualifier), newest
}

// stampLocked gives a conditional write's cell its server-side timestamp:
// drawn from clock while r.mu is held, so the order of the stamps of one
// cell's conditional writes is the order the region applied them in, and
// never at or below newest, the newest version the write was decided
// against — an older stamp would leave that version the visible one and the
// write applied yet unseen. A cell that arrives stamped keeps its stamp: the
// caller chose it.
func stampLocked(c *Cell, newest int64, clock func() int64) {
	if c.TS != 0 {
		return
	}
	c.TS = clock()
	if c.TS <= newest && newest < math.MaxInt64 {
		c.TS = newest + 1
	}
}

// checkAndPut atomically compares the current visible value of (key,
// qualifier) with expected (nil = must be absent) and applies the cell on
// match, stamping it from clock inside the critical section when it carries
// no timestamp. Returns whether the put was applied and the stamp it carries.
func (r *Region) checkAndPut(key, qualifier string, expected []byte, c Cell, clock func() int64) (bool, int64) {
	r.mu.Lock()
	if d := r.daughterFor(key); d != nil {
		r.mu.Unlock()
		return d.checkAndPut(key, qualifier, expected, c, clock)
	}
	defer r.mu.Unlock()
	current, newest := r.currentLocked(key, qualifier)
	if !bytes.Equal(current, expected) {
		return false, 0
	}
	stampLocked(&c, newest, clock)
	r.mem.apply(key, r.mem.upsert(key), c, r.spec.MaxVersions)
	r.afterWriteLocked()
	return true, c.TS
}

// scanChunk fills buf with up to limit visible rows with key >= from.key —
// > it when from.past — (and < end) in ascending key order, returning the
// number of rows examined server-side and where to resume (a "" key once the
// walk reaches end): just past the last returned key. A reversed chunk walks
// the other way: rows with key < from.key ("" = from the last key) and >= end,
// in descending order, and its resume key is the last returned key — an
// exclusive upper bound, as from is. end is the region's
// own edge (edge), or a cut where a fanned-out scan cut the region into
// units (see scanUnit). spec.Filter,
// when non-nil, drops rows server-side (they still count as examined);
// spec.Columns, when non-nil, is the cells a row is read down to before the
// filter sees it; spec.Read decides which versions are visible. buf must
// arrive empty (reset); the produced rows live in buf.rows and their Cells are
// windows into buf.arena, so they are valid only until the buffer's next reset
// — the chunkBuf ownership protocol governs when that may happen.
//
// A chunk with a fold is the walk's whole share of the scan's range, limit or
// not: every row that would have been returned — up to the range's far bound,
// which a plain chunk leaves to the client — goes into fold instead, folded
// counts them, and buf.rows is the fold's partial rows (Folder.Rows).
func (r *Region) scanChunk(buf *chunkBuf, from resumeAt, end string, limit int, spec *ScanSpec, fold Folder) (examined, folded int, next resumeAt) {
	r.mu.RLock()
	defer r.mu.RUnlock()

	reversed := spec.Reversed
	m := newRowMerger(r.mem, r.files, from.key, from.past, reversed, spec.Columns)
	defer m.release()
	var to string // the range's far bound, for a fold
	if fold != nil {
		limit = 0
		if to = spec.Stop; reversed {
			to = spec.Start
		}
	} else {
		need := m.remaining()
		if limit > 0 && limit < need {
			need = limit
		}
		if cap(buf.rows) < need {
			buf.rows = make([]RowResult, 0, need)
		}
	}
	for limit <= 0 || len(buf.rows) < limit {
		key, parts, ok := m.next()
		if !ok || beyond(key, end, reversed) || fold != nil && beyond(key, to, reversed) {
			if fold != nil {
				buf.rows = append(buf.rows, fold.Rows()...)
			}
			return examined, folded, resumeAt{}
		}
		examined++
		var cells Cells
		buf.arena, cells = m.read(parts, buf.arena, spec.Read)
		buf.wrote()
		if len(cells) == 0 {
			continue // deleted or invisible row
		}
		res := RowResult{Key: key, Cells: cells}
		keep := spec.Filter == nil || spec.Filter.Keep(res)
		if keep && fold == nil {
			buf.rows = append(buf.rows, res)
			continue
		}
		if keep {
			fold.Add(res)
			folded++
		}
		// Give the dropped or folded row's pairs back to the arena; nothing
		// references them.
		buf.arena = buf.arena[:len(buf.arena)-len(cells)]
	}
	// Limit reached: resume just past the last returned key.
	return examined, folded, resumeAt{key: buf.rows[len(buf.rows)-1].Key, past: !reversed}
}

// edge is the bound a walk in the given direction leaves the region at: its
// exclusive end going forward, its inclusive start going backward.
func (r *Region) edge(reversed bool) string {
	if reversed {
		return r.start
	}
	return r.end
}

// guidepostRows is the width of a guidepost: Phoenix's 100 MB guidepost
// width over a 10 GB region, scaled as defaultSplitThreshold is.
const guidepostRows = defaultSplitThreshold / 100

// share is the part of a scan's key range one region holds, counted in the
// region's largest store file: the file's rows a through b-1. units is how
// many units a fanned-out scan cuts it into (see Scanner.cut).
type share struct {
	f     *hfile
	a, b  int
	units int
}

// share returns the rows of the region's largest store file that lie inside
// both the key range [lo, hi) and the region. hi "" is open. A region with no
// store file has an empty share.
func (r *Region) share(lo, hi string) share {
	r.mu.RLock()
	f := r.largestFile()
	r.mu.RUnlock()
	if f == nil {
		return share{}
	}
	lo = max(lo, r.start)
	if r.end != "" && (hi == "" || r.end < hi) {
		hi = r.end
	}
	a, b := f.seek(lo), f.hi
	if hi != "" {
		b = f.seek(hi)
	}
	return share{f: f, a: a, b: max(a, b)}
}

// pieces is how many pieces the file's guideposts cut the share into, as
// Phoenix splits a scan at its statistics' guideposts: one more than the
// guideposts strictly inside it. The guideposts are every guidepostRows-th
// row of the file but the last, which would leave a short piece above it, so
// a file under 2·guidepostRows rows has none. This is the most units the share
// is cut into.
func (s share) pieces() int {
	if s.f == nil {
		return 1
	}
	below := (s.a - s.f.lo) / guidepostRows // guideposts at or below row a
	upTo := min(s.f.len()/guidepostRows-1, (s.b-s.f.lo-1)/guidepostRows)
	return 1 + max(0, upTo-below)
}

// deeper reports whether the share's units run deeper than t's.
func (s share) deeper(t share) bool { return (s.b-s.a)*t.units > (t.b-t.a)*s.units }

// cut is the key the share's j-th unit ends at going forward, for 0 < j <
// units: the file's key at j/units of the way through the share, so the units
// hold equal rows to within one and each cut lies strictly inside the share.
func (s share) cut(j int) string { return s.f.key(s.a + j*(s.b-s.a)/s.units) }

// largestFile is the region's largest store file, nil when it has none.
// Caller holds r.mu.
func (r *Region) largestFile() *hfile {
	var biggest *hfile
	for _, f := range r.files {
		if biggest == nil || f.len() > biggest.len() {
			biggest = f
		}
	}
	return biggest
}

// beyond reports whether a walk in the given direction has left a range at
// key: past its exclusive end going forward, below its inclusive start going
// backward. An empty bound is open.
func beyond(key, bound string, reversed bool) bool {
	if reversed {
		return key < bound
	}
	return bound != "" && key >= bound
}

// afterWriteLocked ends every memstore write. Once the resident buffer has
// reached the table's flush size, the writer that took it there flushes it
// and compacts what the policy selects, inline and under the r.mu it already
// holds: no background goroutine, so a given write order always leaves the
// same store files behind. Neither step charges the writer's sim.Ctx (see
// storeStats).
func (r *Region) afterWriteLocked() {
	if r.mem.bytes < r.spec.flushSize() {
		return
	}
	r.flushLocked()
	sizes := make([]int64, len(r.files))
	for i, f := range r.files {
		sizes[i] = f.size
	}
	if n := compactionRun(sizes); n > 0 {
		r.mergeLocked(n, false)
	}
}

// compactionRatio is how much larger than the newer files of a run together
// its oldest file may be and still be rewritten with them.
const compactionRatio = 4

// compactionRun is the compaction policy. Given the sizes of a region's
// store files, newest first, it returns how many of the newest to merge into
// one, or 0 for none: the longest run whose oldest file is at most
// compactionRatio times the size of the rest of the run. A run is always
// age-adjacent and starts at the newest file, so the merged file takes the
// run's place in the order and "newest file wins same-coordinate ties" holds
// across compactions; it is size-tiered, so fresh flushes gather into a
// growing delta and a big old file — the bulk-loaded base — is rewritten only
// once the files above it amount to a fixed share of it. What the policy
// leaves behind grows at least (1+compactionRatio)-fold from each file to the
// next older one, which bounds the file count by the logarithm of the
// region's size in flushes.
func compactionRun(sizes []int64) int {
	var newer int64
	for _, s := range sizes {
		newer += s
	}
	for n := len(sizes); n > 1; n-- {
		newer -= sizes[n-1]
		if sizes[n-1] <= compactionRatio*newer {
			return n
		}
	}
	return 0
}

// flush moves the memstore into a new immutable store file.
func (r *Region) flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
}

func (r *Region) flushLocked() {
	if r.mem.len() == 0 {
		return
	}
	keys := r.mem.sortedKeys()
	keyBytes := 0
	for _, k := range keys {
		keyBytes += len(k)
	}
	b := newHFileBuilder(len(keys), keyBytes)
	for _, k := range keys {
		b.add(k, r.mem.rows[k].cells)
	}
	// Newest file first so same-coordinate duplicates resolve toward
	// recent data.
	r.files = append([]*hfile{b.finish()}, r.files...)
	r.mem = newMemStore()
	r.stats.flushes.Add(1)
}

// mergeLocked rewrites the n newest store files as one — the one merge both
// kinds of compaction run. A minor one (what compactionRun selects) leaves
// each row as a single memstore would hold it: same-coordinate duplicates
// resolved toward the newer file, put versions beyond MaxVersions gone,
// tombstones and what they hide kept, because files older than the run may
// hold cells they still cover and a snapshot reader may still want what they
// hide. A major one covers every file and drops both (rowData.compact). The
// files may be the row windows a split left in a daughter; the merged file
// holds the window's rows only and the parent shell keeps the originals.
func (r *Region) mergeLocked(n int, major bool) {
	run := r.files[:n]
	m := newRowMerger(nil, run, "", false, false, nil)
	defer m.release()
	keyBytes := 0
	for _, f := range run {
		keyBytes += f.keyBytes()
		r.stats.compactedBytes.Add(f.size)
	}
	b := newHFileBuilder(m.remaining(), keyBytes)
	for {
		key, parts, ok := m.next()
		if !ok {
			break
		}
		rd := m.fold(parts)
		if major {
			rd.compact(r.spec.MaxVersions)
		} else {
			rd.trim(r.spec.MaxVersions)
		}
		if !rd.empty() {
			b.add(key, rd.cells)
		}
	}
	files := make([]*hfile, 0, 1+len(r.files)-n)
	if f := b.finish(); f.len() > 0 {
		files = append(files, f)
	}
	r.files = append(files, r.files[n:]...)
	r.stats.compactions.Add(1)
}

// majorCompact merges memstore and all store files into one file, dropping
// tombstones and surplus versions (§IX: experiments major-compact after
// database population). A region that already is one compacted file — a
// freshly bulk-loaded one — is left as it is.
func (r *Region) majorCompact() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	if len(r.files) == 0 || len(r.files) == 1 && r.files[0].compacted() {
		return
	}
	r.mergeLocked(len(r.files), true)
}

// rowCount estimates the number of distinct row keys (memstore rows may
// overlap file rows; the estimate is an upper bound, which is what split
// decisions need).
func (r *Region) rowCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := r.mem.len()
	for _, f := range r.files {
		n += f.len()
	}
	return n
}

// sizeBytes reports the KeyValue-format storage footprint of the region.
// Store files recorded theirs when they were built and the memstore keeps
// its own as it is written, so nothing is walked.
func (r *Region) sizeBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := r.mem.bytes
	for _, f := range r.files {
		total += f.size
	}
	return total
}

// midKey returns a key near the middle of the region's data, or "" when the
// region is too small to split.
func (r *Region) midKey() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// Use the largest store file for the estimate, as HBase does.
	biggest := r.largestFile()
	if biggest == nil || biggest.len() < 2 {
		// No (usable) store file yet. A region written since its last flush
		// can be over the size threshold all the same, so fall back to the
		// memstore's sorted keys rather than refusing to split.
		if r.mem.len() < 2 {
			return ""
		}
		keys := r.mem.sortedKeys()
		return keys[len(keys)/2]
	}
	return biggest.key(biggest.lo + biggest.len()/2)
}

// split divides the region at key, returning the two halves. The receiver
// becomes a forwarding shell: readers still holding it drain against its
// flushed store files, and late writes forward to the daughter owning the
// key. Each daughter gets a row window over the parent's files; the blocks
// themselves are shared, not copied. The left daughter stays on the parent's
// server and the right one goes to rightServer, both assigned before the
// daughters are published, so a writer forwarding through the parent never
// sees a daughter without its server.
func (r *Region) split(key, rightServer string) (*Region, *Region) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	left := newRegion(r.spec, r.start, key)
	right := newRegion(r.spec, key, r.end)
	left.server, right.server = r.server, rightServer
	left.stats, right.stats = r.stats, r.stats
	for _, f := range r.files {
		lf, rf := f.split(key)
		if lf != nil {
			left.files = append(left.files, lf)
		}
		if rf != nil {
			right.files = append(right.files, rf)
		}
	}
	r.daughters = []*Region{left, right}
	return left, right
}
