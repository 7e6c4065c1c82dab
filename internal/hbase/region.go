package hbase

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// memStore is the in-memory write buffer of a region.
type memStore struct {
	rows map[string]*rowData
	keys []string
	// bytes is the KeyValue-format footprint (Σ KVSize) of the resident
	// cells, kept current by apply: it is what the flush trigger compares on
	// every write, so it must not cost a walk of the map.
	bytes int64

	// sortMu guards the lazy key sort so that concurrent scans — which
	// hold only the region read lock — do not race re-sorting keys.
	sortMu sync.Mutex
	sorted bool
}

func newMemStore() *memStore {
	return &memStore{rows: make(map[string]*rowData)}
}

func (m *memStore) upsert(key string) *rowData {
	rd := m.rows[key]
	if rd == nil {
		rd = &rowData{}
		m.rows[key] = rd
		m.keys = append(m.keys, key)
		m.sorted = false
	}
	return rd
}

// apply applies one cell to rd, the row upsert returned for key.
func (m *memStore) apply(key string, rd *rowData, c Cell, maxVersions int) {
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

	// srvMu guards server. The balancer reassigns regions concurrently with
	// requests reading the assignment, so the field has its own lock instead
	// of riding r.mu (scans hold r.mu for whole chunks).
	srvMu  sync.Mutex
	server string // hosting region server node

	// loadReads/loadWrites are the decayed op counters behind load-triggered
	// splits and balancer placement. Recording is a lone atomic add — it
	// charges no simulated time, so enabling load accounting cannot perturb
	// any latency figure.
	loadReads  atomic.Int64
	loadWrites atomic.Int64

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

// Server reports the region server currently hosting the region.
func (r *Region) Server() string {
	r.srvMu.Lock()
	defer r.srvMu.Unlock()
	return r.server
}

func (r *Region) setServer(s string) {
	r.srvMu.Lock()
	r.server = s
	r.srvMu.Unlock()
}

// recordRead/recordWrite tally server-side ops against the region's load
// counters (reads are weighted by rows examined; writes by mutations).
func (r *Region) recordRead(n int)  { r.loadReads.Add(int64(n)) }
func (r *Region) recordWrite(n int) { r.loadWrites.Add(int64(n)) }

// loadScore is the region's current hotness: examined-row reads plus
// mutations, both since the last decay.
func (r *Region) loadScore() int64 {
	return r.loadReads.Load() + r.loadWrites.Load()
}

// decayLoad halves the load counters — the balancer's exponential decay, so
// a region that cooled off stops looking hot after a few ticks.
func (r *Region) decayLoad() {
	r.loadReads.Store(r.loadReads.Load() / 2)
	r.loadWrites.Store(r.loadWrites.Load() / 2)
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
	r.recordRead(1)
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

// put applies cells to a row.
func (r *Region) put(key string, cells []Cell) {
	r.mu.Lock()
	if d := r.daughterFor(key); d != nil {
		r.mu.Unlock()
		d.put(key, cells)
		return
	}
	defer r.mu.Unlock()
	r.recordWrite(1)
	rd := r.mem.upsert(key)
	if rd.cells == nil {
		rd.cells = make([]Cell, 0, len(cells)) // a row written whole, as BulkLoad sizes it
	}
	for _, c := range cells {
		r.mem.apply(key, rd, c, r.spec.MaxVersions)
	}
	r.afterWriteLocked()
}

// deleteRow writes a row tombstone, or column tombstones when qualifiers are
// given.
func (r *Region) deleteRow(key string, ts int64, qualifiers []string) {
	r.mu.Lock()
	if d := r.daughterFor(key); d != nil {
		r.mu.Unlock()
		d.deleteRow(key, ts, qualifiers)
		return
	}
	defer r.mu.Unlock()
	r.recordWrite(1)
	rd := r.mem.upsert(key)
	if len(qualifiers) == 0 {
		r.mem.apply(key, rd, Cell{Qualifier: "", TS: ts, Type: TypeDeleteRow}, r.spec.MaxVersions)
	}
	for _, q := range qualifiers {
		r.mem.apply(key, rd, Cell{Qualifier: q, TS: ts, Type: TypeDeleteCol}, r.spec.MaxVersions)
	}
	r.afterWriteLocked()
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
	r.recordWrite(1)
	current, newest := r.currentLocked(key, qualifier)
	if !bytes.Equal(current, expected) {
		return false, 0
	}
	stampLocked(&c, newest, clock)
	r.mem.apply(key, r.mem.upsert(key), c, r.spec.MaxVersions)
	r.afterWriteLocked()
	return true, c.TS
}

// increment atomically adds delta to a counter column and returns the new
// value, stamped from clock inside the critical section as a conditional
// put is.
func (r *Region) increment(key, qualifier string, delta int64, clock func() int64) int64 {
	r.mu.Lock()
	if d := r.daughterFor(key); d != nil {
		r.mu.Unlock()
		return d.increment(key, qualifier, delta, clock)
	}
	defer r.mu.Unlock()
	r.recordWrite(1)
	var cur int64
	v, newest := r.currentLocked(key, qualifier)
	if len(v) == 8 {
		cur = int64(binary.BigEndian.Uint64(v))
	}
	cur += delta
	c := Cell{Qualifier: qualifier, Value: binary.BigEndian.AppendUint64(nil, uint64(cur))}
	stampLocked(&c, newest, clock)
	r.mem.apply(key, r.mem.upsert(key), c, r.spec.MaxVersions)
	r.afterWriteLocked()
	return cur
}

// scanChunk fills buf with up to limit visible rows with key >= from (and
// < r.end) in ascending key order, returning the number of rows examined
// server-side and the key to resume from ("" if the region is exhausted). A
// reversed chunk walks the other way: rows with key < from ("" = from the
// last key) and >= r.start, in descending order, and its resume key is
// the last returned key — an exclusive upper bound, as from is. filter, when
// non-nil, drops rows server-side (they still count as examined); cols, when
// non-nil, is the cells a row is read down to before the filter sees it. buf
// must arrive empty (reset); the produced rows live in buf.rows and their
// Cells are windows into buf.arena, so they are valid only until the buffer's
// next reset — the chunkBuf ownership protocol governs when that may happen.
func (r *Region) scanChunk(buf *chunkBuf, from string, limit int, reversed bool, opts ReadOpts, filter func(RowResult) bool, cols *ColumnSet) (examined int, next string) {
	defer func() { r.recordRead(examined) }()
	r.mu.RLock()
	defer r.mu.RUnlock()

	m := newRowMerger(r.mem, r.files, from, reversed, cols)
	defer m.release()
	need := m.remaining()
	if limit > 0 && limit < need {
		need = limit
	}
	if cap(buf.rows) < need {
		buf.rows = make([]RowResult, 0, need)
	}
	for limit <= 0 || len(buf.rows) < limit {
		key, parts, ok := m.next()
		if !ok {
			return examined, ""
		}
		if reversed {
			if key < r.start {
				return examined, ""
			}
		} else if r.end != "" && key >= r.end {
			return examined, ""
		}
		examined++
		var cells Cells
		buf.arena, cells = m.read(parts, buf.arena, opts)
		buf.wrote()
		if len(cells) == 0 {
			continue // deleted or invisible row
		}
		res := RowResult{Key: key, Cells: cells}
		if filter != nil && !filter(res) {
			// Give the dropped row's pairs back to the arena; nothing
			// references them.
			buf.arena = buf.arena[:len(buf.arena)-len(cells)]
			continue
		}
		buf.rows = append(buf.rows, res)
	}
	// Limit reached: resume just past the last returned key.
	last := buf.rows[len(buf.rows)-1].Key
	if reversed {
		return examined, last
	}
	return examined, last + "\x00"
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
	m := newRowMerger(nil, run, "", false, nil)
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
	var biggest *hfile
	for _, f := range r.files {
		if biggest == nil || f.len() > biggest.len() {
			biggest = f
		}
	}
	if biggest == nil || biggest.len() < 2 {
		// No (usable) store file yet. Load-triggered splits arrive before the
		// first flush on write-hot regions, so fall back to the memstore's
		// sorted keys rather than refusing to split.
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
// themselves are shared, not copied.
func (r *Region) split(key string) (*Region, *Region) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	left := newRegion(r.spec, r.start, key)
	right := newRegion(r.spec, key, r.end)
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
	// Each daughter inherits half the parent's load history, so a split hot
	// region does not instantly re-trigger a load split and the balancer's
	// next tick still sees the heat where it actually lives.
	left.loadReads.Store(r.loadReads.Load() / 2)
	left.loadWrites.Store(r.loadWrites.Load() / 2)
	right.loadReads.Store(r.loadReads.Load() / 2)
	right.loadWrites.Store(r.loadWrites.Load() / 2)
	r.daughters = []*Region{left, right}
	return left, right
}
