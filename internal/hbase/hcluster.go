package hbase

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"synergy/internal/sdfs"
	"synergy/internal/sim"
)

// Errors reported by the store.
var (
	ErrTableNotFound = errors.New("hbase: table not found")
	ErrTableExists   = errors.New("hbase: table exists")
	ErrUnsorted      = errors.New("hbase: bulk load rows not sorted")
)

// table is one table's region map, kept sorted by region start key.
type table struct {
	mu      sync.RWMutex
	spec    TableSpec
	regions []*Region

	// gen is the table's region-layout generation, bumped on every split.
	// Clients cache region locations per generation: a stale cache costs one
	// MetaLookup on the next touch, exactly like real HBase clients
	// refreshing hbase:meta after an NSRE.
	gen atomic.Int64

	// stats is shared by every region the table has or had.
	stats storeStats
}

// regionFor locates the region containing key. Caller must not hold t.mu.
func (t *table) regionFor(key string) *Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := sort.Search(len(t.regions), func(i int) bool {
		r := t.regions[i]
		return r.end == "" || key < r.end
	})
	if i >= len(t.regions) {
		i = len(t.regions) - 1
	}
	return t.regions[i]
}

// regionsInRange returns the regions overlapping [start, stop), in key order;
// stop == "" means unbounded. It is a window of the table's region list, which
// a split replaces instead of editing (see splitIfNeeded), so the window stays
// as it was returned; callers only read it.
func (t *table) regionsInRange(start, stop string) []*Region {
	t.mu.RLock()
	regions := t.regions
	t.mu.RUnlock()
	lo := sort.Search(len(regions), func(i int) bool {
		r := regions[i]
		return r.end == "" || r.end > start
	})
	hi := sort.Search(len(regions), func(i int) bool {
		r := regions[i]
		return stop != "" && r.start != "" && r.start >= stop
	})
	return regions[lo:max(lo, hi)]
}

// HCluster is the HBase deployment: an HMaster (region assignment), region
// servers beside the filesystem's datanodes, and WALs in that filesystem.
type HCluster struct {
	fs    *sdfs.FS
	costs *sim.Costs

	mu      sync.RWMutex
	tables  map[string]*table
	servers []string
	nextSrv int

	ts       atomic.Int64 // logical timestamp oracle
	walMu    sync.Mutex
	walSeqs  map[string]int64
	walSyncs atomic.Int64
}

// NewHCluster deploys HBase over fs, one region server beside each datanode,
// assigned regions round-robin in datanode order. nil costs are the default
// calibration; a nil fs is a private one over the testbed's slaves.
func NewHCluster(costs *sim.Costs, fs *sdfs.FS) *HCluster {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	if fs == nil {
		fs = sdfs.NewFS(costs, sdfs.Slaves(), 3)
	}
	return &HCluster{
		fs:      fs,
		costs:   costs,
		tables:  make(map[string]*table),
		servers: fs.Datanodes(),
		walSeqs: make(map[string]int64),
	}
}

// Costs exposes the shared latency calibration.
func (hc *HCluster) Costs() *sim.Costs { return hc.costs }

// NextTS returns a monotonically increasing logical timestamp, standing in
// for the millisecond clock HBase stamps cells with.
func (hc *HCluster) NextTS() int64 { return hc.ts.Add(1) }

// CurrentTS reports the highest timestamp issued so far without advancing
// the clock. Every cell in the store carries a stamp ≤ CurrentTS, which
// makes it the snapshot horizon watermark readers wait against.
func (hc *HCluster) CurrentTS() int64 { return hc.ts.Load() }

func (hc *HCluster) assignServer() string {
	s := hc.servers[hc.nextSrv%len(hc.servers)]
	hc.nextSrv++
	return s
}

// CreateTable creates a table, optionally pre-split.
func (hc *HCluster) CreateTable(spec TableSpec) error {
	spec.normalize()
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if _, dup := hc.tables[spec.Name]; dup {
		return fmt.Errorf("%w: %s", ErrTableExists, spec.Name)
	}
	t := &table{spec: spec}
	bounds := append([]string{""}, spec.SplitKeys...)
	sort.Strings(bounds)
	for i, start := range bounds {
		end := ""
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		r := newRegion(&t.spec, start, end)
		r.stats = &t.stats
		r.server = hc.assignServer()
		t.regions = append(t.regions, r)
	}
	hc.tables[spec.Name] = t
	return nil
}

// DropTable removes a table and its data.
func (hc *HCluster) DropTable(name string) error {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if _, ok := hc.tables[name]; !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	delete(hc.tables, name)
	return nil
}

// HasTable reports table existence.
func (hc *HCluster) HasTable(name string) bool {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	_, ok := hc.tables[name]
	return ok
}

// Tables lists table names, sorted.
func (hc *HCluster) Tables() []string {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	out := make([]string, 0, len(hc.tables))
	for n := range hc.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (hc *HCluster) lookup(name string) (*table, error) {
	hc.mu.RLock()
	defer hc.mu.RUnlock()
	t := hc.tables[name]
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	return t, nil
}

// walAppendBatch charges one WAL sync covering edits edits totalling
// editBytes. Batched mutations pay the HDFS pipeline latency once per batch
// — the edits travel in one group-committed sync, as real HBase region
// servers do — while every edit still lands in the log.
func (hc *HCluster) walAppendBatch(ctx *sim.Ctx, server string, editBytes, edits int) {
	if edits <= 0 {
		return
	}
	ctx.Charge(hc.costs.WALAppend + hc.costs.PerByte.Mul(editBytes*hc.fs.Replication()))
	hc.walSyncs.Add(1)
	hc.walMu.Lock()
	hc.walSeqs[server] += int64(edits)
	hc.walMu.Unlock()
}

// WALSyncs reports the total group-committed WAL syncs the cluster has
// performed. Edits travelling in one batch share a sync; the transaction-
// scoped write pipeline is measured by how few of these a transaction pays.
func (hc *HCluster) WALSyncs() int64 { return hc.walSyncs.Load() }

// WALEdits reports the number of WAL edits a server has logged (used by
// tests to verify the durability path is exercised).
func (hc *HCluster) WALEdits(server string) int64 {
	hc.walMu.Lock()
	defer hc.walMu.Unlock()
	return hc.walSeqs[server]
}

// FlushTable flushes every region's memstore.
func (hc *HCluster) FlushTable(name string) error {
	t, err := hc.lookup(name)
	if err != nil {
		return err
	}
	for _, r := range t.regionsInRange("", "") {
		r.flush()
	}
	hc.splitIfNeeded(t)
	return nil
}

// MajorCompact rewrites every region of the table into a single store file,
// dropping tombstones — the experiments do this after database population
// (§IX-B2, §IX-D1).
func (hc *HCluster) MajorCompact(name string) error {
	t, err := hc.lookup(name)
	if err != nil {
		return err
	}
	hc.splitIfNeeded(t)
	for _, r := range t.regionsInRange("", "") {
		r.majorCompact()
	}
	return nil
}

// splitIfNeeded splits any region whose row count exceeds the table's size
// threshold. The left daughter stays on the parent's server; the right one
// takes the next server in round-robin order.
func (hc *HCluster) splitIfNeeded(t *table) {
	for {
		split := false
		t.mu.Lock()
		for i, r := range t.regions {
			if r.rowCount() <= t.spec.SplitThreshold {
				continue
			}
			mid := r.midKey()
			if mid == "" || mid == r.start {
				continue
			}
			hc.mu.Lock()
			srv := hc.assignServer()
			hc.mu.Unlock()
			left, right := r.split(mid, srv)
			// A fresh list, never an edit of the old one: regionsInRange
			// hands out windows of it.
			t.regions = slices.Concat(t.regions[:i], []*Region{left, right}, t.regions[i+1:])
			t.gen.Add(1)
			split = true
			break
		}
		t.mu.Unlock()
		if !split {
			return
		}
	}
}

// RegionCount reports how many regions a table currently has.
func (hc *HCluster) RegionCount(name string) int { return len(hc.Regions(name)) }

// RegionInfo places one region: the first key of its range and its server.
type RegionInfo struct{ Start, Server string }

// Regions lists a table's regions in key order (none for an unknown table).
func (hc *HCluster) Regions(name string) (out []RegionInfo) {
	if t, err := hc.lookup(name); err == nil {
		for _, r := range t.regionsInRange("", "") {
			out = append(out, RegionInfo{r.start, r.server})
		}
	}
	return out
}

// RowEstimate reports the approximate number of rows in a table (used by
// the SQL planner for join ordering).
func (hc *HCluster) RowEstimate(name string) int {
	t, err := hc.lookup(name)
	if err != nil {
		return 0
	}
	n := 0
	for _, r := range t.regionsInRange("", "") {
		n += r.rowCount()
	}
	return n
}

// TableBytes reports the KeyValue-format storage footprint of a table
// (single replica).
func (hc *HCluster) TableBytes(name string) int64 {
	t, err := hc.lookup(name)
	if err != nil {
		return 0
	}
	var total int64
	for _, r := range t.regionsInRange("", "") {
		total += r.sizeBytes()
	}
	return total
}

// StoreStats is what the store did behind a table's writes and what it holds
// because of them. Flushes and compactions run inline on the writer that
// trips them but charge no sim.Ctx, so this is the only place they show.
type StoreStats struct {
	Flushes        int64 // memstore flushes, size-triggered and explicit
	Compactions    int64 // store file merges, minor and major
	CompactedBytes int64 // KeyValue-format bytes those merges read
	MemstoreBytes  int64 // KeyValue-format bytes resident in memstores now
	Files          int   // store files now, over all regions
}

// StoreStats reports a table's flush and compaction counts since creation
// and its current memstore and store file population.
func (hc *HCluster) StoreStats(name string) StoreStats {
	t, err := hc.lookup(name)
	if err != nil {
		return StoreStats{}
	}
	st := StoreStats{
		Flushes:        t.stats.flushes.Load(),
		Compactions:    t.stats.compactions.Load(),
		CompactedBytes: t.stats.compactedBytes.Load(),
	}
	for _, r := range t.regionsInRange("", "") {
		r.mu.RLock()
		st.MemstoreBytes += r.mem.bytes
		st.Files += len(r.files)
		r.mu.RUnlock()
	}
	return st
}

// TotalBytes sums TableBytes over all tables.
func (hc *HCluster) TotalBytes() int64 {
	var total int64
	for _, name := range hc.Tables() {
		total += hc.TableBytes(name)
	}
	return total
}

// BulkRow is one pre-sorted row for BulkLoad.
type BulkRow struct {
	Key   string
	Cells []Cell
}

// BulkLoad writes pre-sorted rows directly as store files, bypassing the WAL
// and memstore — the standard HBase bulk-load path used to populate the
// benchmark database. It is BuildBulk at the next stamp, then Attach.
func (hc *HCluster) BulkLoad(name string, rows []BulkRow) error {
	f, err := hc.BuildBulk(name, hc.NextTS(), rows)
	if err != nil {
		return err
	}
	return hc.Attach(f)
}

// ReserveTS takes n stamps off the clock at once and returns the first; the
// other n-1 follow it. A loader that builds files at once reserves their
// stamps up front, so each file's stamp does not depend on which build ends
// first.
func (hc *HCluster) ReserveTS(n int) int64 { return hc.ts.Add(int64(n)) - int64(n) + 1 }

// BulkFiles are rows encoded as a table's store files, one per region the
// rows fall in, that are not part of the table yet: Attach installs them.
type BulkFiles struct {
	t       *table
	gen     int64 // the region layout the files are cut at
	regions []*Region
	files   []*hfile
}

// BuildBulk encodes rows as the store files BulkLoad installs, cut at the
// table's region boundaries. Rows must be sorted by key; cells with zero
// timestamps are stamped ts. A row whose cells arrive in qualifier order, one
// per qualifier, is appended as it stands; only a cell at or before a
// qualifier already seen is searched into place (and versions trimmed). The
// cell slices are read, never written or kept, so rows may share them.
// BuildBulk changes nothing in the cluster, so builds run at once on as many
// goroutines as their caller starts.
func (hc *HCluster) BuildBulk(name string, ts int64, rows []BulkRow) (*BulkFiles, error) {
	t, err := hc.lookup(name)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Key > rows[i].Key {
			return nil, fmt.Errorf("%w: %q > %q", ErrUnsorted, rows[i-1].Key, rows[i].Key)
		}
	}
	t.mu.RLock()
	out := &BulkFiles{t: t, gen: t.gen.Load()}
	regions := t.regions
	t.mu.RUnlock()

	idx := 0
	for _, r := range regions {
		if idx >= len(rows) {
			break
		}
		end := len(rows)
		if r.end != "" {
			end = idx + sort.Search(len(rows)-idx, func(j int) bool { return rows[idx+j].Key >= r.end })
		}
		if end == idx {
			continue
		}
		chunk := rows[idx:end]
		idx = end
		keyBytes := 0
		for i := range chunk {
			keyBytes += len(chunk[i].Key)
		}
		b := newHFileBuilder(len(chunk), keyBytes)
		// row assembles the cells of the key being loaded; a repeated key
		// builds in dup and merges behind what row already holds.
		var row, dup rowData
		for i, br := range chunk {
			dst := &row
			repeat := i > 0 && chunk[i-1].Key == br.Key
			if repeat {
				dst = &dup
			} else if i > 0 {
				b.add(chunk[i-1].Key, row.cells)
			}
			dst.cells = dst.cells[:0]
			for _, c := range br.Cells {
				if c.TS == 0 {
					c.TS = ts
				}
				if n := len(dst.cells); n == 0 || dst.cells[n-1].Qualifier < c.Qualifier {
					dst.cells = append(dst.cells, c) // where apply would put it
				} else {
					dst.apply(c, t.spec.MaxVersions)
				}
			}
			if repeat {
				row.cells = mergeCellsInto(nil, [][]Cell{row.cells, dup.cells})
			}
		}
		b.add(chunk[len(chunk)-1].Key, row.cells)
		out.regions = append(out.regions, r)
		out.files = append(out.files, b.finish())
	}
	return out, nil
}

// Attach installs files BuildBulk built, each as the newest file of its
// region, then splits what outgrew the table's threshold. Attach order is
// what places regions: a split's right daughter takes the next server in
// the cluster's round robin. A table that split since the build gets
// nothing, and an error.
func (hc *HCluster) Attach(f *BulkFiles) error {
	t := f.t
	t.mu.RLock() // no split while the files go in
	if t.gen.Load() != f.gen {
		t.mu.RUnlock()
		return fmt.Errorf("hbase: %s split while its bulk files were built", t.spec.Name)
	}
	for i, r := range f.regions {
		r.mu.Lock()
		r.files = append([]*hfile{f.files[i]}, r.files...)
		r.mu.Unlock()
	}
	t.mu.RUnlock()
	hc.splitIfNeeded(t)
	return nil
}
