// Package hbase is a simulated HBase: a column-family-oriented, horizontally
// partitioned, sorted key-value store modeled after the system the paper
// builds on (§II-C). It reproduces the pieces of HBase that the paper's
// results depend on:
//
//   - tables of rows sorted by row key, split into regions hosted by region
//     servers, so data really is distributed and cross-node work really does
//     pay network latency;
//   - the data manipulation API (Get, Put, Scan, Delete) plus CheckAndPut,
//     the atomic compare-and-set the Synergy lock tables are built on
//     (§VIII-A);
//   - multi-version cells with timestamps, which the Tephra-like MVCC layer
//     (internal/mvcc) uses for snapshot reads;
//   - a bounded memstore in front of immutable store files, whose storage
//     format drives the disk-utilization comparison of Table III: the write
//     that takes a region's memstore to the table's flush size flushes it
//     into a packed store file and merges the run of newest files a
//     size-tiered policy selects (minor compaction: versions beyond
//     MaxVersions trimmed, tombstones kept); major compaction, on request,
//     rewrites a region as one file and drops tombstones too — unless the
//     region already is one whole file whose builder saw only uniform rows
//     (hfile.uniform: one put per qualifier, one stamp, no tombstone), as a
//     bulk load leaves it: nothing to merge, trim or drop.
//
// Rows exist in two forms. Where they mutate — the memstore, a
// transaction's pending overlay, merge scratch — a row is a rowData, a
// sorted []Cell. Immutable store files (hfile) hold the same cells packed:
// keys concatenated behind an offset index, row bodies varint-encoded in
// pointer-free blocks of at most 64 KiB, qualifiers dictionary-encoded per
// file, so a resident database costs the heap its key and value bytes plus
// a few bytes per cell, and the garbage collector nothing per cell. Reads
// never decode a file row into cells unless it has to be merged with
// another part of the same row; the modelled KeyValue footprint (KVSize,
// TableBytes) is independent of either form.
//
// All operations charge simulated latency to the caller's sim.Ctx via the
// shared cluster cost model — except flushes and compactions, which are
// region server housekeeping: they run inline on the writer that trips them,
// charge nothing, and are counted per table instead (HCluster.StoreStats).
package hbase

import (
	"slices"
	"strings"
	"sync"
)

// CellType distinguishes data cells from tombstones.
type CellType byte

const (
	TypePut CellType = iota
	// TypeDeleteRow is a tombstone covering every cell of the row at or
	// before its timestamp.
	TypeDeleteRow
	// TypeDeleteCol is a tombstone covering one qualifier at or before its
	// timestamp.
	TypeDeleteCol
)

// Cell is one versioned value within a row. The reproduction uses a single
// column family per table (the paper's baseline transformation assigns all
// attributes to one family, §II-D), so cells carry only the qualifier.
type Cell struct {
	Qualifier string
	Value     []byte
	TS        int64
	Type      CellType
}

// kvOverhead approximates the fixed per-cell bytes of the HBase KeyValue
// wire/storage format: key length (4) + value length (4) + row length (2) +
// family length (1) + family ("0", 1 byte) + timestamp (8) + type (1) and
// block-index amortization. This per-cell overhead is the reason HBase
// databases are several times larger than packed-tuple stores (Table III).
const kvOverhead = 21

// KVSize returns the storage footprint of one cell in a row with the given
// key, following the HBase KeyValue format.
func KVSize(rowKey string, c Cell) int64 {
	return int64(kvOverhead + len(rowKey) + len(c.Qualifier) + len(c.Value))
}

// Pair is one qualifier/value entry of a materialized row. Values are
// immutable by convention and shared with the store: a Value is a window
// into a store file block or the value slice of a memstore cell.
type Pair struct {
	Qualifier string
	Value     []byte
}

// Cells is the materialized latest-visible-version content of a row: a
// pair slice sorted ascending by qualifier. The slice form is the row hot
// path's representation of choice — a scan materializes one slice per row
// (a map costs two allocations and loses the order every merge, codec and
// print site then re-derives), Get is a binary search, and the merge sites
// (region k-way merge, read-your-writes overlay) consume the sortedness
// directly instead of rebuilding maps. Ranging over Cells IS the sorted
// qualifier iteration.
//
// Immutability is a hard rule, not a convention: a Cells produced by the
// read path may be a window into a per-chunk arena shared with every other
// row of its scan chunk, so appending to it, writing an element (or an
// element's field) through it, or re-slicing it beyond its length corrupts
// neighboring rows. cmd/cellsvet enforces the rule repo-wide in CI; the few
// legitimate producers (rowData.readInto and packedRow.readInto, the overlay
// merge, Clone) are annotated `//cellsvet:owner` at their declaration.
//
// Lifetime: rows returned by a RowStream (Scanner.Next and the overlay
// scanner) are valid only until the stream's next Next or Close call —
// their Cells may alias a pooled chunk arena that is recycled when the
// scanner advances to the next chunk. Consumers that retain a scanned row
// must Clone it. Point reads (Client.Get, GetInto and GetMany without a
// ReadBuf) and rows already deep-copied by Clone are caller-stable forever;
// rows read into a ReadBuf are the caller's until its Reset. The Pair.Value byte
// slices are shared with the store and never recycled or overwritten, so
// values decoded or retained from a row stay valid regardless. A value read
// from a store file is a capacity-clipped window into one of the file's
// data blocks: retaining it keeps that block (at most 64 KiB, or one
// oversized row) reachable after a compaction retires the file — never the
// whole file. A scanned row's Key is likewise a substring of its file's key
// string.
type Cells []Pair

// Clone returns a caller-stable deep copy of the pair slice (the values
// stay shared with the store; they are immutable and never recycled). Use
// it when retaining a scanned row beyond the stream's next Next/Close.
//
//cellsvet:owner
func (c Cells) Clone() Cells {
	if len(c) == 0 {
		return nil
	}
	out := make(Cells, len(c))
	copy(out, c)
	return out
}

// Get returns the value stored under a qualifier, or nil. Binary search
// over the sorted pairs — the slice analogue of the old map index.
func (c Cells) Get(qualifier string) []byte {
	lo, hi := 0, len(c)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c[mid].Qualifier < qualifier {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c) && c[lo].Qualifier == qualifier {
		return c[lo].Value
	}
	return nil
}

// sortedOK reports whether the pairs are strictly ascending by qualifier —
// the invariant every producer must uphold (fuzzed in cells_fuzz_test.go).
func (c Cells) sortedOK() bool {
	for i := 1; i < len(c); i++ {
		if c[i-1].Qualifier >= c[i].Qualifier {
			return false
		}
	}
	return true
}

// RowResult is the materialized latest-visible-version view of one row.
// Rows handed out by a RowStream follow the Cells lifetime rule: valid
// until the stream's next Next/Close, Clone to retain.
type RowResult struct {
	Key   string
	Cells Cells // sorted ascending by qualifier
}

// Clone returns a caller-stable deep copy of the row.
func (r RowResult) Clone() RowResult {
	return RowResult{Key: r.Key, Cells: r.Cells.Clone()}
}

// Empty reports whether the row has no visible cells.
func (r RowResult) Empty() bool { return len(r.Cells) == 0 }

// Get returns the value of a qualifier, or nil.
func (r RowResult) Get(qualifier string) []byte { return r.Cells.Get(qualifier) }

// SortedQualifiers returns the row's qualifiers in ascending order. The
// pair slice is already sorted, so this is a single pass with exactly one
// allocation for the returned slice — callers that only iterate should
// range over Cells directly, the zero-alloc sorted view. The result is
// owned by the caller; mutating it cannot corrupt the row.
func (r RowResult) SortedQualifiers() []string {
	if len(r.Cells) == 0 {
		return nil
	}
	quals := make([]string, len(r.Cells))
	for i := range r.Cells {
		quals[i] = r.Cells[i].Qualifier
	}
	return quals
}

// Bytes returns the approximate payload size of the row as shipped to a
// client.
func (r RowResult) Bytes() int {
	n := len(r.Key)
	for i := range r.Cells {
		n += kvOverhead + len(r.Cells[i].Qualifier) + len(r.Cells[i].Value)
	}
	return n
}

// String renders the row compactly for debugging and tests: one pass over
// the already-sorted pairs, no qualifier re-sort and no scratch slice.
func (r RowResult) String() string {
	var b strings.Builder
	b.Grow(len(r.Key) + 2 + 16*len(r.Cells))
	b.WriteString(r.Key)
	b.WriteByte('{')
	for i := range r.Cells {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(r.Cells[i].Qualifier)
		b.WriteByte('=')
		b.Write(r.Cells[i].Value)
	}
	b.WriteByte('}')
	return b.String()
}

// ColumnSet is the set of qualifiers a scan reads (ScanSpec.Columns): the
// read kernels emit a row's other cells nowhere — not into the chunk arena,
// not into RowResult.Bytes, not onto the wire. A row is still a row only while
// one of its visible cells is in the set, so whoever builds one includes a
// column every stored row carries.
//
// Ownership: a set is immutable once made, so its maker may keep it for as
// long as it likes — a prepared statement keeps one per column list for its
// whole life — and hand it to any number of scans on any goroutines. It holds
// nothing of the store. Each store file keeps the masks of the sets that read
// it (columnMasks): which of its dictionary ids a set wants, so its cells are
// kept or skipped by id, with no qualifier compared and nothing allocated per
// row. A mask lives on its file and dies with it, so a set pins no file a
// flush or a compaction has replaced.
type ColumnSet struct {
	quals []string // ascending, distinct
}

// NewColumnSet returns the set of the given qualifiers; it keeps the slice.
func NewColumnSet(quals ...string) *ColumnSet {
	slices.Sort(quals)
	return &ColumnSet{quals: slices.Compact(quals)}
}

// Holds reports whether the set is exactly quals, which must be ascending
// and distinct.
func (s *ColumnSet) Holds(quals []string) bool { return slices.Equal(s.quals, quals) }

// in returns the set as a mask over f's dictionary ids, nil — every cell —
// for no set.
func (s *ColumnSet) in(f *hfile) []bool {
	if s == nil {
		return nil
	}
	return f.masks.of(s.quals, f.dict)
}

// columnMasks is one store file's cache of column-set masks, keyed by the
// set's qualifier list: a statement's scans, every execution of it and every
// probe of its joins, resolve a set against the file's dictionary once. It is
// shared by the files a split cuts from one (their dictionary is the same)
// and holds at most maxColumnMasks lists; a read that misses builds the mask
// and drops the oldest.
type columnMasks struct {
	mu    sync.Mutex
	masks []columnMask  // oldest first
	few   [2]columnMask // backs masks while a file has met two lists at most
}

type columnMask struct {
	quals []string
	want  []bool // by dictionary id
}

// maxColumnMasks bounds a file's mask cache: more column lists than this
// read one file only when that many statements read its table, and then the
// oldest is built again on its next read.
const maxColumnMasks = 16

// of returns the mask of quals over dict, the file's dictionary.
func (c *columnMasks) of(quals, dict []string) []bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.masks {
		if slices.Equal(m.quals, quals) {
			return m.want
		}
	}
	want := make([]bool, len(dict))
	for id, q := range dict {
		_, want[id] = slices.BinarySearch(quals, q)
	}
	if c.masks == nil {
		c.masks = c.few[:0]
	}
	if len(c.masks) == maxColumnMasks {
		c.masks = append(c.masks[:0], c.masks[1:]...)
	}
	c.masks = append(c.masks, columnMask{quals, want})
	return want
}

// ReadOpts control version visibility for Get and Scan.
type ReadOpts struct {
	// ReadTS, when non-zero, hides cells with a timestamp greater than it
	// (Tephra snapshot reads).
	ReadTS int64
	// Excluded, when non-nil, hides cells whose timestamp it reports true
	// for (Tephra's invalid/in-progress transaction list).
	Excluded func(ts int64) bool
}

func (o ReadOpts) visible(ts int64) bool {
	if o.ReadTS != 0 && ts > o.ReadTS {
		return false
	}
	if o.Excluded != nil && o.Excluded(ts) {
		return false
	}
	return true
}

// TableSpec describes a table at creation time.
type TableSpec struct {
	Name string
	// MaxVersions bounds retained versions per qualifier (HBase column
	// family setting). Tables written through the MVCC layer need more
	// than one.
	MaxVersions int
	// SplitThreshold is the row count at which a region splits. Zero
	// selects the default.
	SplitThreshold int
	// SplitKeys optionally pre-splits the table into len(SplitKeys)+1
	// regions at creation, as bulk-loaded deployments do.
	SplitKeys []string
	// FlushSize is the memstore size, in KeyValue-format bytes per region,
	// at which a write flushes the memstore into a store file. Zero selects
	// the default.
	FlushSize int64
}

func (s *TableSpec) normalize() {
	if s.MaxVersions <= 0 {
		s.MaxVersions = 1
	}
	if s.SplitThreshold <= 0 {
		s.SplitThreshold = defaultSplitThreshold
	}
}

// flushSize resolves FlushSize. It is not folded into normalize because
// regions are also built over bare specs that never pass through it.
func (s *TableSpec) flushSize() int64 {
	if s.FlushSize > 0 {
		return s.FlushSize
	}
	return defaultFlushSize
}

// defaultSplitThreshold keeps regions around the size a 10 GB HBase region
// would hold for our row sizes, scaled down to simulation scale.
const defaultSplitThreshold = 200_000

// defaultFlushSize is HBase's 128 MiB memstore flush size at the same
// simulation scale: a region's resident write buffer stays a small fraction
// of the store files behind it.
const defaultFlushSize = 256 << 10
