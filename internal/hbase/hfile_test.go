package hbase

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"synergy/internal/sim"
)

// packRows encodes rows (ascending keys) into one store file the way every
// producer does.
func packRows(keys []string, rows [][]Cell) *hfile {
	b := newHFileBuilder(len(keys), 0)
	for i, k := range keys {
		b.add(k, rows[i])
	}
	return b.finish()
}

// fillerCells is a row of n distinct qualifiers: loading it first pushes the
// dictionary ids of whatever follows past the one-byte varint range.
func fillerCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = put(fmt.Sprintf("fill%03d", i), "x", 1)
	}
	return cells
}

// isUniform is the fast-path predicate, restated independently of the
// encoder: one put per non-empty qualifier, all at one non-negative stamp.
func isUniform(cells []Cell) bool {
	if len(cells) == 0 || cells[0].TS < 0 {
		return false
	}
	for i, c := range cells {
		if c.Type != TypePut || c.TS != cells[0].TS || c.Qualifier == "" || (i > 0 && c.Qualifier == cells[i-1].Qualifier) {
			return false
		}
	}
	return true
}

var fuzzTimestamps = []int64{math.MinInt64, -7, -1, 0, 1, 2, 3, 9, 1 << 40, overlayTSBase + 1, math.MaxInt64}

// FuzzPackedRow holds the packed store file format to the []Cell rowData it
// replaced. Fuzz bytes become a cell tape for one row — puts with nil, empty
// and non-empty values, column tombstones, row tombstones at the empty
// qualifier, several versions per qualifier, timestamps from the extremes of
// int64, spread over two parts so merges leave same-coordinate duplicates —
// or, when the first byte is odd, a uniform row (one put per qualifier at
// one timestamp). The row is encoded behind a 130-qualifier filler row, so
// its dictionary ids need two bytes, and checked three ways:
//
//   - decode(encode(cells)) == cells, nil-versus-empty values included, and
//     the file's recorded size is the KVSize sum;
//   - the packed read kernel equals rowData.read on the same cells under
//     plain, snapshot and excluded-version options, into a nil arena and
//     behind an occupied one;
//   - a read under a column set — qualifiers the row has, lacks and the file
//     has never seen — is the read without it cut to the set (restrictTo),
//     whichever way the row is stored: packed in one file by dictionary id,
//     in a memstore by qualifier, and spread over two files and a memstore
//     through Region.scanChunk's merge;
//   - compaction parity: compacting the decoded row equals compacting the
//     reference, and the re-encoded compacted row reads the same;
//   - minor compaction parity: the two parts, flushed as two store files and
//     merged by Region.mergeLocked, leave the row a memstore would hold had
//     every cell been applied to it oldest first — duplicates resolved toward
//     the newer file, surplus versions trimmed as apply trims them, every
//     tombstone still there — and, unless a qualifier held more than
//     MaxVersions, reading as the unmerged stack does under every option.
func FuzzPackedRow(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x22, 0x43, 0x10, 0x05, 0x77, 0x31, 0x02})
	f.Add([]byte{0x01, 0x05, 0x01, 0x00, 0x03, 0x06, 0x02, 0x00, 0x04})
	f.Add([]byte{0x02, 0xff, 0x00, 0x80, 0x7f, 0x33, 0x9a, 0x02, 0x41, 0x01, 0x01, 0x01, 0x01})
	f.Add(bytes.Repeat([]byte{0x42, 0x13, 0x07, 0x21}, 40))
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		uniform := tape[0]&1 == 1
		maxVersions := int(tape[0]>>1)%4 + 1
		parts := [2]*rowData{{}, {}}
		for off := 1; off+3 < len(tape); off += 4 {
			c := Cell{
				Qualifier: fmt.Sprintf("q%d", tape[off]%12),
				TS:        fuzzTimestamps[int(tape[off+1])%len(fuzzTimestamps)],
				Type:      CellType(tape[off+2] % 3),
			}
			part := int(tape[off+3]) % len(parts)
			if uniform {
				c.TS, c.Type, part = fuzzTimestamps[3+int(tape[1])%8], TypePut, 0
			}
			switch c.Type {
			case TypePut:
				switch tape[off+3] % 5 {
				case 0: // nil value
				case 1:
					c.Value = []byte{}
				default:
					c.Value = bytes.Repeat([]byte{tape[off+3]}, int(tape[off+3])%300)
				}
			case TypeDeleteRow:
				if tape[off+3]%4 != 0 {
					c.Qualifier = "" // where row tombstones normally live
				}
			}
			parts[part].apply(c, maxVersions)
		}
		ref := merged(parts[0], parts[1])
		if !sortedByCellLess(ref.cells) {
			t.Fatalf("reference cells unsorted: %+v", ref.cells)
		}

		keys := []string{"a", "k", "z"}
		rows := [][]Cell{fillerCells(130), ref.cells, {put("tail", "t", 5)}}
		file := packRows(keys, rows)
		var wantSize int64
		for i, cells := range rows {
			for _, c := range cells {
				wantSize += KVSize(keys[i], c)
			}
		}
		if file.size != wantSize {
			t.Fatalf("recorded size %d, KVSize sum %d", file.size, wantSize)
		}
		row, ok := file.find("k")
		if !ok {
			t.Fatal("row k not found")
		}
		if _, ok := file.find("j"); ok {
			t.Fatal("found a key that was never stored")
		}
		if got := row.body[0]&rowUniform != 0; got != isUniform(ref.cells) {
			t.Fatalf("uniform flag %v, want %v for %+v", got, !got, ref.cells)
		}
		if uniform && len(ref.cells) > 0 && !isUniform(ref.cells) {
			t.Fatalf("uniform tape built a non-uniform row: %+v", ref.cells)
		}

		decoded := row.appendCells(nil)
		if len(decoded) != len(ref.cells) || (len(decoded) > 0 && !reflect.DeepEqual(decoded, ref.cells)) {
			t.Fatalf("decode(encode(cells)) diverges:\n got %+v\nwant %+v", decoded, ref.cells)
		}

		occupied := Cells{{Qualifier: "kept", Value: []byte("kept")}}
		readOpts := []ReadOpts{
			{},
			{ReadTS: 3},
			{ReadTS: 1 << 41},
			{Excluded: func(ts int64) bool { return ts%3 == 0 }},
		}
		// The same row as a region holds it mid-life: the older part in a store
		// file, the newer split between a newer file and the memstore.
		spread := newRegion(&TableSpec{Name: "t", MaxVersions: 1 << 20}, "", "")
		if !parts[1].empty() {
			spread.files = append(spread.files, packRows([]string{"k"}, [][]Cell{parts[1].cells}))
		}
		if n := len(parts[0].cells); n > 0 {
			spread.files = append([]*hfile{packRows([]string{"k"}, [][]Cell{parts[0].cells[:n/2]})}, spread.files...)
			spread.mem.upsert("k").cells = parts[0].cells[n/2:]
		}
		for oi, opts := range readOpts {
			want := ref.read(opts)
			_, got := row.readInto(nil, opts, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %d: packed read %v, reference %v (cells %+v)", oi, got, want, ref.cells)
			}
			requireCellsMatchRef(t, fmt.Sprintf("opts %d", oi), got, readRefMap(ref, opts))
			arena, window := row.readInto(occupied, opts, nil)
			if !reflect.DeepEqual(window, want) || arena[0].Qualifier != "kept" || len(arena) != 1+len(want) {
				t.Fatalf("opts %d: read behind an occupied arena: arena %v window %v want %v", oi, arena, window, want)
			}
			if len(window) > 0 && cap(window) != len(window) {
				t.Fatalf("opts %d: row window not capacity-clipped", oi)
			}

			cols := NewColumnSet("never-stored")
			for q := 0; q < 12; q++ {
				if (int(tape[0])<<8|int(tape[len(tape)-1]))>>q&1 == 1 {
					cols.quals = append(cols.quals, fmt.Sprintf("q%d", q))
				}
			}
			slices.Sort(cols.quals)
			cut := restrictTo(want, cols)
			if _, got := row.readInto(nil, opts, cols.in(file)); !reflect.DeepEqual(got, cut) {
				t.Fatalf("opts %d: packed read under %v gave %v, want %v (cells %+v)", oi, cols.quals, got, cut, ref.cells)
			}
			if arena, window := row.readInto(occupied, opts, cols.in(file)); !reflect.DeepEqual(window, cut) || len(arena) != 1+len(cut) {
				t.Fatalf("opts %d: packed read under %v behind an occupied arena: arena %v window %v want %v", oi, cols.quals, arena, window, cut)
			}
			if _, got := ref.readInto(nil, opts, cols); !reflect.DeepEqual(got, cut) {
				t.Fatalf("opts %d: rowData read under %v gave %v, want %v (cells %+v)", oi, cols.quals, got, cut, ref.cells)
			}
			buf := &chunkBuf{}
			spread.scanChunk(buf, resumeAt{}, spread.edge(false), 0, &ScanSpec{Read: opts, Columns: cols}, nil)
			var merged Cells
			if len(buf.rows) > 0 {
				merged = buf.rows[0].Cells
			}
			if !reflect.DeepEqual(merged, cut) {
				t.Fatalf("opts %d: row spread over %d files and a memstore read under %v gave %v, want %v (cells %+v)", oi, len(spread.files), cols.quals, merged, cut, ref.cells)
			}
		}

		for _, keep := range []int{1, 3} {
			want := merged(ref)
			want.compact(keep)
			got := &rowData{cells: row.appendCells(nil)}
			got.compact(keep)
			if len(got.cells) != len(want.cells) || (len(want.cells) > 0 && !reflect.DeepEqual(got.cells, want.cells)) {
				t.Fatalf("compact(%d) diverges:\n got %+v\nwant %+v", keep, got.cells, want.cells)
			}
			if len(want.cells) == 0 {
				continue
			}
			re, _ := packRows([]string{"k"}, [][]Cell{got.cells}).find("k")
			if _, cells := re.readInto(nil, ReadOpts{}, nil); !reflect.DeepEqual(cells, want.read(ReadOpts{})) {
				t.Fatalf("compact(%d): re-encoded row reads %v, reference %v", keep, cells, want.read(ReadOpts{}))
			}
		}

		region := newRegion(&TableSpec{Name: "t", MaxVersions: maxVersions}, "", "")
		for _, part := range parts {
			if !part.empty() {
				region.files = append(region.files, packRows([]string{"k"}, [][]Cell{part.cells}))
			}
		}
		if len(region.files) == 0 {
			return
		}
		region.mergeLocked(len(region.files), false)
		if len(region.files) != 1 {
			t.Fatalf("minor compaction left %d files", len(region.files))
		}
		row, _ = region.files[0].find("k")
		got := row.appendCells(nil)
		// The oracle: one memstore row, the older part's cells applied before
		// the newer part's, oldest stamp first.
		oldestFirst := append(append([]Cell(nil), parts[1].cells...), parts[0].cells...)
		sort.SliceStable(oldestFirst, func(i, j int) bool { return oldestFirst[i].TS < oldestFirst[j].TS })
		want := &rowData{}
		for _, c := range oldestFirst {
			want.apply(c, maxVersions)
		}
		if !reflect.DeepEqual(got, want.cells) {
			t.Fatalf("minor compaction diverges from one memstore:\n got %+v\nwant %+v\nfrom %+v", got, want.cells, ref.cells)
		}
		// Distinct put versions per qualifier; the fold puts duplicates of one
		// coordinate next to each other.
		versions, surplus := map[string]int{}, false
		for i, c := range ref.cells {
			if c.Type != TypePut {
				if !slices.ContainsFunc(got, func(g Cell) bool { return g.Qualifier == c.Qualifier && g.TS == c.TS && g.Type == c.Type }) {
					t.Fatalf("minor compaction lost tombstone %+v: %+v", c, got)
				}
				continue
			}
			if i > 0 && !cellLess(ref.cells[i-1], c) {
				continue
			}
			if versions[c.Qualifier]++; versions[c.Qualifier] > maxVersions {
				surplus = true
			}
		}
		if surplus {
			return
		}
		for oi, opts := range readOpts {
			if _, cells := row.readInto(nil, opts, nil); !reflect.DeepEqual(cells, ref.read(opts)) {
				t.Fatalf("opts %d: minor-compacted row reads %v, the unmerged stack %v (cells %+v)", oi, cells, ref.read(opts), ref.cells)
			}
		}
	})
}

// TestPackedBlocksBoundedAndSeekable loads rows of mixed sizes — including
// one larger than a block — and checks the block invariants the read path
// leans on: no block but an oversized row's exceeds blockSize, every row is
// found by key through the (keyOff, blockRow, rowOff) indexes, and a cursor
// walking the file visits the same rows in order.
func TestPackedBlocksBoundedAndSeekable(t *testing.T) {
	const rows = 3000
	keys := make([]string, rows)
	cells := make([][]Cell, rows)
	for i := range keys {
		keys[i] = scanKey(i)
		size := 40 + (i*37)%900
		if i == 1234 {
			size = 3 * blockSize
		}
		cells[i] = []Cell{put("pad", string(bytes.Repeat([]byte{byte('a' + i%26)}, size)), 7), put("v", fmt.Sprint(i), 7)}
	}
	f := packRows(keys, cells)
	if len(f.blocks) < 10 {
		t.Fatalf("fixture fits %d blocks; want a multi-block file", len(f.blocks))
	}
	oversized := 0
	for _, b := range f.blocks {
		if len(b) > blockSize {
			oversized++
		}
	}
	if oversized != 1 {
		t.Fatalf("%d blocks exceed blockSize, want exactly the oversized row's", oversized)
	}
	for i, k := range keys {
		row, ok := f.find(k)
		if !ok {
			t.Fatalf("row %s not found", k)
		}
		if _, got := row.readInto(nil, ReadOpts{}, nil); string(got.Get("v")) != fmt.Sprint(i) || len(got.Get("pad")) != len(cells[i][0].Value) {
			t.Fatalf("row %s decoded wrong: v=%q pad=%d bytes", k, got.Get("v"), len(got.Get("pad")))
		}
	}
	m := newRowMerger(nil, []*hfile{f}, scanKey(100), false, false, nil)
	defer m.release()
	for i := 100; i < rows; i++ {
		key, parts, ok := m.next()
		if !ok || key != keys[i] || len(parts) != 1 {
			t.Fatalf("cursor at %d: key %q ok=%v parts=%d", i, key, ok, len(parts))
		}
		if _, got := parts[0].file.readInto(nil, ReadOpts{}, nil); string(got.Get("v")) != fmt.Sprint(i) {
			t.Fatalf("cursor row %s: v=%q", key, got.Get("v"))
		}
	}
	if _, _, ok := m.next(); ok {
		t.Fatal("cursor ran past the file")
	}
}

// refRegion is the reference model of one region: the []Cell-per-row store
// files this package used before the packed format, reduced to what reads
// and size accounting depend on — a memstore part and a newest-first list of
// file parts, every part a map of rowDatas — flushed and compacted by the
// region's rules, restated over those maps: a write that takes the memstore
// to flushSize flushes it and merges the run compactionRun selects (the
// policy is the one thing shared with the code under test; the file sizes it
// is asked about are brute-force recounts).
type refRegion struct {
	start, end string
	mem        map[string]*rowData
	files      []map[string]*rowData
}

// refStore is the reference model of one table: its regions in key order.
type refStore struct {
	maxVersions int
	flushSize   int64 // 0: only explicit flushes
	regions     []*refRegion
	// What the size-triggered path did, so a run can show it did everything.
	autoFlushes, partialMerges, fullMerges int
}

func newRefStore(maxVersions int, flushSize int64) *refStore {
	return &refStore{maxVersions: maxVersions, flushSize: flushSize,
		regions: []*refRegion{{mem: map[string]*rowData{}}}}
}

func (s *refStore) region(key string) *refRegion {
	for _, r := range s.regions {
		if r.end == "" || key < r.end {
			return r
		}
	}
	panic("unreachable: the last region is unbounded")
}

// row returns the memstore row of key, for the caller to apply a write to;
// afterWrite must follow.
func (s *refStore) row(key string) *rowData {
	r := s.region(key)
	rd := r.mem[key]
	if rd == nil {
		rd = &rowData{}
		r.mem[key] = rd
	}
	return rd
}

func partBytes(part map[string]*rowData) int64 {
	var n int64
	for k, rd := range part {
		n += rd.sizeBytes(k)
	}
	return n
}

// afterWrite is Region.afterWriteLocked over the model. It reports whether
// store files were rewritten.
func (s *refStore) afterWrite(key string) bool {
	r := s.region(key)
	if s.flushSize == 0 || partBytes(r.mem) < s.flushSize {
		return false
	}
	r.flush()
	s.autoFlushes++
	sizes := make([]int64, len(r.files))
	for i, f := range r.files {
		sizes[i] = partBytes(f)
	}
	if n := compactionRun(sizes); n > 0 {
		if n == len(r.files) {
			s.fullMerges++
		} else {
			s.partialMerges++
		}
		r.merge(n, func(rd *rowData) { rd.trim(s.maxVersions) })
	}
	return true
}

func (r *refRegion) parts(key string) []*rowData {
	var parts []*rowData
	if rd := r.mem[key]; rd != nil {
		parts = append(parts, rd)
	}
	for _, f := range r.files {
		if rd := f[key]; rd != nil {
			parts = append(parts, rd)
		}
	}
	return parts
}

func (s *refStore) cells(key string) *rowData {
	return merged(s.region(key).parts(key)...)
}

func (s *refStore) read(key string, opts ReadOpts) Cells {
	return s.cells(key).read(opts)
}

func (r *refRegion) flush() {
	if len(r.mem) > 0 {
		r.files = append([]map[string]*rowData{r.mem}, r.files...)
		r.mem = map[string]*rowData{}
	}
}

// merge folds the n newest files into one, passing every folded row through
// rewrite and dropping the rows and the file it leaves empty.
func (r *refRegion) merge(n int, rewrite func(*rowData)) {
	run := &refRegion{files: r.files[:n]}
	out := map[string]*rowData{}
	for _, k := range run.keys() {
		rd := merged(run.parts(k)...)
		rewrite(rd)
		if !rd.empty() {
			out[k] = rd
		}
	}
	r.files = append([]map[string]*rowData(nil), r.files[n:]...)
	if len(out) > 0 {
		r.files = append([]map[string]*rowData{out}, r.files...)
	}
}

func (r *refRegion) keys() []string {
	seen := map[string]bool{}
	for k := range r.mem {
		seen[k] = true
	}
	for _, f := range r.files {
		for k := range f {
			seen[k] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// flushTable is HCluster.FlushTable: every region flushes, then tbl — the
// table the model shadows — may have split, and the model follows.
func (s *refStore) flushTable(tbl *table) {
	for _, r := range s.regions {
		r.flush()
	}
	s.followSplits(tbl)
}

// majorCompact is HCluster.MajorCompact. The store splits before it compacts
// and the model after flushing, which a major compaction cannot tell apart.
func (s *refStore) majorCompact(tbl *table) {
	s.flushTable(tbl)
	for _, r := range s.regions {
		if len(r.files) > 0 {
			r.merge(len(r.files), func(rd *rowData) { rd.compact(s.maxVersions) })
		}
	}
}

// followSplits re-cuts the model's regions at the table's region bounds. A
// split only ever subdivides a (just flushed) region, handing each daughter
// the rows of each parent file that fall in its range and no file for none.
func (s *refStore) followSplits(tbl *table) {
	var regions []*refRegion
	for _, real := range tbl.regionsInRange("", "") {
		parent := s.region(real.start)
		if parent.start == real.start && parent.end == real.end {
			regions = append(regions, parent)
			continue
		}
		if len(parent.mem) > 0 {
			panic("a region split with rows in its memstore")
		}
		d := &refRegion{start: real.start, end: real.end, mem: map[string]*rowData{}}
		for _, f := range parent.files {
			window := map[string]*rowData{}
			for k, rd := range f {
				if real.contains(k) {
					window[k] = rd
				}
			}
			if len(window) > 0 {
				d.files = append(d.files, window)
			}
		}
		regions = append(regions, d)
	}
	s.regions = regions
}

// bytes is the brute-force KeyValue footprint: KVSize of every stored cell.
func (s *refStore) bytes() int64 {
	var n int64
	for _, r := range s.regions {
		n += partBytes(r.mem)
		for _, f := range r.files {
			n += partBytes(f)
		}
	}
	return n
}

// scanShapes are the range and limit shapes every model check scans, each
// forward and reversed, sequentially and scatter-gathered: the whole table
// (at the default batch and at several chunks per 30-row region), a
// [Start, Stop) window and prefixes across region boundaries, and limits
// below the batch (sequential early stop) and at or above it (scatter-gather
// with per-region caps and a client-side trim).
var scanShapes = []ScanSpec{
	{},
	{Batch: 8},
	{Start: scanKey(37), Stop: scanKey(121), Batch: 8},
	{Start: "k00001", Stop: "k00002", Batch: 4},
	{Limit: 5},
	{Limit: 20, Batch: 8},
	{Start: scanKey(37), Stop: scanKey(121), Limit: 20, Batch: 8},
	{Start: "k0000", Stop: "k0001", Limit: 12, Batch: 5},
}

// restrictTo is what a read under a column set must return, given the same
// read without one: the pairs whose qualifier the set names, nil — the row
// reads as absent — when there is none. A nil set restricts nothing. The
// pairs are collected in a slice of its own.
//
//cellsvet:owner
func restrictTo(cells Cells, cols *ColumnSet) Cells {
	if cols == nil {
		return cells
	}
	var out Cells
	for _, p := range cells {
		if slices.Contains(cols.quals, p.Qualifier) {
			out = append(out, p)
		}
	}
	return out
}

func restrictRows(rows []RowResult, cols *ColumnSet) []RowResult {
	var out []RowResult
	for _, r := range rows {
		if cells := restrictTo(r.Cells, cols); len(cells) > 0 {
			out = append(out, RowResult{Key: r.Key, Cells: cells})
		}
	}
	return out
}

// modelRows is what a scan of spec's shape must return given all, the
// model's visible rows in ascending key order: the rows inside the range,
// backwards when reversed, cut at the limit.
func modelRows(all []RowResult, spec ScanSpec) []RowResult {
	start, stop := spec.Start, spec.Stop
	var rows []RowResult
	for _, r := range all {
		if r.Key >= start && (stop == "" || r.Key < stop) {
			rows = append(rows, r)
		}
	}
	if spec.Reversed {
		slices.Reverse(rows)
	}
	if spec.Limit > 0 && len(rows) > spec.Limit {
		rows = rows[:spec.Limit]
	}
	return rows
}

func (s *refStore) scan(opts ReadOpts) []RowResult {
	var rows []RowResult
	for _, r := range s.regions {
		for _, k := range r.keys() {
			if cells := s.read(k, opts); len(cells) > 0 {
				rows = append(rows, RowResult{Key: k, Cells: cells})
			}
		}
	}
	return rows
}

// TestRegionModelRandomized drives one table with a random interleaving of
// put, delete (row and column), checkAndPut (stamped by the caller and by the
// region), flush and major
// compaction — with a split threshold low enough that flushes and
// compactions keep splitting regions — and after every step that rewrites
// store files compares the table against refStore: TableBytes against the
// brute-force KVSize sum, every Get, the scanShapes under plain, snapshot and
// excluded-version options in both directions, with and without a column set,
// and region scanChunks resumed seven rows at a time under one, forward and
// reversed. Every seed runs twice: with
// store files rewritten only by the explicit flushes and compactions, and
// with a flush size of three or four writes, so that size-triggered flushes, merges
// of the newest files only and merges reaching the oldest file all happen
// between operations, in regions holding whole files and in split daughters
// holding windows of their parent's.
func TestRegionModelRandomized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runRegionModel(t, seed, 0) })
		t.Run(fmt.Sprint("seed", seed, "/autoflush"), func(t *testing.T) { runRegionModel(t, seed, 200) })
	}
}

// newestCovering is the newest timestamp among the versions and tombstones
// covering (row, qualifier): what a server-stamped conditional write must
// land above.
func newestCovering(rd *rowData, qualifier string) int64 {
	newest := int64(math.MinInt64)
	for _, c := range rd.cells {
		if c.Qualifier == qualifier || c.Qualifier == "" {
			newest = max(newest, c.TS)
		}
	}
	return newest
}

func runRegionModel(t *testing.T, seed, flushSize int64) {
	const keySpace, maxVersions = 160, 3
	rng := rand.New(rand.NewSource(seed))
	hc := NewHCluster(nil, nil)
	mustCreate(t, hc, TableSpec{Name: "t", MaxVersions: maxVersions, SplitThreshold: 30, FlushSize: flushSize})
	c := hc.NewWarmClient()
	ctx := sim.NewCtx()
	model := newRefStore(maxVersions, flushSize)
	quals := []string{"a", "b", "c", "n"}
	optsList := []ReadOpts{{}, {ReadTS: 400}, {Excluded: func(ts int64) bool { return ts%5 == 0 }}}
	tbl, err := hc.lookup("t")
	if err != nil {
		t.Fatal(err)
	}

	// A bulk-loaded base (every third key), so the first store file is a
	// BulkLoad product like a populated database's.
	var bulk []BulkRow
	for i := 0; i < keySpace; i += 3 {
		cells := []Cell{put("a", fmt.Sprint("base", i), 1), put("b", "", 1)}
		bulk = append(bulk, BulkRow{Key: scanKey(i), Cells: cells})
		model.row(scanKey(i)).cells = append([]Cell(nil), cells...)
	}
	if err := hc.BulkLoad("t", bulk); err != nil {
		t.Fatal(err)
	}
	model.flushTable(tbl)

	check := func(step int, what string) {
		t.Helper()
		where := fmt.Sprintf("seed %d step %d after %s", seed, step, what)
		if got, want := hc.TableBytes("t"), model.bytes(); got != want {
			t.Fatalf("%s: TableBytes %d, brute-force KVSize sum %d", where, got, want)
		}
		for i := 0; i < keySpace; i++ {
			for oi, opts := range optsList {
				got, err := c.Get(sim.NewCtx(), "t", scanKey(i), opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameCells(t, fmt.Sprintf("%s: Get %s opts %d", where, scanKey(i), oi), got.Cells, model.read(scanKey(i), opts))
			}
		}
		for oi, opts := range optsList {
			// Every shape with no column set and with one — a set per read
			// option, a fresh one each time as a statement's is: the scan must
			// return the model's rows cut to it, a row with none of its cells
			// left reading as absent (and counting for no limit).
			cols := NewColumnSet([][]string{{"b", "n", "never-stored"}, {"a"}, {"c", "a"}}[oi]...)
			all := model.scan(opts)
			for _, spec := range scanShapes {
				for _, reversed := range []bool{false, true} {
					spec.Read, spec.Reversed = opts, reversed
					for _, spec.Columns = range []*ColumnSet{nil, cols} {
						want := modelRows(restrictRows(all, spec.Columns), spec)
						for _, sequential := range []bool{true, false} {
							spec.Sequential = sequential
							got, _ := drainSpec(t, c, spec)
							requireSameRows(t, want, got)
						}
					}
				}
			}
			// Resumed region chunks: each region seven rows at a time, the
			// regions in scan order, must concatenate to the same rows —
			// forward, and reversed to the same rows backwards.
			all = restrictRows(all, cols)
			for _, reversed := range []bool{false, true} {
				want := modelRows(all, ScanSpec{Reversed: reversed})
				regions := slices.Clone(tbl.regionsInRange("", "")) // the table's own list is read-only
				if reversed {
					slices.Reverse(regions)
				}
				var chunked []RowResult
				buf := &chunkBuf{}
				for _, r := range regions {
					next := resumeAt{key: r.start}
					if reversed {
						next.key = r.end
					}
					for {
						buf.reset()
						_, _, next = r.scanChunk(buf, next, r.edge(reversed), 7, &ScanSpec{Reversed: reversed, Read: opts, Columns: cols}, nil)
						for _, row := range buf.rows {
							chunked = append(chunked, row.Clone())
						}
						if next.key == "" {
							break
						}
					}
				}
				if len(chunked) != len(want) {
					t.Fatalf("%s opts %d reversed %v: resumed chunks gave %d rows, model %d", where, oi, reversed, len(chunked), len(want))
				}
				requireSameRows(t, want, chunked)
			}
		}
	}
	// wrote ends a write step: the model takes the region's flush decision
	// and, when that rewrote store files, the table is compared.
	wrote := func(step int, key, what string) {
		t.Helper()
		if model.afterWrite(key) {
			check(step, what+" that flushed")
		}
	}

	check(0, "bulk load")
	for step := 1; step <= 700; step++ {
		key := scanKey(rng.Intn(keySpace))
		ts := int64(rng.Intn(800) + 2)
		op := rng.Intn(100)
		if flushSize > 0 && op >= 85 && step%4 != 0 {
			// Mostly leave the flushing to the regions.
			op = rng.Intn(85)
		}
		switch {
		case op < 45:
			var cells []Cell
			for _, q := range quals[:3] {
				if rng.Intn(2) == 0 {
					cells = append(cells, put(q, fmt.Sprint(q, step), ts))
				}
			}
			if len(cells) == 0 {
				cells = []Cell{{Qualifier: "a", TS: ts}} // nil value
			}
			if err := c.Put(ctx, "t", key, cells); err != nil {
				t.Fatal(err)
			}
			rd := model.row(key)
			for _, cell := range cells {
				rd.apply(cell, maxVersions)
			}
			wrote(step, key, "a put")
		case op < 55:
			if err := c.DeleteAt(ctx, "t", key, ts); err != nil {
				t.Fatal(err)
			}
			model.row(key).apply(Cell{TS: ts, Type: TypeDeleteRow}, maxVersions)
			wrote(step, key, "a row delete")
		case op < 65:
			q := quals[rng.Intn(3)]
			if err := c.DeleteAt(ctx, "t", key, ts, q); err != nil {
				t.Fatal(err)
			}
			model.row(key).apply(Cell{Qualifier: q, TS: ts, Type: TypeDeleteCol}, maxVersions)
			wrote(step, key, "a column delete")
		case op < 75:
			q := quals[rng.Intn(3)]
			var expected []byte
			if rng.Intn(2) == 0 {
				expected = model.read(key, ReadOpts{}).Get(q) // half the time a matching guess
			}
			cell := put(q, fmt.Sprint("cas", step), ts)
			ok, err := c.CheckAndPut(ctx, "t", key, q, expected, cell)
			if err != nil {
				t.Fatal(err)
			}
			want := bytes.Equal(model.read(key, ReadOpts{}).Get(q), expected)
			if ok != want {
				t.Fatalf("step %d: CheckAndPut applied=%v, model %v", step, ok, want)
			}
			if want {
				model.row(key).apply(cell, maxVersions)
				wrote(step, key, "a checkAndPut")
			}
		case op < 85:
			// A conditional write the region stamps: the next clock tick, or
			// just above whatever explicit stamp already covers the column.
			cell := put("n", fmt.Sprintf("n%07d", step), 0) // 8 bytes, a counter's size
			casTS := max(hc.CurrentTS(), newestCovering(model.cells(key), "n")) + 1
			ok, err := c.CheckAndPut(ctx, "t", key, "n", model.read(key, ReadOpts{}).Get("n"), cell)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("step %d: CheckAndPut against the current value not applied", step)
			}
			cell.TS = casTS
			model.row(key).apply(cell, maxVersions)
			wrote(step, key, "a server-stamped checkAndPut")
		case op < 95:
			if err := hc.FlushTable("t"); err != nil {
				t.Fatal(err)
			}
			model.flushTable(tbl)
			check(step, "flush")
		default:
			if err := hc.MajorCompact("t"); err != nil {
				t.Fatal(err)
			}
			model.majorCompact(tbl)
			check(step, "major compaction")
		}
	}
	check(701, "the last write")
	if n := hc.RegionCount("t"); n < 3 {
		t.Fatalf("table ended with %d regions; the run was meant to split", n)
	}
	if flushSize == 0 {
		return
	}
	t.Logf("%d size-triggered flushes, %d partial merges, %d full merges", model.autoFlushes, model.partialMerges, model.fullMerges)
	if model.autoFlushes < 20 || model.partialMerges < 5 || model.fullMerges < 5 {
		t.Fatalf("%d size-triggered flushes, %d merges of the newest files only, %d reaching the oldest; the run was meant to do plenty of each",
			model.autoFlushes, model.partialMerges, model.fullMerges)
	}
	st := hc.StoreStats("t")
	if st.Flushes < int64(model.autoFlushes) || st.Compactions < int64(model.partialMerges+model.fullMerges) {
		t.Fatalf("StoreStats %+v count fewer flushes or compactions than the model's %d and %d", st,
			model.autoFlushes, model.partialMerges+model.fullMerges)
	}
}

// wideCells is a 25-column row — the shape of a materialized view row.
func wideCells(i int, ts int64) []Cell {
	cells := make([]Cell, 25)
	for q := range cells {
		cells[q] = put(fmt.Sprintf("c%02d", q), fmt.Sprintf("value-%d-%d", i, q), ts)
	}
	return cells
}

// compactedWideRegion is a region of rows wide rows held only in one
// compacted store file.
func compactedWideRegion(rows int) *Region {
	r := newRegion(&TableSpec{Name: "t", MaxVersions: 1, SplitThreshold: 1 << 30}, "", "")
	for i := 0; i < rows; i++ {
		putStamped(r, scanKey(i), wideCells(i, 1))
	}
	r.majorCompact()
	return r
}

// TestResidentBytesPerCell pins what a compacted store file costs in RAM: the
// heap a loaded, major-compacted region retains, less its key and value
// bytes, divided by its cells. The []Cell files this format replaced paid
// about 60 bytes per cell (a 56-byte struct plus per-row headers).
func TestResidentBytesPerCell(t *testing.T) {
	const rows = 20_000
	spec := &TableSpec{Name: "t", MaxVersions: 1, SplitThreshold: 1 << 30}
	before := liveHeap()
	r := newRegion(spec, "", "")
	var payload, cells int
	for i := 0; i < rows; i++ {
		row := wideCells(i, 1)
		putStamped(r, scanKey(i), row)
		payload += len(scanKey(i))
		for _, c := range row {
			payload += len(c.Value)
		}
		cells += len(row)
	}
	r.majorCompact()
	after := liveHeap()
	overhead := (float64(after) - float64(before) - float64(payload)) / float64(cells)
	t.Logf("%d cells: %.1f MiB resident for %.1f MiB of keys and values, %.2f B/cell overhead",
		cells, float64(after-before)/(1<<20), float64(payload)/(1<<20), overhead)
	if overhead > 12 {
		t.Fatalf("%.2f bytes of overhead per cell beyond key and value bytes, want <= 12", overhead)
	}
	runtime.KeepAlive(r)
}
