package hbase

import (
	"sort"
)

// rowPart is one source's share of a row: a memstore row (mem non-nil) or a
// packed row body inside a store file.
type rowPart struct {
	mem  *rowData
	file packedRow
}

// appendCells appends every cell of the part to dst in cellLess order.
func (p rowPart) appendCells(dst []Cell) []Cell {
	if p.mem != nil {
		return append(dst, p.mem.cells...)
	}
	return p.file.appendCells(dst)
}

// mergeSource is one sorted row stream feeding a rowMerger: either a
// region's memstore or a cursor over one immutable store file. rank orders
// sources on key ties — memstore first, then store files newest-first — so
// a merged row's parts keep the same precedence the write path established.
type mergeSource struct {
	rank int
	key  string // current key; valid while the source is on the heap
	pos  int
	f    *hfile              // store-file source (nil for a memstore source)
	blk  int                 // store-file source: the block holding row pos
	want []bool              // store-file source: the merger's column set in f's ids
	keys []string            // memstore key list
	mem  map[string]*rowData // memstore rows
}

func (s *mergeSource) part() rowPart {
	if s.f != nil {
		return rowPart{file: s.f.row(s.pos, s.blk)}
	}
	return rowPart{mem: s.mem[s.key]}
}

// advance moves one row along the merge direction — up the keys, or down
// them when rev — reporting false when the source is drained.
func (s *mergeSource) advance(rev bool) bool {
	if f := s.f; f != nil {
		if rev {
			s.pos--
			if s.pos < f.lo {
				return false
			}
			if s.pos < int(f.blockRow[s.blk]) {
				s.blk--
			}
		} else {
			s.pos++
			if s.pos >= f.hi {
				return false
			}
			if s.pos >= int(f.blockRow[s.blk+1]) {
				s.blk++
			}
		}
		s.key = f.key(s.pos)
		return true
	}
	if rev {
		s.pos--
	} else {
		s.pos++
	}
	if s.pos < 0 || s.pos >= len(s.keys) {
		return false
	}
	s.key = s.keys[s.pos]
	return true
}

// left counts the rows from the current one to the source's end in the merge
// direction.
func (s *mergeSource) left(rev bool) int {
	lo, hi := 0, len(s.keys)
	if s.f != nil {
		lo, hi = s.f.lo, s.f.hi
	}
	if rev {
		return s.pos - lo + 1
	}
	return hi - s.pos
}

// rowMerger streams (key, parts) pairs in key order from any number of
// sorted sources via a binary heap keyed on each source's current row key. It
// replaces the O(sources) linear min-search per row the scan and compaction
// paths used to do with O(log sources) sift operations.
//
// Direction is a property of the merge, not a second merger: every source is
// position-indexed (a sorted key slice, a store file's row index), so a
// reversed merge (rev) starts each source on its last key below the bound,
// steps positions down instead of up and flips the heap's key order. Parts of
// one key still come out in rank order either way.
//
// Mergers are pooled (mergerPool): newRowMerger and lookupRow draw one and
// release returns it, its heap, sources, parts and cell scratch at capacity.
type rowMerger struct {
	rev     bool       // descending key order
	cols    *ColumnSet // what read keeps of a row; nil = every cell
	want    []bool     // cols in the ids of the file the last part next gathered is from
	heap    []*mergeSource
	parts   []rowPart     // scratch, reused across next/lookup calls
	srcs    []mergeSource // backing storage for heap entries, reused across folds
	decoded [][]Cell      // per-part scratch: file parts decode here before a merge
	lists   [][]Cell      // scratch: the cell lists of the row being folded
	scratch rowData       // reusable output row of fold
	pairs   Cells         // scratch: a folded row's visible pairs (Region.currentLocked)
}

var mergerPool Pool[rowMerger]

// newRowMerger positions every non-empty source at the first key >= from —
// > from when past — or, for a reversed merge, at the last key < from, with
// from == "" standing for "past the last key". mem may be nil (compaction
// merges store files only), and so may cols (read then keeps every cell). The
// merger comes from the package pool; callers must release() it when the fold
// is done.
func newRowMerger(mem *memStore, files []*hfile, from string, past, rev bool, cols *ColumnSet) *rowMerger {
	m := mergerPool.Get()
	m.rev, m.cols = rev, cols
	// Reserve the source backing array up front: the heap holds pointers
	// into it, so it must never reallocate while sources are being added.
	if need := len(files) + 1; cap(m.srcs) < need {
		m.srcs = make([]mergeSource, 0, need)
	}
	if cap(m.heap) < len(files)+1 {
		m.heap = make([]*mergeSource, 0, len(files)+1)
	}
	// first maps a source's lower bound of from (the first position with
	// key >= from, of end positions) to the position the merge starts on;
	// hit says the key there is from.
	first := func(lower, end int, hit bool) int {
		switch {
		case !rev:
			if past && hit {
				return lower + 1
			}
			return lower
		case from == "":
			return end - 1
		}
		return lower - 1
	}
	if mem != nil && mem.len() > 0 {
		keys := mem.sortedKeys()
		lower := sort.SearchStrings(keys, from)
		if i := first(lower, len(keys), lower < len(keys) && keys[lower] == from); i >= 0 && i < len(keys) {
			m.srcs = append(m.srcs, mergeSource{key: keys[i], pos: i, keys: keys, mem: mem.rows})
			m.heap = append(m.heap, &m.srcs[len(m.srcs)-1])
		}
	}
	for fi, f := range files {
		lower := f.seek(from)
		if i := first(lower, f.hi, lower < f.hi && f.key(lower) == from); i >= f.lo && i < f.hi {
			m.srcs = append(m.srcs, mergeSource{rank: fi + 1, key: f.key(i), pos: i, f: f, blk: f.blockOf(i), want: cols.in(f)})
			m.heap = append(m.heap, &m.srcs[len(m.srcs)-1])
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}

// lookupRow draws a pooled merger and gathers the parts stored under one key
// in precedence order (memstore first, then store files newest-first) — the
// point-read counterpart of newRowMerger + next, with the same release
// obligation and the same column set (nil keeps every cell). The parts live in
// the merger's scratch.
func lookupRow(mem *memStore, files []*hfile, key string, cols *ColumnSet) (*rowMerger, []rowPart) {
	m := mergerPool.Get()
	m.cols = cols
	if rd := mem.rows[key]; rd != nil {
		m.parts = append(m.parts, rowPart{mem: rd})
	}
	for _, f := range files {
		if row, ok := f.find(key); ok {
			if len(m.parts) == 0 {
				m.want = cols.in(f) // read's mask should this part stay the only one
			}
			m.parts = append(m.parts, rowPart{file: row})
		}
	}
	return m, m.parts
}

// release returns the merger to the pool, dropping every reference into
// region data (memstore maps, store files, parts) first. The cell scratch is
// not cleared: rows handed out via fold are dead by now (reads copied the
// visible pairs out; compaction encoded the row), and its stale cells pin at
// most a few store file blocks until the merger is next taken.
func (m *rowMerger) release() {
	clear(m.srcs[:cap(m.srcs)])
	m.srcs = m.srcs[:0]
	clear(m.heap[:cap(m.heap)])
	m.heap = m.heap[:0]
	clear(m.parts[:cap(m.parts)])
	m.parts = m.parts[:0]
	m.cols, m.want = nil, nil
	mergerPool.Put(m)
}

// fold returns every cell of a row in cellLess order, merged across its
// parts, in the merger's reusable scratch row: file parts decode into pooled
// per-part scratch, memstore parts are merged straight from their cell
// index. The returned row is the caller's to mutate (compaction compacts it
// in place) and valid only until the next fold or release call.
func (m *rowMerger) fold(parts []rowPart) *rowData {
	if len(parts) == 1 {
		m.scratch.cells = parts[0].appendCells(m.scratch.cells[:0])
		return &m.scratch
	}
	m.lists = m.lists[:0]
	for i, p := range parts {
		if p.mem != nil {
			m.lists = append(m.lists, p.mem.cells)
			continue
		}
		if i >= len(m.decoded) {
			m.decoded = append(m.decoded, make([][]Cell, i+1-len(m.decoded))...)
		}
		m.decoded[i] = p.file.appendCells(m.decoded[i][:0])
		m.lists = append(m.lists, m.decoded[i])
	}
	m.scratch.cells = mergeCellsInto(m.scratch.cells, m.lists)
	clear(m.lists) // memstore cell indexes must not outlive the region lock
	return &m.scratch
}

// read materializes the visible pairs of a row from its parts onto dst (the
// rowData.readInto contract). A lone part — the common case by far — is read
// in place: a memstore row from its cell index, a file row straight from its
// block through the packed read kernel, which keeps or skips a cell by its
// dictionary id. Only a row spread over several parts pays a decode and merge,
// into pooled scratch, and is cut to the merger's column set as a memstore row
// is: by qualifier, once its versions are resolved.
//
//cellsvet:owner
func (m *rowMerger) read(parts []rowPart, dst Cells, opts ReadOpts) (arena, row Cells) {
	switch {
	case len(parts) == 0:
		return dst, nil
	case len(parts) > 1:
		return m.fold(parts).readInto(dst, opts, m.cols)
	case parts[0].mem != nil:
		return parts[0].mem.readInto(dst, opts, m.cols)
	}
	return parts[0].file.readInto(dst, opts, m.want)
}

// remaining upper-bounds the number of distinct keys left (sources may share
// keys), which is what result-buffer sizing needs.
func (m *rowMerger) remaining() int {
	n := 0
	for _, s := range m.heap {
		n += s.left(m.rev)
	}
	return n
}

// next pops the next key in merge order and every source part carrying it,
// in rank order. The returned parts slice is reused by the following next
// call.
func (m *rowMerger) next() (key string, parts []rowPart, ok bool) {
	if len(m.heap) == 0 {
		return "", nil, false
	}
	key = m.heap[0].key
	m.parts = m.parts[:0]
	for len(m.heap) > 0 && m.heap[0].key == key {
		src := m.heap[0]
		m.parts = append(m.parts, src.part())
		m.want = src.want
		if src.advance(m.rev) {
			m.siftDown(0)
		} else {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
			m.siftDown(0)
		}
	}
	return key, m.parts, true
}

func (m *rowMerger) less(i, j int) bool {
	a, b := m.heap[i], m.heap[j]
	if a.key != b.key {
		return (a.key < b.key) != m.rev
	}
	return a.rank < b.rank
}

func (m *rowMerger) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(m.heap) && m.less(l, small) {
			small = l
		}
		if r < len(m.heap) && m.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		m.heap[i], m.heap[small] = m.heap[small], m.heap[i]
		i = small
	}
}

// mergeCellsInto merges the sorted cell lists of parts into dst, reusing
// dst's capacity. The merge is stable across parts — on coordinate ties the
// earlier (higher-precedence) part wins — unlike the unstable sort the old
// merged() relied on.
func mergeCellsInto(dst []Cell, parts [][]Cell) []Cell {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if cap(dst) < total {
		dst = make([]Cell, 0, total)
	} else {
		dst = dst[:0]
	}
	switch len(parts) {
	case 0:
		return dst
	case 1:
		return append(dst, parts[0]...)
	case 2:
		a, b := parts[0], parts[1]
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if cellLess(b[j], a[i]) {
				dst = append(dst, b[j])
				j++
			} else {
				dst = append(dst, a[i])
				i++
			}
		}
		dst = append(dst, a[i:]...)
		return append(dst, b[j:]...)
	default:
		// Store-file fan-in per row is small; a linear pick beats heap
		// overhead at this width, and its cursors fit on the stack.
		var small [8]int
		idx := small[:]
		if len(parts) > len(small) {
			idx = make([]int, len(parts))
		}
		for {
			min := -1
			for pi, p := range parts {
				if idx[pi] >= len(p) {
					continue
				}
				if min < 0 || cellLess(p[idx[pi]], parts[min][idx[min]]) {
					min = pi
				}
			}
			if min < 0 {
				return dst
			}
			dst = append(dst, parts[min][idx[min]])
			idx[min]++
		}
	}
}
