package hbase

import (
	"slices"
	"sort"
)

// rowData holds every retained cell version of one row, sorted by
// (qualifier ascending, timestamp descending, tombstones before puts at equal
// timestamps) — the HBase KeyValue sort order. Row-wide delete tombstones use
// the empty qualifier so they sort first. It is the mutable form of a row:
// memstore rows, a transaction's pending rows and the merge scratch are
// rowDatas; store files hold the same cells packed (hfile.go).
type rowData struct {
	cells []Cell
}

// cellLess orders cells within a row.
func cellLess(a, b Cell) bool {
	if a.Qualifier != b.Qualifier {
		return a.Qualifier < b.Qualifier
	}
	if a.TS != b.TS {
		return a.TS > b.TS // newest first
	}
	return a.Type > b.Type // tombstones (higher type value) first
}

// apply inserts one cell, keeping sort order and trimming put versions of
// the qualifier beyond maxVersions. Tombstones are retained until compaction.
// It reports how the row changed — the net count of cells and of their
// qualifier and value bytes — which is what lets a memstore keep its
// KeyValue-format footprint without re-walking the row. A put that pushes a
// version out takes its place, so the row grows only when grows says it will;
// the memstore makes room for that cell first.
func (r *rowData) apply(c Cell, maxVersions int) (cells, payload int) {
	i := r.search(c)
	if i < len(r.cells) && r.cells[i].Qualifier == c.Qualifier && r.cells[i].TS == c.TS && r.cells[i].Type == c.Type {
		payload = len(c.Value) - len(r.cells[i].Value)
		r.cells[i] = c // same coordinates: overwrite in place
		return 0, payload
	}
	if c.Type != TypePut {
		r.cells = slices.Insert(r.cells, i, c)
		return 1, len(c.Qualifier) + len(c.Value)
	}
	// Counting the put's versions from c on, the first past maxVersions is the
	// maxVersions-th stored one at or after i: c takes its place, the cells
	// between shifting up one, and every later put of the qualifier goes too.
	k := r.surplus(i, c.Qualifier, maxVersions)
	if k < 0 {
		r.cells = slices.Insert(r.cells, i, c)
		return 1, len(c.Qualifier) + len(c.Value)
	}
	payload = len(c.Value) - len(r.cells[k].Value)
	copy(r.cells[i+1:k+1], r.cells[i:k])
	r.cells[i] = c
	for j := k + 1; j < len(r.cells) && r.cells[j].Qualifier == c.Qualifier; j++ {
		if r.cells[j].Type != TypePut {
			continue
		}
		cells--
		payload -= len(c.Qualifier) + len(r.cells[j].Value)
		r.cells = append(r.cells[:j], r.cells[j+1:]...)
		j--
	}
	return cells, payload
}

// search is the position c sorts at in the row.
func (r *rowData) search(c Cell) int {
	return sort.Search(len(r.cells), func(i int) bool { return !cellLess(r.cells[i], c) })
}

// surplus is the index of the maxVersions-th put of qualifier q at or after
// i, or -1 when there are fewer.
func (r *rowData) surplus(i int, q string, maxVersions int) int {
	puts := 0
	for j := i; j < len(r.cells) && r.cells[j].Qualifier == q; j++ {
		if r.cells[j].Type == TypePut {
			if puts++; puts == maxVersions {
				return j
			}
		}
	}
	return -1
}

// grows reports whether apply(c) would add a cell to the row.
func (r *rowData) grows(c Cell, maxVersions int) bool {
	i := r.search(c)
	if i < len(r.cells) && r.cells[i].Qualifier == c.Qualifier && r.cells[i].TS == c.TS && r.cells[i].Type == c.Type {
		return false
	}
	return c.Type != TypePut || r.surplus(i, c.Qualifier, maxVersions) < 0
}

// trim is what a store file merge does to a row folded from several parts —
// the cross-part counterpart of apply's bookkeeping, leaving the row as one
// memstore would hold it had every cell been applied there oldest first. Of
// cells sharing coordinates only the first survives (the fold puts the newest
// part first, and apply overwrites in place); put versions of a qualifier
// beyond the newest maxVersions go. Tombstones and whatever they hide stay:
// only a major compaction may drop those (compact).
func (r *rowData) trim(maxVersions int) {
	kept := r.cells[:0]
	puts := 0
	for i, c := range r.cells {
		if i > 0 {
			prev := r.cells[i-1]
			if c.Qualifier != prev.Qualifier {
				puts = 0
			} else if c.TS == prev.TS && c.Type == prev.Type {
				continue
			}
		}
		if c.Type == TypePut {
			if puts++; puts > maxVersions {
				continue
			}
		}
		kept = append(kept, c)
	}
	r.cells = kept
}

// readInto materializes the latest visible value per qualifier, honoring
// tombstones and the read options' version filters, appending into a
// caller-owned arena. The cell index is sorted ascending by qualifier, so the
// produced pairs are born sorted — no consumer ever re-sorts. The visible
// pairs of the row are appended to dst and returned both as the extended arena
// and as the row's own full-capacity-clipped window into it (nil when no
// cell is visible — such rows cost no arena space). The scan chunk path
// calls it once per row over one pooled arena, which is what turns the
// read path's dominant per-row allocation into a per-chunk one. Growth is
// safe mid-chunk: append relocations copy the arena, and earlier rows keep
// aliasing the abandoned block, which lives until the chunk is released.
//
// With a nil dst the first visible cell allocates a fresh slice presized
// to the remaining qualifier-group count (the point-read behavior: one
// exact allocation per visible row, none for invisible rows).
//
// A non-nil cols restricts the row to those qualifiers: both lists ascend, so
// the set is walked beside the row's qualifier groups.
//
//cellsvet:owner
func (r *rowData) readInto(dst Cells, opts ReadOpts, cols *ColumnSet) (arena, row Cells) {
	if len(r.cells) == 0 {
		return dst, nil
	}
	var wanted []string
	if cols != nil {
		wanted = cols.quals
	}
	// Newest visible row-wide tombstone.
	var rowDelTS int64 = -1
	for _, c := range r.cells {
		if c.Qualifier != "" {
			break
		}
		if c.Type == TypeDeleteRow && opts.visible(c.TS) {
			rowDelTS = c.TS
			break
		}
	}

	start := len(dst)
	i := 0
	for i < len(r.cells) {
		q := r.cells[i].Qualifier
		j := i
		for j < len(r.cells) && r.cells[j].Qualifier == q {
			j++
		}
		if cols != nil {
			for len(wanted) > 0 && wanted[0] < q {
				wanted = wanted[1:]
			}
			if len(wanted) == 0 || wanted[0] != q {
				i = j
				continue
			}
		}
		if q != "" {
			for k := i; k < j; k++ {
				c := r.cells[k]
				if !opts.visible(c.TS) {
					continue
				}
				if c.Type == TypeDeleteCol {
					break // hides everything older
				}
				if c.TS <= rowDelTS {
					break // hidden by row tombstone
				}
				if dst == nil {
					dst = make(Cells, 0, r.qualifiersFrom(i))
				}
				dst = append(dst, Pair{Qualifier: q, Value: c.Value})
				break
			}
		}
		i = j
	}
	if len(dst) == start {
		return dst, nil
	}
	// Clip the row's capacity to its length: even an owner slipping an
	// append past the vet rule could then never clobber the next row.
	return dst, dst[start:len(dst):len(dst)]
}

// qualifiersFrom counts distinct qualifiers from cell index i on.
func (r *rowData) qualifiersFrom(i int) int {
	n := 0
	for j := i; j < len(r.cells); {
		q := r.cells[j].Qualifier
		n++
		for j < len(r.cells) && r.cells[j].Qualifier == q {
			j++
		}
	}
	return n
}

// compact rewrites the row keeping only the newest maxVersions put cells per
// qualifier that survive tombstones, and drops the tombstones themselves —
// major-compaction semantics.
func (r *rowData) compact(maxVersions int) {
	var rowDelTS int64 = -1
	for _, c := range r.cells {
		if c.Qualifier != "" {
			break
		}
		if c.Type == TypeDeleteRow {
			rowDelTS = c.TS
			break
		}
	}
	kept := r.cells[:0]
	i := 0
	for i < len(r.cells) {
		q := r.cells[i].Qualifier
		j := i
		for j < len(r.cells) && r.cells[j].Qualifier == q {
			j++
		}
		if q != "" {
			var colDel bool
			puts := 0
			for k := i; k < j; k++ {
				c := r.cells[k]
				if c.Type == TypeDeleteCol {
					colDel = true
					continue
				}
				if c.Type != TypePut || c.TS <= rowDelTS || colDel {
					continue
				}
				if puts < maxVersions {
					kept = append(kept, c)
					puts++
				}
			}
		}
		i = j
	}
	r.cells = kept
}

// sizeBytes reports the KeyValue-format footprint of the row.
func (r *rowData) sizeBytes(key string) int64 {
	var n int64
	for _, c := range r.cells {
		n += KVSize(key, c)
	}
	return n
}

// empty reports whether no cells remain.
func (r *rowData) empty() bool { return len(r.cells) == 0 }

// merged returns a rowData combining the parts' cells in sort order. Parts
// must be given in precedence order (pending cells before store cells); the
// underlying merge is linear over the already-sorted parts rather than a
// re-sort, and stable, so earlier parts win coordinate ties.
func merged(parts ...*rowData) *rowData {
	lists := make([][]Cell, len(parts))
	for i, p := range parts {
		lists[i] = p.cells
	}
	return &rowData{cells: mergeCellsInto(nil, lists)}
}
