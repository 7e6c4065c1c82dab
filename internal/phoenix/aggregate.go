package phoenix

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"synergy/internal/hbase"
	"synergy/internal/sim"
)

// aggState is one aggregate's running state within one group: the non-NULL
// values seen, the sum of the numeric ones, and the least and greatest — kept
// as the encoded cells they arrived as.
type aggState struct {
	count    int64
	sum      float64
	min, max []byte
}

// add folds one encoded value in; a NULL counts for nothing.
func (st *aggState) add(v []byte) {
	x := rawOfCell(v)
	if x.kind == CellNull {
		return
	}
	st.count++
	if x.kind == CellFloat {
		st.sum += x.num
	}
	if st.count == 1 || compareRaw(x, rawOfCell(st.min)) < 0 {
		st.min = v
	}
	if st.count == 1 || compareRaw(x, rawOfCell(st.max)) > 0 {
		st.max = v
	}
}

// merge folds in o, the state of the same aggregate over values that follow
// this state's in scan order. On a tie MIN and MAX keep the value seen first,
// as add does.
func (st *aggState) merge(o aggState) {
	if o.count == 0 {
		return
	}
	if st.count == 0 || compareRaw(rawOfCell(o.min), rawOfCell(st.min)) < 0 {
		st.min = o.min
	}
	if st.count == 0 || compareRaw(rawOfCell(o.max), rawOfCell(st.max)) > 0 {
		st.max = o.max
	}
	st.count += o.count
	st.sum += o.sum
}

// appendPartial appends what fn's value needs of the state to buf: the count,
// then the sum for SUM and AVG, the least value for MIN, the greatest for MAX.
func (st *aggState) appendPartial(buf []byte, fn string) []byte {
	buf = binary.AppendUvarint(buf, uint64(st.count))
	switch fn {
	case "SUM", "AVG":
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(st.sum))
	case "MIN":
		buf = appendBytes(buf, st.min)
	case "MAX":
		buf = appendBytes(buf, st.max)
	}
	return buf
}

// partialLen is the length of what appendPartial appends for fn.
func (st *aggState) partialLen(fn string) int {
	n := uvarintLen(uint64(st.count))
	switch fn {
	case "SUM", "AVG":
		n += 8
	case "MIN":
		n += bytesLen(st.min)
	case "MAX":
		n += bytesLen(st.max)
	}
	return n
}

// readPartial reads back what appendPartial wrote for fn from the front of b.
func readPartial(b []byte, fn string) (st aggState, rest []byte) {
	n, k := binary.Uvarint(b)
	st.count, b = int64(n), b[k:]
	switch fn {
	case "SUM", "AVG":
		st.sum, b = math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:]
	case "MIN":
		st.min, b = readBytes(b)
	case "MAX":
		st.max, b = readBytes(b)
	}
	return st, b
}

// appendBytes appends v to buf behind its length.
func appendBytes(buf, v []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(v))), v...)
}

// bytesLen is the length of what appendBytes appends for v.
func bytesLen(v []byte) int { return uvarintLen(uint64(len(v))) + len(v) }

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// readBytes reads what appendBytes wrote from the front of b, nil for an empty
// value (a NULL).
func readBytes(b []byte) (v, rest []byte) {
	n, k := binary.Uvarint(b)
	end := k + int(n)
	if n == 0 {
		return nil, b[end:]
	}
	return b[k:end:end], b[end:]
}

// appendResult appends fn's value over the folded cells to buf, encoded as a
// cell, and returns the grown buffer with the value's window in it (nil for
// NULL: no value folded). MIN and MAX are the stored cells themselves. A SUM
// with an exact int64 value is an integer, whatever its arguments were.
func (st *aggState) appendResult(buf []byte, fn string) (grown, val []byte) {
	at := len(buf)
	switch {
	case fn == "COUNT":
		buf = appendIntCell(buf, st.count)
	case st.count == 0:
		return buf, nil
	case fn == "MIN":
		return buf, st.min
	case fn == "MAX":
		return buf, st.max
	case fn == "AVG":
		buf = appendFloatCell(buf, st.sum/float64(st.count))
	case fn == "SUM" && st.sum == float64(int64(st.sum)):
		buf = appendIntCell(buf, int64(st.sum))
	case fn == "SUM":
		buf = appendFloatCell(buf, st.sum)
	}
	return buf, buf[at:len(buf):len(buf)]
}

// groups is the executor's one aggregation: GROUP BY + aggregate select items,
// run in two places. A single-table aggregate (Plan.fold) hands its scan a
// fold, so every region, or unit of a fanned-out scan, adds its own rows to a
// groups (regionFold) and ships the partials; the client merges them in scan
// order. Any other aggregate — a join's, a derived table's — adds the rows on
// the client. Either way finish makes the output rows.
//
// A group is its key's id in a keyTable, so groups come out in first-seen
// order: merged in scan order, the walks' partials keep it. Its output row —
// one slot per select item, then the GROUP BY values — takes the plain columns
// and GROUP BY values of the group's first row when the group opens and the
// aggregates' values at finish; the rows and the states lie in two flat
// arrays indexed by id, so a group costs no allocation of its own.
type groups struct {
	p      *Plan
	keys   *keyTable
	states []aggState // len(p.aggs) per group
	rows   [][]byte   // rowWidth per group
	taken  int        // rows and partial rows folded in here
	key    []byte     // scratch: a group key
	vals   [][]byte   // scratch: a stored row by slot (addRow)
}

func newGroups(p *Plan) *groups {
	return &groups{p: p, keys: newKeyTable(32)}
}

// rowWidth is the width of an output row.
func (g *groups) rowWidth() int { return len(g.p.aggs) + len(g.p.groupBy) }

// open returns the id of the group keyed key, opening it if it is new.
func (g *groups) open(key []byte) (gi int, added bool) {
	id, added := g.keys.insert(key)
	if added {
		g.states = append(g.states, make([]aggState, len(g.p.aggs))...)
		g.rows = append(g.rows, make([][]byte, g.rowWidth())...)
	}
	return int(id), added
}

// add folds in one input row, given by slot.
func (g *groups) add(vals [][]byte) {
	p, n := g.p, len(g.p.aggs)
	g.taken++
	g.key = appendKey(g.key[:0], vals, p.groupSlots)
	gi, added := g.open(g.key)
	if added {
		row := g.rows[gi*g.rowWidth():]
		for i, a := range p.aggs {
			if a.fn == "" {
				row[i] = vals[p.argSlots[i]]
			}
		}
		for j, s := range p.groupSlots {
			row[n+j] = vals[s]
		}
	}
	states := g.states[gi*n : gi*n+n]
	for i, a := range p.aggs {
		switch {
		case a.fn == "":
		case a.star:
			states[i].count++
		default:
			states[i].add(vals[p.argSlots[i]])
		}
	}
}

// addRow folds in one stored row of the plan's one table, whose columns refs
// names in slot order.
func (g *groups) addRow(refs []string, cells hbase.Cells) {
	if g.vals == nil {
		g.vals = make([][]byte, len(refs))
	}
	copyRefs(refs, cells, g.vals)
	g.add(g.vals)
}

// foldQualifier is the one cell of a partial row: a qualifier no column has,
// so a partial row is never taken for a stored one.
const foldQualifier = "\x00fold"

// isPartial reports whether a row a folding scan streamed is a partial group
// rather than a stored row (see hbase.ScanSpec.Fold).
func isPartial(r hbase.RowResult) bool {
	return len(r.Cells) == 1 && r.Cells[0].Qualifier == foldQualifier
}

// merge folds in one partial row (partials), which follows every row and
// partial row folded in so far in scan order.
func (g *groups) merge(r hbase.RowResult) {
	p, n := g.p, len(g.p.aggs)
	g.taken++
	g.key = append(g.key[:0], r.Key...)
	gi, added := g.open(g.key)
	row, states := g.rows[gi*g.rowWidth():], g.states[gi*n:gi*n+n]
	b := r.Cells[0].Value
	for i, a := range p.aggs {
		if a.fn == "" {
			var v []byte
			if v, b = readBytes(b); added {
				row[i] = v
			}
			continue
		}
		var o aggState
		o, b = readPartial(b, a.fn)
		states[i].merge(o)
	}
	for j := range p.groupBy {
		var v []byte
		if v, b = readBytes(b); added {
			row[n+j] = v
		}
	}
}

// reset drops every group, keeping the capacity: for a scan read again from
// the top, or a region fold's next walk. What was folded in stays counted: the
// work was done.
func (g *groups) reset() {
	g.keys.reset()
	g.states, g.rows = g.states[:0], g.rows[:0]
}

// finish returns the output rows, one per group in first-seen order, and
// charges AggRow for every row and partial row folded in here. An aggregate
// without GROUP BY has its one row even over no rows, as SQL has it: COUNT is
// 0, every other aggregate and plain column NULL.
func (g *groups) finish(ctx *sim.Ctx) []tuple {
	ctx.Charge(sim.Micros(int64(g.taken) * int64(g.p.eng.costs.AggRow)))
	if g.keys.len() == 0 && len(g.p.groupBy) == 0 {
		g.open(nil)
	}
	n, w := len(g.p.aggs), g.rowWidth()
	out := make([]tuple, g.keys.len())
	buf := make([]byte, 0, 9*n*len(out)) // a computed value is a 9-byte number
	for gi := range out {
		row := g.rows[gi*w : gi*w+w : gi*w+w]
		for i, a := range g.p.aggs {
			if a.fn != "" {
				buf, row[i] = g.states[gi*n+i].appendResult(buf, a.fn)
			}
		}
		out[gi] = tuple{vals: row}
	}
	return out
}

// regionFold is a single-table aggregate's share on the regions (Plan.fold):
// the hbase.Folder its scan hands one region, or unit, after another. It adds
// the rows a walk reads and answers with their partial groups — or, when the
// scan checks for dirty view rows and meets one, with a dirty row of its own,
// which sends the scan into the restart loop (query.read) as the marked row
// would — and then starts over for the next walk.
//
// The walks of one scan run one after another, and the answer of one is
// merged (groups.merge) before the next begins, so what merge does not keep
// of an answer — its rows, its pairs, its groups — is reused; the bytes
// behind its values, which merge keeps windows into, are not.
type regionFold struct {
	*groups
	refs         []string
	dirtyChecked bool
	dirty        bool
	out          []hbase.RowResult
	pairs        []hbase.Pair
}

// newRegionFold is the fold of the query's scan (hbase.ScanSpec.Fold): one
// Folder per scan.
func (q *query) newRegionFold() hbase.Folder {
	b := q.bindings[0]
	return &regionFold{groups: newGroups(q.Plan), refs: b.refs, dirtyChecked: q.dirtyChecked(b)}
}

func (f *regionFold) Add(r hbase.RowResult) {
	switch {
	case f.dirty:
	case f.dirtyChecked && IsDirty(r):
		f.dirty = true
	default:
		f.addRow(f.refs, r.Cells)
	}
}

func (f *regionFold) Rows() []hbase.RowResult {
	defer f.reset()
	if f.dirty {
		f.dirty = false
		return []hbase.RowResult{{Cells: hbase.Cells{{Qualifier: DirtyQualifier, Value: []byte{'1'}}}}}
	}
	return f.partials()
}

// partials returns the groups as the rows a walk ships: one per group, keyed
// by its GROUP BY key, whose one cell holds, per select item, a plain
// column's value or what its aggregate's state holds (appendPartial), then
// the GROUP BY values.
func (f *regionFold) partials() []hbase.RowResult {
	g := f.groups
	p, n, w, groups := g.p, len(g.p.aggs), g.rowWidth(), g.keys.len()
	keys := string(g.keys.arena)
	f.out = slices.Grow(f.out[:0], groups)[:groups]
	f.pairs = slices.Grow(f.pairs[:0], groups)[:groups]
	size := 0
	for gi := range groups {
		row := g.rows[gi*w : gi*w+w]
		for i, a := range p.aggs {
			if a.fn == "" {
				size += bytesLen(row[i])
			} else {
				size += g.states[gi*n+i].partialLen(a.fn)
			}
		}
		for _, v := range row[n:] {
			size += bytesLen(v)
		}
	}
	buf := make([]byte, 0, size)
	start := 0
	for gi := range f.out {
		at := len(buf)
		row := g.rows[gi*w : gi*w+w]
		for i, a := range p.aggs {
			if a.fn == "" {
				buf = appendBytes(buf, row[i])
			} else {
				buf = g.states[gi*n+i].appendPartial(buf, a.fn)
			}
		}
		for _, v := range row[n:] {
			buf = appendBytes(buf, v)
		}
		end := int(g.keys.ends[gi])
		f.pairs[gi] = hbase.Pair{Qualifier: foldQualifier, Value: buf[at:len(buf):len(buf)]}
		f.out[gi] = hbase.RowResult{Key: keys[start:end], Cells: f.pairs[gi : gi+1 : gi+1]}
		start = end
	}
	return f.out
}
