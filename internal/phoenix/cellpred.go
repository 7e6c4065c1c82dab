package phoenix

import (
	"bytes"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sqlparser"
)

// rawVal is a cell or constant classified for comparison without boxing:
// NULL (CellNull), a number (CellFloat — int64 and float64 alike compare as
// float64, exactly as schema.CompareValues does) or string bytes.
type rawVal struct {
	kind CellKind
	num  float64
	str  []byte
}

func rawOfCell(b []byte) rawVal {
	switch RawCellKind(b) {
	case CellInt:
		return rawVal{kind: CellFloat, num: float64(RawCellInt(b))}
	case CellFloat:
		return rawVal{kind: CellFloat, num: RawCellFloat(b)}
	case CellString:
		return rawVal{kind: CellString, str: RawCellBytes(b)}
	default:
		return rawVal{}
	}
}

// rawOfArg classifies a constant: a string's bytes are left in text, where
// cellPred.compare reads them without a copy.
func rawOfArg(a schema.Arg) (raw rawVal, text string) {
	switch a.Kind() {
	case schema.ArgInt:
		return rawVal{kind: CellFloat, num: float64(a.Int())}, ""
	case schema.ArgFloat:
		return rawVal{kind: CellFloat, num: a.Float()}, ""
	case schema.ArgString:
		return rawVal{kind: CellString}, a.Str()
	default:
		return rawVal{}, ""
	}
}

// compareRaw orders two classified values as schema.CompareValues orders
// their decoded forms: NULL < numbers < strings, numbers numerically, strings
// bytewise.
func compareRaw(a, b rawVal) int {
	if a.kind != b.kind {
		// CellNull (0) < CellFloat ('f') < CellString ('s').
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case CellFloat:
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		}
		return 0
	case CellString:
		return bytes.Compare(a.str, b.str)
	default:
		return 0
	}
}

// compareCells is schema.CompareValues over two encoded values.
func compareCells(a, b []byte) int { return compareRaw(rawOfCell(a), rawOfCell(b)) }

// cellOf returns a column's encoded value in a stored row, nil when the cell
// is absent. Marker qualifiers (leading underscore) are not columns and read
// as absent, as CellsToRow skips them.
func cellOf(cells hbase.Cells, qual string) []byte {
	if len(qual) > 0 && qual[0] == '_' {
		return nil
	}
	return cells.Get(qual)
}

// cellPred is a localPred compiled against encoded values: the constant is
// classified once per scan, the cells are compared in place.
type cellPred struct {
	col, rcol string
	colVsCol  bool
	op        sqlparser.CompareOp
	value     rawVal
	text      string // a string constant's bytes (see rawOfArg)
}

func compilePred(p localPred) cellPred {
	c := cellPred{col: p.col, rcol: p.rcol, colVsCol: p.colVsCol, op: p.op}
	c.value, c.text = rawOfArg(p.value)
	return c
}

// holds evaluates the predicate: l is the left column's encoded value, r the
// right column's (ignored for a constant comparison). A NULL never satisfies
// a comparison against a constant; two columns compare under
// schema.CompareValues, NULLs included.
func (p *cellPred) holds(l, r []byte) bool {
	lv := rawOfCell(l)
	if p.colVsCol {
		return compareOK(compareRaw(lv, rawOfCell(r)), p.op)
	}
	return lv.kind != CellNull && compareOK(p.compare(lv), p.op)
}

// compare orders lv against the constant as compareRaw orders two values.
func (p *cellPred) compare(lv rawVal) int {
	if lv.kind != CellString || p.value.kind != CellString {
		return compareRaw(lv, p.value)
	}
	switch {
	case string(lv.str) < p.text: // compared in place: no copy of either
		return -1
	case string(lv.str) > p.text:
		return 1
	}
	return 0
}

// match is holds over a stored row.
func (p *cellPred) match(cells hbase.Cells) bool {
	var r []byte
	if p.colVsCol {
		r = cellOf(cells, p.rcol)
	}
	return p.holds(cellOf(cells, p.col), r)
}

// predFilter is one scan's pushed-down filter: the local predicates its
// access plan left, compiled against encoded values. It lives in the execution
// block beside the scan that carries it (scanNode.filter; an INL join's
// probes share their joinNode.innerScan's) and reaches the store as a
// pointer to itself, so a scan's filter allocates
// nothing; every execution compiles its own, since the constants are that
// execution's parameters. It is a pure predicate over the encoded cells — it
// decodes nothing, allocates nothing, and keeps no reference to r.Cells, which
// is only valid during the call (the store and a transaction's
// read-your-writes view both evaluate it over pooled rows). A scan holds it
// from its open to its end (hbase.ScanSpec.Filter), and the block lives past
// every scan it opens, so it is compiled again only for the next scan.
type predFilter struct {
	preds []cellPred
	few   [2]cellPred // backs preds for up to two
}

// compile readies f for local and returns it as a scan's filter, nil when
// there are no predicates: a scan with no filter ships every visible row
// without a per-row call. The predicates go into the list f holds — the one
// the block's last execution left its scan (query.recycle) — when it has
// room, else into few or a new list.
func (f *predFilter) compile(local []localPred) hbase.RowFilter {
	switch {
	case cap(f.preds) >= len(local):
		f.preds = f.preds[:0]
	case len(local) <= len(f.few):
		f.preds = f.few[:0]
	default:
		f.preds = make([]cellPred, 0, len(local))
	}
	for _, p := range local {
		f.preds = append(f.preds, compilePred(p))
	}
	if len(f.preds) == 0 {
		return nil
	}
	return f
}

// Keep reports whether a stored row holds every predicate.
func (f *predFilter) Keep(r hbase.RowResult) bool {
	for i := range f.preds {
		if !f.preds[i].match(r.Cells) {
			return false
		}
	}
	return true
}
