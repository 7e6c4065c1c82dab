package phoenix

import (
	"bytes"
	"fmt"

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

func rawOfValue(v schema.Value) rawVal {
	switch x := v.(type) {
	case nil:
		return rawVal{}
	case int64:
		return rawVal{kind: CellFloat, num: float64(x)}
	case int:
		return rawVal{kind: CellFloat, num: float64(x)}
	case float64:
		return rawVal{kind: CellFloat, num: x}
	case string:
		return rawVal{kind: CellString, str: []byte(x)}
	default:
		// CompareValues orders any other type by its printed form.
		return rawVal{kind: CellString, str: []byte(fmt.Sprint(x))}
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
// classified once per statement, the cells are compared in place.
type cellPred struct {
	col, rcol string
	colVsCol  bool
	op        sqlparser.CompareOp
	value     rawVal
}

func compilePreds(local []localPred) []cellPred {
	preds := make([]cellPred, len(local))
	for i, p := range local {
		preds[i] = cellPred{col: p.col, rcol: p.rcol, colVsCol: p.colVsCol, op: p.op, value: rawOfValue(p.value)}
	}
	return preds
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
	return lv.kind != CellNull && compareOK(compareRaw(lv, p.value), p.op)
}

// match is holds over a stored row.
func (p *cellPred) match(cells hbase.Cells) bool {
	var r []byte
	if p.colVsCol {
		r = cellOf(cells, p.rcol)
	}
	return p.holds(cellOf(cells, p.col), r)
}

// scanFilter compiles a binding's local predicates into the pushdown filter
// of its scans, nil when there are none: a scan with no filter ships every
// visible row without a per-row call. The filter is a pure predicate over the
// encoded cells — it decodes nothing, allocates nothing, and keeps no
// reference to r.Cells, which is only valid during the call (the store and a
// transaction's read-your-writes view both evaluate it over pooled rows).
func scanFilter(local []localPred) func(hbase.RowResult) bool {
	if len(local) == 0 {
		return nil
	}
	preds := compilePreds(local)
	return func(r hbase.RowResult) bool {
		for i := range preds {
			if !preds[i].match(r.Cells) {
				return false
			}
		}
		return true
	}
}
