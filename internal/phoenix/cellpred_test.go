package phoenix

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sqlparser"
)

var allOps = []sqlparser.CompareOp{
	sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe,
}

// evalLocal is the reference the compiled predicates are held to: decode the
// whole row, then compare decoded values. A NULL never satisfies a comparison
// against a constant; two columns compare under schema.CompareValues, NULLs
// included.
func evalLocal(p localPred, r hbase.RowResult) bool {
	row := CellsToRow(r)
	l := row[p.col]
	if p.colVsCol {
		return compareOK(schema.CompareValues(l, row[p.rcol]), p.op)
	}
	return l != nil && compareOK(schema.CompareValues(l, p.value), p.op)
}

// predRow builds a stored row from qualifier → value pairs; a nil value
// stores an empty cell (a NULL that is present), a missing qualifier an
// absent one.
func predRow(cols map[string]schema.Value) hbase.RowResult {
	row := schema.Row{}
	var empty []string
	for q, v := range cols {
		if v == nil {
			empty = append(empty, q)
			continue
		}
		row[q] = v
	}
	var pairs []hbase.Pair
	for _, c := range RowToCells(row) {
		pairs = append(pairs, hbase.Pair{Qualifier: c.Qualifier, Value: c.Value})
	}
	for _, q := range empty {
		pairs = append(pairs, hbase.Pair{Qualifier: q})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Qualifier < pairs[j].Qualifier })
	return hbase.RowResult{Key: "k", Cells: pairs}
}

// TestCellPredMatchesEvalLocal is the differential test of the compiled
// pushdown filter: for every comparison operator, every kind a cell can hold
// (int, float, string, present-but-NULL, absent, marker column) on either
// side, and both predicate shapes, the predicate over raw cells must agree
// with evalLocal over the decoded row.
func TestCellPredMatchesEvalLocal(t *testing.T) {
	cellKinds := map[string]schema.Value{
		"int":      int64(5),
		"negint":   int64(-3),
		"float":    5.0,
		"fraction": 5.5,
		"string":   "n5",
		"empty":    "",
		"null":     nil,      // present cell, empty value
		"_marker":  int64(5), // marker qualifier: not a column
		"bigint":   int64(1<<53 + 1),
		"nan":      math.NaN(),
	}
	row := predRow(cellKinds)
	cols := []string{"absent"}
	for q := range cellKinds {
		cols = append(cols, q)
	}
	consts := []schema.Value{
		nil, int64(5), int(5), 5.0, 5.5, int64(-3), "n5", "", "5", true, int64(1 << 53), math.NaN(), math.Inf(1),
	}

	check := func(p localPred) {
		t.Helper()
		got := scanFilter([]localPred{p})(row)
		if want := evalLocal(p, row); got != want {
			t.Errorf("%+v: compiled %v, evalLocal %v", p, got, want)
		}
	}
	for _, op := range allOps {
		for _, l := range cols {
			for _, v := range consts {
				check(localPred{col: l, op: op, value: v})
			}
			for _, r := range cols {
				check(localPred{col: l, op: op, rcol: r, colVsCol: true})
			}
		}
	}
}

// TestScanFilterConjunction: a filter holds only when every predicate does,
// and no predicates means no filter at all.
func TestScanFilterConjunction(t *testing.T) {
	if scanFilter(nil) != nil {
		t.Fatal("scanFilter(nil) must be nil so the scan ships no filter")
	}
	row := predRow(map[string]schema.Value{"a": int64(1), "b": "x"})
	yes := localPred{col: "a", op: sqlparser.OpEq, value: int64(1)}
	no := localPred{col: "b", op: sqlparser.OpEq, value: "y"}
	if !scanFilter([]localPred{yes})(row) || scanFilter([]localPred{yes, no})(row) || scanFilter([]localPred{no, yes})(row) {
		t.Fatal("scanFilter is not the conjunction of its predicates")
	}
}

// fuzzValue turns three fuzz inputs into a cell value: kind picks the type
// (or NULL / absent), the rest the payload.
func fuzzValue(kind uint8, n int64, s string) (v schema.Value, present bool) {
	switch kind % 5 {
	case 0:
		return n, true
	case 1:
		return math.Float64frombits(uint64(n)), true
	case 2:
		return s, true
	case 3:
		return nil, true // present, empty value
	default:
		return nil, false // absent
	}
}

// FuzzCellPred fuzzes the compiled predicates against evalLocal: arbitrary
// int, float (any bit pattern, NaNs and infinities included) and string
// payloads in the cells and the constant, every operator, both shapes, and a
// left column that may be a marker qualifier.
func FuzzCellPred(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), int64(5), int64(5), "n5", "n5", false, false)
	f.Add(uint8(1), uint8(2), uint8(0), uint8(2), int64(5), int64(0), "a\x00b", "a", true, false)
	f.Add(uint8(4), uint8(1), uint8(1), uint8(1), int64(math.MaxInt64), int64(math.MinInt64), "", "z", false, true)
	f.Add(uint8(3), uint8(3), uint8(4), uint8(3), int64(-1), int64(1), "x", "", true, true)
	f.Fuzz(func(t *testing.T, opIdx, lKind, rKind, cKind uint8, ln, rn int64, ls, rs string, colVsCol, marker bool) {
		lcol, rcol := "l", "r"
		if marker {
			lcol = "_l"
		}
		cols := map[string]schema.Value{}
		if v, ok := fuzzValue(lKind, ln, ls); ok {
			cols[lcol] = v
		}
		if v, ok := fuzzValue(rKind, rn, rs); ok {
			cols[rcol] = v
		}
		row := predRow(cols)
		p := localPred{col: lcol, op: allOps[int(opIdx)%len(allOps)]}
		if colVsCol {
			p.rcol, p.colVsCol = rcol, true
		} else {
			p.value, _ = fuzzValue(cKind, rn, rs)
		}
		got := scanFilter([]localPred{p})(row)
		if want := evalLocal(p, row); got != want {
			t.Fatalf("%+v over %s: compiled %v, evalLocal %v", p, fmt.Sprint(CellsToRow(row)), got, want)
		}
	})
}
