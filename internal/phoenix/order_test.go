package phoenix

import (
	"fmt"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// sortCharge is the SortRow the order fixture runs with: one simulated second
// per row and comparison level, so a request's elapsed time says whether
// project sorted (seconds) or the scan delivered the order (milliseconds).
const sortCharge = sim.Micros(1_000_000)

// orderDB is the fixture of the order-delivery tests: T(a, b, c, d, e) keyed
// (a, b) with covered indexes on c (a string with duplicates and NULLs) and d
// (a float with NULLs), a small table U to join with, and a view W keyed k
// for the dirty-check shape. T spans several regions so delivered order
// crosses region boundaries in both directions.
func orderDB(t testing.TB) *Engine {
	t.Helper()
	costs := sim.DefaultCosts()
	costs.SortRow = sortCharge
	hc := hbase.NewHCluster(costs, nil)
	cat := NewCatalog(hc)
	tbl := &schema.Relation{
		Name: "T",
		Columns: []schema.Column{
			{Name: "a", Type: schema.TInt}, {Name: "b", Type: schema.TInt}, {Name: "c", Type: schema.TString},
			{Name: "d", Type: schema.TFloat}, {Name: "e", Type: schema.TInt},
		},
		PK: []string{"a", "b"},
	}
	u := &schema.Relation{Name: "U", Columns: []schema.Column{{Name: "k", Type: schema.TInt}, {Name: "v", Type: schema.TString}}, PK: []string{"k"}}
	small := hbase.TableSpec{SplitThreshold: 25}
	for _, r := range []*schema.Relation{tbl, u} {
		if _, err := cat.RegisterRelation(r, small); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.RegisterView("W", u.Columns, u.PK, []string{"U"}, small); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []IndexInfo{{Name: "IX_T_c", On: []string{"c"}}, {Name: "IX_T_d", On: []string{"d"}}} {
		if err := cat.RegisterIndex("T", idx, small); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(cat)
	ctx := sim.NewCtx()
	rng := sim.NewRNG(5)
	tt, _ := cat.Table("T")
	for a := int64(1); a <= 12; a++ {
		for b := int64(1); b <= 8; b++ {
			row := schema.Row{"a": a, "b": b, "e": int64(rng.IntRange(0, 40))}
			if n := rng.IntRange(0, 6); n > 0 {
				row["c"] = fmt.Sprintf("c%d", n)
			}
			if n := rng.IntRange(0, 9); n > 1 {
				row["d"] = float64(n) - 4.5
			}
			if err := eng.PutRow(ctx, tt, row, WriteOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range []string{"U", "W"} {
		info, _ := cat.Table(name)
		for k := int64(1); k <= 12; k++ {
			if err := eng.PutRow(ctx, info, schema.Row{"k": k, "v": fmt.Sprint("v", k%5)}, WriteOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range []string{"T", "IX_T_c", "IX_T_d"} {
		if err := hc.FlushTable(name); err != nil { // a flush is where a table splits
			t.Fatal(err)
		}
		if hc.RegionCount(name) < 2 {
			t.Fatalf("%s has %d region(s); the fixture is meant to split", name, hc.RegionCount(name))
		}
	}
	return eng
}

// TestOrderDelivery is the table of statement shapes that must and must not
// take their order from the key: which access path is chosen, whether it
// runs reversed, whether the statement streams (so LIMIT reaches the
// scanner), and — whichever way — that the rows come back in ORDER BY order
// and are the rows the unordered statement returns (the smallest ones, under
// a LIMIT).
func TestOrderDelivery(t *testing.T) {
	e := orderDB(t)
	for _, tc := range []struct {
		name, sql string
		dirty     bool
		table     string // store table read
		ordered   bool   // the sort is elided
		reversed  bool
		streams   bool
	}{
		{name: "full key asc", sql: `SELECT a, b FROM T ORDER BY a, b`, table: "T", ordered: true, streams: true},
		{name: "full key desc", sql: `SELECT a, b, e FROM T ORDER BY a DESC, b DESC`, table: "T", ordered: true, reversed: true, streams: true},
		{name: "key prefix", sql: `SELECT a, b FROM T ORDER BY a`, table: "T", ordered: true, streams: true},
		{name: "key prefix desc limit", sql: `SELECT a, b FROM T ORDER BY a DESC LIMIT 5`, table: "T", ordered: true, reversed: true, streams: true},
		{name: "bound prefix, ordered suffix", sql: `SELECT a, b FROM T WHERE a = 3 ORDER BY b DESC`, table: "T", ordered: true, reversed: true, streams: true},
		{name: "bound column named first", sql: `SELECT a, b FROM T WHERE a = 3 ORDER BY a DESC, b`, table: "T", ordered: true, streams: true},
		{name: "bound index prefix, key suffix", sql: `SELECT a, b, c FROM T WHERE c = 'c2' ORDER BY a, b LIMIT 4`, table: "IX_T_c", ordered: true, streams: true},
		{name: "index order", sql: `SELECT c, a, b FROM T ORDER BY c, a`, table: "IX_T_c", ordered: true, streams: true},
		{name: "index order, filter, limit", sql: `SELECT c, a, e FROM T WHERE e > 10 ORDER BY c DESC LIMIT 9`, table: "IX_T_c", ordered: true, reversed: true, streams: true},
		{name: "NULLs first", sql: `SELECT d, a, b FROM T ORDER BY d`, table: "IX_T_d", ordered: true, streams: true},
		{name: "NULLs last", sql: `SELECT d, a, b FROM T ORDER BY d DESC, a DESC LIMIT 70`, table: "IX_T_d", ordered: true, reversed: true, streams: true},
		{name: "alias of a key column", sql: `SELECT a AS x, b FROM T ORDER BY x DESC`, table: "T", ordered: true, reversed: true, streams: true},
		{name: "alias shadowing a key column", sql: `SELECT e AS a, b FROM T ORDER BY a`, table: "T"},
		{name: "mixed directions", sql: `SELECT a, b FROM T ORDER BY a, b DESC`, table: "T"},
		{name: "non-key column", sql: `SELECT a, b, e FROM T ORDER BY e`, table: "T"},
		{name: "key column out of place", sql: `SELECT a, b FROM T ORDER BY b`, table: "T"},
		{name: "longer equality prefix beats order", sql: `SELECT a, b, c FROM T WHERE a = 3 ORDER BY c`, table: "T"},
		{name: "aggregate", sql: `SELECT a, COUNT(*) AS n FROM T GROUP BY a ORDER BY a`, table: "T"},
		{name: "join", sql: `SELECT t.a, t.b, u.v FROM T t, U u WHERE t.a = u.k ORDER BY t.a, t.b`, table: "T"},
		{name: "derived table", sql: `SELECT s.a, s.b FROM (SELECT a, b FROM T) s ORDER BY s.a, s.b`},
		{name: "dirty-checked view", sql: `SELECT k, v FROM W ORDER BY k DESC`, dirty: true, table: "W", ordered: true, reversed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sel := sqlparser.MustParse(tc.sql).(*sqlparser.SelectStmt)
			opts := QueryOpts{DirtyCheck: tc.dirty}
			plan, err := e.Compile(sel)
			if err != nil {
				t.Fatal(err)
			}
			q, err := plan.bind(sim.NewCtx(), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if b := q.bindings[0]; len(q.bindings) == 1 && b.info != nil {
				access := q.fullPlan(b)
				if access.table(b) != tc.table || access.ordered != tc.ordered || access.reversed != tc.reversed {
					t.Fatalf("plan reads %s ordered=%v reversed=%v, want %s %v %v",
						access.table(b), access.ordered, access.reversed, tc.table, tc.ordered, tc.reversed)
				}
			}
			root := q.tree(false)
			if l, ok := root.(*limitNode); ok {
				root = l.in
			}
			if s, ok := root.(*scanNode); (ok && s.streams()) != tc.streams {
				t.Fatalf("streams = %v, want %v (tree root %T)", ok && s.streams(), tc.streams, root)
			}

			ctx := sim.NewCtx()
			got, err := e.QueryOpts(ctx, sel, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if sorted := ctx.Elapsed() >= sortCharge; sorted == tc.ordered {
				t.Fatalf("sort charged = %v (elapsed %d µs) with the order delivered = %v", sorted, ctx.Elapsed(), tc.ordered)
			}
			if tc.streams && sel.Limit > 0 && len(sel.Where) == 0 {
				if n := ctx.Snapshot().RowsScanned; n != int64(sel.Limit) {
					t.Fatalf("scanned %d rows for LIMIT %d", n, sel.Limit)
				}
			}
			plain := *sel
			plain.OrderBy, plain.Limit = nil, 0
			all, err := e.QueryOpts(sim.NewCtx(), &plain, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireOrderedSubset(t, sel, got, all)
		})
	}
}

// TestDeliversOrder pins the key-order rule itself: the ORDER BY columns must
// be a prefix of the key once equality-bound key columns are skipped —
// wherever in the key they sit.
func TestDeliversOrder(t *testing.T) {
	key := []string{"x", "y", "a", "b"}
	for _, tc := range []struct {
		eq    []string
		order []string
		want  bool
	}{
		{nil, []string{"x"}, true},
		{nil, []string{"x", "y", "a", "b"}, true},
		{nil, []string{"y"}, false},
		{nil, []string{"x", "a"}, false},
		{[]string{"x"}, []string{"y", "a"}, true},
		{[]string{"y"}, []string{"x", "a"}, true},
		{[]string{"x", "a"}, []string{"y", "b"}, true},
		{[]string{"y"}, []string{"x", "b"}, false},
		{[]string{"x", "y", "a", "b"}, nil, true},
		{nil, []string{"x", "y", "a", "b", "z"}, false},
		{nil, []string{"x", "x"}, false},
	} {
		eq := map[string]bool{}
		for _, c := range tc.eq {
			eq[c] = true
		}
		if got := deliversOrder(key, eq, tc.order); got != tc.want {
			t.Errorf("key %v with %v bound: ORDER BY %v delivered = %v, want %v", key, tc.eq, tc.order, got, tc.want)
		}
	}
}

// requireOrderedSubset checks got against all, the rows of the same statement
// without ORDER BY and LIMIT: got is sorted by the ORDER BY keys, holds
// min(LIMIT, len(all)) rows of all, each at most as often as all does, and no
// row left out sorts strictly before the last row kept.
func requireOrderedSubset(t *testing.T, sel *sqlparser.SelectStmt, got, all *ResultSet) {
	t.Helper()
	cmp := func(x, y schema.Row) int {
		for _, o := range sel.OrderBy {
			// Every ORDER BY key of the table's statements is an output
			// column, named by its alias or its column name.
			if c := schema.CompareValues(x[o.Col.Column], y[o.Col.Column]); c != 0 {
				if o.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	}
	want := len(all.Rows)
	if sel.Limit > 0 && sel.Limit < want {
		want = sel.Limit
	}
	if len(got.Rows) != want || want == 0 {
		t.Fatalf("%d rows, want %d of %d (and more than none)", len(got.Rows), want, len(all.Rows))
	}
	for i := 1; i < len(got.Rows); i++ {
		if cmp(got.Rows[i-1], got.Rows[i]) > 0 {
			t.Fatalf("rows %d and %d out of order: %v then %v", i-1, i, got.Rows[i-1], got.Rows[i])
		}
	}
	left := map[string]int{}
	for _, r := range all.Rows {
		left[fmt.Sprint(r)]++
	}
	for _, r := range got.Rows {
		if left[fmt.Sprint(r)]--; left[fmt.Sprint(r)] < 0 {
			t.Fatalf("row %v is not a row of the unordered statement", r)
		}
	}
	last := got.Rows[len(got.Rows)-1]
	for _, r := range all.Rows {
		if left[fmt.Sprint(r)] > 0 && cmp(r, last) < 0 {
			t.Fatalf("row %v was cut by the LIMIT but sorts before the last row kept, %v", r, last)
		}
	}
}

// TestTopNScansLimitRows is the cost pin of the Q10/Q11 subquery shape
// (newest-N by an indexed, non-unique column), next to
// TestCursorLimitPushdown: the top-N block reads exactly N index rows,
// backwards, and charges no sort — as a statement and as a derived table.
func TestTopNScansLimitRows(t *testing.T) {
	e := orderDB(t)
	const limit = 40
	sub := fmt.Sprintf(`SELECT d, a, b FROM T ORDER BY d DESC LIMIT %d`, limit)
	for name, sql := range map[string]string{
		"statement": sub,
		"derived":   `SELECT s.d, s.a, s.b FROM (` + sub + `) s WHERE s.a > 0`,
	} {
		ctx := sim.NewCtx()
		rs, err := e.Query(ctx, sqlparser.MustParse(sql).(*sqlparser.SelectStmt), nil)
		if err != nil {
			t.Fatal(err)
		}
		st := ctx.Snapshot()
		if len(rs.Rows) != limit || st.RowsScanned != limit {
			t.Fatalf("%s: %d rows from %d scanned, want %d from %d", name, len(rs.Rows), st.RowsScanned, limit, limit)
		}
		if ctx.Elapsed() >= sortCharge {
			t.Fatalf("%s: elapsed %d µs includes a sort charge", name, ctx.Elapsed())
		}
		// Largest d first; rows of one d by (a, b) descending — the index's
		// key order (d, a, b) read backwards.
		for i := 1; i < len(rs.Rows); i++ {
			p, r := rs.Rows[i-1], rs.Rows[i]
			for _, c := range []string{"d", "a", "b"} {
				if cmp := schema.CompareValues(p[c], r[c]); cmp != 0 {
					if cmp < 0 {
						t.Fatalf("%s: row %d %v follows %v", name, i, r, p)
					}
					break
				}
			}
		}
	}
}
