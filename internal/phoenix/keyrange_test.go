package phoenix

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

func mustExec(t *testing.T, e *Engine, opts WriteOpts, sql string, params ...schema.Value) {
	t.Helper()
	if err := e.Exec(sim.NewCtx(), sqlparser.MustParse(sql), params, opts); err != nil {
		t.Fatalf("%s %v: %v", sql, params, err)
	}
}

// TestNumericKeyConstants: a numeric constant finds the rows it equals whether
// it arrives as the key column's kind or as the other one — a DOUBLE binding
// or a literal 5.0 against an INT key, an integer against a FLOAT key — as a
// point, a prefix, an index prefix, a range and a join probe, on reads and on
// writes; and what a write stores under a key is what an integer reaches. At
// the parent each float-for-int case below finds nothing: the constant was
// keyed under the float tag.
func TestNumericKeyConstants(t *testing.T) {
	e, _ := testDB(t)
	price := &schema.Relation{
		Name:    "Price",
		Columns: []schema.Column{{Name: "p", Type: schema.TFloat}, {Name: "label", Type: schema.TString}},
		PK:      []string{"p"},
	}
	if _, err := e.Catalog().RegisterRelation(price, hbase.TableSpec{}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, WriteOpts{}, `INSERT INTO Price (p, label) VALUES (?, ?)`, int64(10), "ten") // an integer into a FLOAT key
	mustExec(t, e, WriteOpts{}, `INSERT INTO Price (p, label) VALUES (2.5, 'two and a half')`)

	for _, tc := range []struct {
		sql    string
		params []schema.Value
		want   int
	}{
		{`SELECT c_id FROM Customer WHERE c_id = ?`, []schema.Value{int64(5)}, 1},
		{`SELECT c_id FROM Customer WHERE c_id = ?`, []schema.Value{float64(5)}, 1},
		{`SELECT c_id FROM Customer WHERE c_id = 5.0`, nil, 1},
		{`SELECT ol_id FROM Order_line WHERE ol_o_id = 3.0`, nil, 2},                  // key prefix
		{`SELECT ol_id FROM Order_line WHERE ol_o_id = 3.0 AND ol_id = 2.0`, nil, 1},  // composite point
		{`SELECT o_id FROM Orders WHERE o_c_id = ?`, []schema.Value{4.0}, 3},          // index prefix
		{`SELECT o_id FROM Orders WHERE o_c_id = 4.0 AND o_id > 10.0`, nil, 2},        // index prefix + range on the table key
		{`SELECT c_id FROM Customer WHERE c_id >= 5.0 AND c_id < 8.0`, nil, 3},        // range
		{`SELECT c_id FROM Customer WHERE c_id > 7.5`, nil, 3},                        // a fraction stays a filter
		{`SELECT c.c_id FROM Orders o, Customer c WHERE o.o_total = c.c_id`, nil, 10}, // FLOAT values probing an INT key
		{`SELECT label FROM Price WHERE p = ?`, []schema.Value{int64(10)}, 1},         // an integer against a FLOAT key
		{`SELECT label FROM Price WHERE p = 10`, nil, 1},
		{`SELECT label FROM Price WHERE p >= 2 AND p <= 10`, nil, 2},
		{`SELECT c_id FROM Customer WHERE c_id = 5.5`, nil, 0},               // no integer is 5.5
		{`SELECT c_id FROM Customer WHERE c_id = ?`, []schema.Value{"5"}, 0}, // nor a string
		{`SELECT c_id FROM Customer WHERE c_id = ?`, []schema.Value{math.Inf(1)}, 0},
		{`SELECT o_id FROM Orders WHERE o_c_id = 4.5`, nil, 0},
		{`SELECT c.c_id FROM Orders o, Customer c WHERE o.o_total = c.c_id AND o.o_id = 2.0`, nil, 1},
	} {
		ctx := sim.NewCtx()
		rs := runQuery(t, e, ctx, tc.sql, tc.params...)
		if len(rs.Rows) != tc.want {
			t.Errorf("%s %v: %d rows, want %d", tc.sql, tc.params, len(rs.Rows), tc.want)
		}
		if st := ctx.Snapshot(); tc.want == 0 && !strings.Contains(tc.sql, ",") && st.RPCs != 0 {
			t.Errorf("%s %v: %d RPCs for a constant no key can equal, want none", tc.sql, tc.params, st.RPCs)
		}
	}

	uname := func(id int64) schema.Value {
		t.Helper()
		rs := runQuery(t, e, sim.NewCtx(), `SELECT c_uname FROM Customer WHERE c_id = ?`, id)
		if len(rs.Rows) != 1 {
			return nil
		}
		return rs.Rows[0]["c_uname"]
	}
	mustExec(t, e, WriteOpts{}, `UPDATE Customer SET c_uname = 'x' WHERE c_id = 5.0`)
	mustExec(t, e, WriteOpts{}, `UPDATE Customer SET c_uname = ? WHERE c_id = ?`, "y", float64(4))
	if uname(5) != "x" || uname(4) != "y" {
		t.Errorf("UPDATE … WHERE c_id = <float> left c_uname %v and %v, want x and y", uname(5), uname(4))
	}
	if rs := runQuery(t, e, sim.NewCtx(), `SELECT c_id FROM Customer WHERE c_uname = 'x'`); len(rs.Rows) != 1 {
		t.Errorf("the index entry did not follow the update: %v", rs.Rows)
	}
	mustExec(t, e, WriteOpts{}, `UPDATE Customer SET c_uname = 'z' WHERE c_id = 5.5`) // matches no row, as in SQL
	mustExec(t, e, WriteOpts{}, `DELETE FROM Customer WHERE c_id = ?`, float64(6))
	if uname(5) != "x" || uname(6) != nil {
		t.Errorf("after UPDATE WHERE c_id = 5.5 and DELETE WHERE c_id = 6.0: c_uname %v, %v", uname(5), uname(6))
	}

	mustExec(t, e, WriteOpts{}, `INSERT INTO Customer (c_id, c_uname, c_bal) VALUES (777.0, 'floaty', 3)`)
	rs := runQuery(t, e, sim.NewCtx(), `SELECT * FROM Customer WHERE c_id = 777`)
	if len(rs.Rows) != 1 || rs.Rows[0]["c_id"] != int64(777) || rs.Rows[0]["c_bal"] != 3.0 {
		t.Errorf("INSERT of c_id 777.0, c_bal 3 reads back %v: want the row under the integer key, each value in its column's kind", rs.Rows)
	}
	if rs := runQuery(t, e, sim.NewCtx(), `SELECT c_id FROM Customer WHERE c_uname = 'floaty' AND c_id = 777`); len(rs.Rows) != 1 {
		t.Errorf("index entry of the row inserted as 777.0: %v", rs.Rows)
	}
	for _, bad := range []schema.Value{777.5, "778", math.NaN()} {
		err := e.Exec(sim.NewCtx(), sqlparser.MustParse(`INSERT INTO Customer (c_id, c_uname) VALUES (?, 'bad')`), []schema.Value{bad}, WriteOpts{})
		if err == nil {
			t.Errorf("INSERT of c_id %v into an INT column was accepted", bad)
		}
	}
}

// TestKeyRangeBoundsTheScan pins what the bounds are for: a range on the
// leading key column is where the scan starts and (within the chunk that
// crosses the stop row, until regions stop there themselves) ends, and the
// absorbed conjuncts are not filtered again; ORDER BY and LIMIT work inside
// the bounds in both directions; contradictory bounds cost nothing. Below an
// equality prefix the bounds still place the scan, but the equality stays in
// the filter and rejects its way to the region's end, as it does on every
// prefix scan today (ROADMAP item 2, the stop row in scanChunk).
func TestKeyRangeBoundsTheScan(t *testing.T) {
	e := rangeDB(t, 5000)
	all := func(lo, hi int64) (ids []schema.Value) {
		for i := lo; i < hi; i++ {
			ids = append(ids, i)
		}
		return ids
	}
	for _, tc := range []struct {
		sql        string
		want       []schema.Value
		maxScanned int64
		rpcs       int64
	}{
		{`SELECT id FROM T WHERE id >= 1200 AND id < 1300`, all(1200, 1300), 1000, 1},
		{`SELECT id FROM T WHERE id >= 1200 AND id < 2200`, all(1200, 2200), 2000, 2},
		{`SELECT id FROM T WHERE id > 4989`, all(4990, 5000), 10, 1},
		{`SELECT id FROM T WHERE id < 3 AND id <= 100 AND id >= 0`, all(0, 3), 1000, 1},
		{`SELECT id FROM T WHERE id >= 10 AND id < 10`, nil, 0, 0},
		{`SELECT id FROM T WHERE id > 20 AND id <= 20`, nil, 0, 0},
		{`SELECT id FROM T WHERE id >= 4000 ORDER BY id DESC LIMIT 3`, []schema.Value{int64(4999), int64(4998), int64(4997)}, 3, 1},
		{`SELECT id FROM T WHERE id < 100 ORDER BY id DESC LIMIT 2`, []schema.Value{int64(99), int64(98)}, 2, 1},
		{`SELECT id FROM T WHERE id >= 2500 ORDER BY id LIMIT 2`, all(2500, 2502), 2, 1},
		{`SELECT id FROM T WHERE g = 7 AND id >= 1000 AND id < 2000`, []schema.Value{int64(1007), int64(1107), int64(1207), int64(1307), int64(1407), int64(1507), int64(1607), int64(1707), int64(1807), int64(1907)}, 5000, 1},
	} {
		ctx := sim.NewCtx()
		rs := runQuery(t, e, ctx, tc.sql)
		var got []schema.Value
		for _, r := range rs.Rows {
			got = append(got, r["id"])
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: ids %v, want %v", tc.sql, got, tc.want)
		}
		if st := ctx.Snapshot(); st.RowsScanned > tc.maxScanned || st.RPCs != tc.rpcs {
			t.Errorf("%s: %d rows examined in %d RPCs, want at most %d in %d", tc.sql, st.RowsScanned, st.RPCs, tc.maxScanned, tc.rpcs)
		}
	}
}

// rangeDB is a table T(id INT PK, g INT, s STRING) of n rows — g = id % 100,
// covered index on g — for tests that count what a bounded scan examines.
func rangeDB(tb testing.TB, n int64) *Engine {
	tb.Helper()
	hc := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
	cat := NewCatalog(hc)
	rel := &schema.Relation{
		Name:    "T",
		Columns: []schema.Column{{Name: "id", Type: schema.TInt}, {Name: "g", Type: schema.TInt}, {Name: "s", Type: schema.TString}},
		PK:      []string{"id"},
	}
	if _, err := cat.RegisterRelation(rel, hbase.TableSpec{}); err != nil {
		tb.Fatal(err)
	}
	if err := cat.RegisterIndex("T", IndexInfo{Name: "IX_T_g", On: []string{"g"}}, hbase.TableSpec{}); err != nil {
		tb.Fatal(err)
	}
	e := NewEngine(cat)
	info, _ := cat.Table("T")
	for i := int64(0); i < n; i++ {
		if err := e.PutRow(sim.NewCtx(), info, schema.Row{"id": i, "g": i % 100, "s": fmt.Sprint("s", i)}, WriteOpts{}); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// fuzzBytes deals a fuzz input out byte by byte, zeros once it runs dry.
type fuzzBytes struct {
	b []byte
	i int
}

func (f *fuzzBytes) next() int {
	if f.i >= len(f.b) {
		return 0
	}
	f.i++
	return int(f.b[f.i-1])
}

// The values FuzzKeyRange draws key parts and constants from: few enough that
// rows and bounds collide, and holding what the key encoding has to get right —
// negative and large integers, infinities, fractions, strings with 0x00 and
// 0xFF in them and strings that prefix one another. Integers stay where
// float64 is exact (the filter compares numbers as float64, a key as int64),
// and NaN and -0 stay out: no bound is built from a NaN, and the key encoding
// orders -0 before 0 where a comparison holds them equal.
var (
	fuzzInts    = []schema.Value{int64(-1 << 40), int64(-3), int64(-1), int64(0), int64(1), int64(2), int64(3), int64(1 << 40)}
	fuzzFloats  = []schema.Value{math.Inf(-1), -2.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, math.Inf(1)}
	fuzzStrings = []schema.Value{"", "\x00", "a", "a\x00", "a\x00b", "a\xff", "ab", "b", "\xff"}
)

func fuzzDomain(t schema.ColType) []schema.Value {
	switch t {
	case schema.TInt:
		return fuzzInts
	case schema.TFloat:
		return fuzzFloats
	}
	return fuzzStrings
}

// fuzzKeyShapes are the primary keys FuzzKeyRange builds tables over; every
// table also has a nullable INT column n under a covered index, whose key is
// n ++ the primary key, and a payload column v.
var fuzzKeyShapes = [][]schema.ColType{
	{schema.TInt}, {schema.TFloat}, {schema.TString},
	{schema.TInt, schema.TString}, {schema.TString, schema.TInt}, {schema.TFloat, schema.TInt}, {schema.TString, schema.TString},
}

// holdsBoxed is the reference every pushed-down form of a conjunct is held to:
// the boxed comparison of the decoded value (evalLocal's, over a result row).
func holdsBoxed(row schema.Row, p localPred) bool {
	l := row[p.col]
	return l != nil && compareOK(schema.CompareValues(l, p.value), p.op)
}

// FuzzKeyRange holds the planner's key bounds to the filter they replace.
// Random tables (INT, FLOAT and STRING key columns, composite keys, a nullable
// indexed column, rows in store files and in the memstore, one region or
// several), random conjunct sets (one- and two-sided, on a last and on a
// non-last key column, below an equality prefix on the key or the index,
// duplicate and contradictory bounds, constants of the other numeric kind and
// of no kind the column holds): the rows a statement returns are the rows of a
// full scan that satisfy every conjunct under the boxed comparison — as a set
// without ORDER BY, and in key order, forwards and backwards, under a LIMIT.
// And a plan compiled once binds each constant set as a plan compiled for it
// does (see fuzzKinds).
func FuzzKeyRange(f *testing.F) {
	f.Add([]byte{0, 0, 8, 0, 1, 2, 3, 4, 5, 6, 7, 2, 0, 5, 2, 0, 2, 6, 0, 0})
	f.Add([]byte{3, 1, 12, 1, 2, 0, 3, 4, 1, 5, 6, 2, 7, 8, 3, 2, 3, 2, 0, 1, 4, 1, 3, 0, 2, 1, 2})
	f.Add([]byte{2, 0, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 3, 0, 3, 3, 0, 2, 4, 0, 5, 7, 1, 2, 3})
	f.Add([]byte{5, 1, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 4, 2, 5, 9, 2, 3, 1, 1, 2, 0, 0, 2, 2})
	f.Add([]byte{1, 0, 6, 0, 8, 1, 7, 2, 6, 2, 0, 4, 9, 0, 2, 13, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{b: data}
		keyTypes := fuzzKeyShapes[in.next()%len(fuzzKeyShapes)]
		rel := &schema.Relation{Name: "T"}
		for i, typ := range keyTypes {
			name := string(rune('a' + i))
			rel.Columns = append(rel.Columns, schema.Column{Name: name, Type: typ})
			rel.PK = append(rel.PK, name)
		}
		rel.Columns = append(rel.Columns, schema.Column{Name: "n", Type: schema.TInt}, schema.Column{Name: "v", Type: schema.TString})
		colType := map[string]schema.ColType{}
		for _, c := range rel.Columns {
			colType[c.Name] = c.Type
		}

		hc := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
		cat := NewCatalog(hc)
		spec := hbase.TableSpec{}
		if in.next()%2 == 1 {
			spec.SplitThreshold = 3 // scans cross regions, forwards and reversed
		}
		if _, err := cat.RegisterRelation(rel, spec); err != nil {
			t.Fatal(err)
		}
		if err := cat.RegisterIndex("T", IndexInfo{Name: "IX_T_n", On: []string{"n"}}, spec); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(cat)
		info, _ := cat.Table("T")
		keyOf := func(r schema.Row) string {
			var vals []schema.Value
			for _, k := range rel.PK {
				vals = append(vals, r[k])
			}
			return schema.EncodeKey(vals...)
		}
		nrows := in.next() % 16
		seen := map[string]bool{}
		for r := 0; r < nrows; r++ {
			row := schema.Row{"v": fmt.Sprint("row", r)}
			for i, typ := range keyTypes {
				dom := fuzzDomain(typ)
				row[rel.PK[i]] = dom[in.next()%len(dom)]
			}
			if n := in.next() % (len(fuzzInts) + 2); n < len(fuzzInts) {
				row["n"] = fuzzInts[n] // else NULL: a 0x01 part in the index key
			}
			if seen[keyOf(row)] {
				continue // PutRow over a stored key leaves the old n's index entry behind
			}
			seen[keyOf(row)] = true
			if err := e.PutRow(sim.NewCtx(), info, row, WriteOpts{}); err != nil {
				t.Fatal(err)
			}
			if r == nrows/2 { // the earlier rows in store files, the later in the memstore
				for _, tbl := range []string{"T", "IX_T_n"} {
					if err := hc.FlushTable(tbl); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		// Conjuncts: a column, an operator, a constant — of the column's own
		// values, of the other numeric kind, or of a kind it never holds.
		cols := append(slices.Clone(rel.PK), "n")
		var preds []localPred
		var where []string
		var params []schema.Value
		for i, n := 0, in.next()%5; i < n; i++ {
			col := cols[in.next()%len(cols)]
			dom := fuzzDomain(colType[col])
			switch pick := in.next(); {
			case pick%8 == 6 && colType[col] != schema.TString:
				dom = append(slices.Clone(fuzzInts), fuzzFloats...)
			case pick%8 == 7:
				dom = []schema.Value{"a", int64(1), 1.5, nil}
			}
			p := localPred{col: col, op: allOps[in.next()%len(allOps)], value: dom[in.next()%len(dom)]}
			preds = append(preds, p)
			where = append(where, fmt.Sprintf("%s %s ?", p.col, p.op))
			params = append(params, p.value)
		}
		sql := "FROM T"
		if len(where) > 0 {
			sql += " WHERE " + strings.Join(where, " AND ")
		}
		items := []string{"*", "*", strings.Join(rel.PK, ", "), "n", "v, n"}[in.next()%5]
		order, desc, limit := in.next()%3, false, 0
		if order > 0 {
			desc = order == 2
			var keys []string
			for _, k := range rel.PK {
				if desc {
					k += " DESC"
				}
				keys = append(keys, k)
			}
			limit = 1 + in.next()%6
			sql += fmt.Sprintf(" ORDER BY %s LIMIT %d", strings.Join(keys, ", "), limit)
		}

		// The reference: every row, in key order, that passes every conjunct boxed.
		var want []schema.Row
		for _, r := range runQuery(t, e, sim.NewCtx(), "SELECT * FROM T").Rows {
			ok := true
			for _, p := range preds {
				ok = ok && holdsBoxed(r, p)
			}
			if ok {
				want = append(want, r)
			}
		}
		slices.SortFunc(want, func(x, y schema.Row) int { return strings.Compare(keyOf(x), keyOf(y)) })
		if desc {
			slices.Reverse(want)
		}
		if limit > 0 && len(want) > limit {
			want = want[:limit]
		}

		// The statement once for its selected columns and once as SELECT *, whose
		// rows carry their keys: those are compared in order when the statement
		// orders them, as sets otherwise (the plan picks the scan order).
		got := runQuery(t, e, sim.NewCtx(), "SELECT "+items+" "+sql, params...).Rows
		full := runQuery(t, e, sim.NewCtx(), "SELECT * "+sql, params...).Rows
		if order == 0 {
			slices.SortFunc(full, func(x, y schema.Row) int { return strings.Compare(keyOf(x), keyOf(y)) })
		}
		if len(full) != len(want) || len(got) != len(want) {
			t.Fatalf("%s %v: %d rows (%d as SELECT *), reference %d\n got %v\nwant %v", sql, params, len(got), len(full), len(want), full, want)
		}
		project := func(rows []schema.Row) (out []string) {
			for _, r := range rows {
				cut := schema.Row{}
				for c := range colType {
					if items == "*" || strings.Contains(items, c) {
						cut[c] = r[c]
					}
				}
				out = append(out, fmt.Sprint(cut))
			}
			if order == 0 {
				slices.Sort(out)
			}
			return out
		}
		for i := range want {
			if fmt.Sprint(full[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("%s %v: row %d is %v, reference %v", sql, params, i, full[i], want[i])
			}
		}
		if g, w := project(got), project(want); !slices.Equal(g, w) {
			t.Fatalf("SELECT %s %s %v:\n got %v\nwant %v", items, sql, params, g, w)
		}

		// The prepared arm: the statement compiled once, then run with a
		// constant set of each kind the input draws — every conjunct's
		// constant of its column's own kind, of the other numeric kind, of a
		// kind the column cannot hold, NULL — returns the rows the statement
		// compiled per execution returns, in the same order, at the same
		// cost (rows examined included).
		stmt := "SELECT " + items + " " + sql
		plan, err := e.Compile(sqlparser.MustParse(stmt).(*sqlparser.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		for kind := range fuzzKinds {
			set := make([]schema.Value, len(preds))
			for i, p := range preds {
				dom := fuzzKinds[kind](colType[p.col])
				set[i] = dom[in.next()%len(dom)]
			}
			pctx, octx := sim.NewCtx(), sim.NewCtx()
			cur, err := plan.Open(pctx, set, QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			prepared, err := DrainCursor(pctx, cur)
			if err != nil {
				t.Fatal(err)
			}
			oneShot := runQuery(t, e, octx, stmt, set...)
			if g, w := fmt.Sprint(prepared.Rows), fmt.Sprint(oneShot.Rows); g != w {
				t.Fatalf("%s %v prepared:\n got %v\nwant %v", stmt, set, g, w)
			}
			if g, w := pctx.Snapshot(), octx.Snapshot(); g != w {
				t.Fatalf("%s %v: prepared charged %+v, compiled per execution %+v", stmt, set, g, w)
			}
		}
	})
}

// fuzzKinds are the constant kinds the prepared arm of FuzzKeyRange binds
// into a statement compiled once: given a column's type, the values of its own
// kind, of the other numeric kind, of kinds it cannot hold, and NULL.
var fuzzKinds = []func(schema.ColType) []schema.Value{
	fuzzDomain,
	func(t schema.ColType) []schema.Value {
		if t == schema.TInt {
			return fuzzFloats
		}
		return fuzzInts
	},
	func(t schema.ColType) []schema.Value {
		switch t {
		case schema.TInt:
			return []schema.Value{0.5, -2.5, "a", ""}
		case schema.TFloat:
			return []schema.Value{"a", "\x00"}
		}
		return []schema.Value{int64(1), 2.5}
	},
	func(schema.ColType) []schema.Value { return []schema.Value{nil} },
}

// TestKeyRangeThroughOverlayAndSnapshot: the bounds reach a transaction's
// read-your-writes view and a snapshot read as they reach the store. Pending
// inserts inside the range, outside it and exactly at either bound, a pending
// delete and a pending update inside it fold into the bounded scan as the
// boxed filter over the merged table has them, under both pairs of operators
// and in both directions; and a snapshot taken before later writes reads the
// range as it was.
func TestKeyRangeThroughOverlayAndSnapshot(t *testing.T) {
	hc := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
	cat := NewCatalog(hc)
	rel := &schema.Relation{
		Name:    "T",
		Columns: []schema.Column{{Name: "id", Type: schema.TInt}, {Name: "s", Type: schema.TString}, {Name: "x", Type: schema.TString}},
		PK:      []string{"id"},
	}
	if _, err := cat.RegisterRelation(rel, hbase.TableSpec{MaxVersions: 8}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat)
	for id := int64(0); id < 100; id += 10 {
		if id != 20 {
			mustExec(t, e, WriteOpts{}, `INSERT INTO T (id, s, x) VALUES (?, 'stored', 'x')`, id)
		}
	}
	statements := []string{
		`SELECT id, s FROM T WHERE id >= 20 AND id < 50`,
		`SELECT id, s FROM T WHERE id > 20 AND id <= 50`,
		`SELECT id, s FROM T WHERE id >= 20 AND id < 50 ORDER BY id DESC LIMIT 3`,
		`SELECT * FROM T WHERE id > 20 AND id <= 50 ORDER BY id LIMIT 2`,
		`SELECT s FROM T WHERE id < 30`,
	}
	// check holds each statement under opts to the same statement with its
	// WHERE evaluated boxed over every row opts can see.
	check := func(name string, opts QueryOpts) {
		t.Helper()
		for _, sql := range statements {
			sel := sqlparser.MustParse(sql).(*sqlparser.SelectStmt)
			got, err := e.QueryOpts(sim.NewCtx(), sel, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			open := *sel
			open.Where, open.Limit = nil, 0
			every, err := e.QueryOpts(sim.NewCtx(), &open, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := e.QueryOpts(sim.NewCtx(), sqlparser.MustParse(`SELECT id FROM T`).(*sqlparser.SelectStmt), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			var want []schema.Row
			for i, r := range every.Rows {
				// every has the statement's columns and order but maybe not id:
				// without ORDER BY both are in key order, so ids[i] is r's.
				id := r["id"]
				if _, selected := r["id"]; !selected {
					id = ids.Rows[i]["id"]
				}
				ok := true
				for _, p := range sel.Where {
					ok = ok && holdsBoxed(schema.Row{"id": id}, localPred{col: "id", op: p.Op, value: p.Right.(sqlparser.Literal).Value})
				}
				if ok {
					want = append(want, r)
				}
			}
			if sel.Limit > 0 && len(want) > sel.Limit {
				want = want[:sel.Limit]
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want) {
				t.Errorf("%s, %s:\n got %v\nwant %v", name, sql, got.Rows, want)
			}
		}
	}
	check("store", QueryOpts{})

	snap := hc.CurrentTS()
	m := e.Client().NewBufferedMutator(0)
	tx := WriteOpts{Mutator: m}
	for _, id := range []int64{15, 20, 25, 50, 51, 55} { // below, at the lower bound, inside, at the upper bound, above
		mustExec(t, e, tx, `INSERT INTO T (id, s) VALUES (?, 'pending')`, id)
	}
	mustExec(t, e, tx, `DELETE FROM T WHERE id = 30`)
	mustExec(t, e, tx, `UPDATE T SET s = 'updated' WHERE id = 40`)
	check("overlay", QueryOpts{Reader: m.View()})
	if rs, _ := e.QueryOpts(sim.NewCtx(), sqlparser.MustParse(statements[0]).(*sqlparser.SelectStmt), nil, QueryOpts{Reader: m.View()}); fmt.Sprint(rs.Rows) !=
		"[map[id:20 s:pending] map[id:25 s:pending] map[id:40 s:updated]]" {
		t.Errorf("overlay, %s: %v", statements[0], rs.Rows)
	}
	check("store beside the open transaction", QueryOpts{})

	if err := m.Flush(sim.NewCtx()); err != nil {
		t.Fatal(err)
	}
	check("after the flush", QueryOpts{})
	check("snapshot", QueryOpts{Read: hbase.ReadOpts{ReadTS: snap}})
	if rs, _ := e.QueryOpts(sim.NewCtx(), sqlparser.MustParse(statements[0]).(*sqlparser.SelectStmt), nil, QueryOpts{Read: hbase.ReadOpts{ReadTS: snap}}); fmt.Sprint(rs.Rows) !=
		"[map[id:30 s:stored] map[id:40 s:stored]]" {
		t.Errorf("snapshot from before the transaction, %s: %v", statements[0], rs.Rows)
	}
}
