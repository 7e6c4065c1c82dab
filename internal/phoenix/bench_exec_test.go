package phoenix

import (
	"fmt"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// execBenchSubjects is how many i_subject values the fixture spreads its rows
// over; one subject's index prefix holds 1/execBenchSubjects of the view.
const execBenchSubjects = 8

// execBenchDB loads a wide view-shaped table — the columns Q4 and Q10 read
// plus filler, 29 in all, like the 25-34 column TPC-W views — with a covered
// index on i_subject, and the Orders table Q10's derived table sorts — or,
// with dateIndex, reads newest-first off a covered index on o_date.
func execBenchDB(tb testing.TB, dateIndex bool) *Engine {
	tb.Helper()
	const orders, linesPerOrder, filler = 1500, 4, 20
	hc := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
	cat := NewCatalog(hc)
	view := &schema.Relation{
		Name: "V",
		Columns: []schema.Column{
			{Name: "ol_o_id", Type: schema.TInt}, {Name: "ol_id", Type: schema.TInt},
			{Name: "ol_qty", Type: schema.TInt}, {Name: "i_id", Type: schema.TInt},
			{Name: "i_title", Type: schema.TString}, {Name: "i_subject", Type: schema.TString},
			{Name: "i_stock", Type: schema.TInt}, {Name: "a_fname", Type: schema.TString},
			{Name: "a_lname", Type: schema.TString},
		},
		PK: []string{"ol_o_id", "ol_id"},
	}
	for i := 0; i < filler; i++ {
		view.Columns = append(view.Columns, schema.Column{Name: fmt.Sprintf("pad%02d", i), Type: schema.TString})
	}
	ord := &schema.Relation{
		Name:    "Orders",
		Columns: []schema.Column{{Name: "o_id", Type: schema.TInt}, {Name: "o_date", Type: schema.TInt}},
		PK:      []string{"o_id"},
	}
	for _, r := range []*schema.Relation{view, ord} {
		if _, err := cat.RegisterRelation(r, hbase.TableSpec{}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := cat.RegisterIndex("V", IndexInfo{Name: "IX_V_subject", On: []string{"i_subject"}}, hbase.TableSpec{}); err != nil {
		tb.Fatal(err)
	}
	if dateIndex {
		if err := cat.RegisterIndex("Orders", IndexInfo{Name: "IX_Orders_date", On: []string{"o_date"}}, hbase.TableSpec{}); err != nil {
			tb.Fatal(err)
		}
	}
	eng := NewEngine(cat)
	ctx := sim.NewCtx()
	rng := sim.NewRNG(3)
	vt, _ := cat.Table("V")
	ot, _ := cat.Table("Orders")
	for o := int64(1); o <= orders; o++ {
		if err := eng.PutRow(ctx, ot, schema.Row{"o_id": o, "o_date": int64(rng.IntRange(19000, 20000))}, WriteOpts{}); err != nil {
			tb.Fatal(err)
		}
		for l := int64(1); l <= linesPerOrder; l++ {
			item := int64(rng.IntRange(1, 400))
			row := schema.Row{
				"ol_o_id": o, "ol_id": l, "ol_qty": int64(rng.IntRange(1, 10)), "i_id": item,
				"i_title": fmt.Sprintf("title-%04d", (item*7919)%10000), "i_subject": fmt.Sprintf("SUBJ%d", item%execBenchSubjects),
				"i_stock": int64(rng.IntRange(10, 30)), "a_fname": rng.String(6, 12), "a_lname": rng.String(6, 14),
			}
			for i := 0; i < filler; i++ {
				row[fmt.Sprintf("pad%02d", i)] = rng.String(8, 24)
			}
			if err := eng.PutRow(ctx, vt, row, WriteOpts{}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return eng
}

func benchQuery(b *testing.B, sql string, params ...schema.Value) {
	b.Helper()
	benchQueryOn(b, execBenchDB(b, false), sql, params...)
}

func benchQueryOn(b *testing.B, eng *Engine, sql string, params ...schema.Value) {
	b.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var simTotal sim.Micros
	for i := 0; i < b.N; i++ {
		ctx := sim.NewCtx()
		rs, err := eng.Query(ctx, sel, params)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Rows) == 0 {
			b.Fatal("query returned no rows")
		}
		simTotal += ctx.Elapsed()
	}
	b.ReportMetric(simTotal.Milliseconds()/float64(b.N), "sim-ms/op")
}

// BenchmarkFilteredViewScan is an index-prefix scan with a residual
// predicate: every row of the subject is examined, the filter drops about
// half without decoding them, and only three columns of the rest are decoded.
func BenchmarkFilteredViewScan(b *testing.B) {
	benchQuery(b, `SELECT v.i_id, v.i_title, v.ol_qty FROM V v WHERE v.i_subject = ? AND v.i_stock > ? ORDER BY v.i_id`,
		"SUBJ3", int64(20))
}

// BenchmarkHashJoinDerived is the Q10 shape: a view scan hash-joined to an
// ORDER BY … LIMIT derived table, grouped, sorted and cut.
func BenchmarkHashJoinDerived(b *testing.B) {
	benchQuery(b, `SELECT v.i_id, v.i_title, v.a_fname, v.a_lname, SUM(v.ol_qty) AS qty
		FROM V v, (SELECT o_id FROM Orders ORDER BY o_date DESC LIMIT 500) t
		WHERE v.ol_o_id = t.o_id AND v.i_subject = ?
		GROUP BY v.i_id ORDER BY qty DESC LIMIT 50`, "SUBJ3")
}

// BenchmarkTopOrdersByDate is BenchmarkHashJoinDerived's statement with an
// index on o_date: the derived table is a reversed, limit-bounded scan of
// the index — 500 rows read, none sorted — instead of a sort of all 1,500
// orders.
func BenchmarkTopOrdersByDate(b *testing.B) {
	benchQueryOn(b, execBenchDB(b, true), `SELECT v.i_id, v.i_title, v.a_fname, v.a_lname, SUM(v.ol_qty) AS qty
		FROM V v, (SELECT o_id FROM Orders ORDER BY o_date DESC LIMIT 500) t
		WHERE v.ol_o_id = t.o_id AND v.i_subject = ?
		GROUP BY v.i_id ORDER BY qty DESC LIMIT 50`, "SUBJ3")
}

// BenchmarkOrderByTitleLimit is the Q4 shape: SELECT * over one subject,
// sorted by a string column, cut to 50 rows.
func BenchmarkOrderByTitleLimit(b *testing.B) {
	benchQuery(b, `SELECT * FROM V v WHERE v.i_subject = ? ORDER BY v.i_title LIMIT 50`, "SUBJ3")
}

// TestScanFilterZeroAllocs pins the point of compiling predicates against the
// encoded cells: examining a row — rejected or accepted, by a constant or a
// column comparison, numeric or string — allocates nothing.
func TestScanFilterZeroAllocs(t *testing.T) {
	cols := map[string]schema.Value{"i_subject": "ARTS", "i_stock": int64(12), "i_cost": 9.5, "i_srp": 12.0}
	for i := 0; i < 26; i++ {
		cols[fmt.Sprintf("pad%02d", i)] = fmt.Sprintf("filler-%d", i)
	}
	row := predRow(cols)
	for name, tc := range map[string]struct {
		preds []localPred
		want  bool
	}{
		"rejected by string": {[]localPred{{col: "i_subject", op: sqlparser.OpEq, value: "HISTORY"}}, false},
		"rejected by number": {[]localPred{
			{col: "i_subject", op: sqlparser.OpEq, value: "ARTS"},
			{col: "i_stock", op: sqlparser.OpGt, value: int64(20)},
		}, false},
		"rejected by columns": {[]localPred{{col: "i_cost", op: sqlparser.OpGe, rcol: "i_srp", colVsCol: true}}, false},
		"rejected by NULL":    {[]localPred{{col: "i_avail", op: sqlparser.OpNe, value: int64(0)}}, false},
		"accepted": {[]localPred{
			{col: "i_subject", op: sqlparser.OpEq, value: "ARTS"},
			{col: "i_stock", op: sqlparser.OpLe, value: 12.0},
			{col: "i_cost", op: sqlparser.OpLt, rcol: "i_srp", colVsCol: true},
		}, true},
	} {
		filter := scanFilter(tc.preds)
		if got := filter(row); got != tc.want {
			t.Errorf("%s: filter = %v, want %v", name, got, tc.want)
		}
		if n := testing.AllocsPerRun(200, func() { filter(row) }); n != 0 {
			t.Errorf("%s: %v allocs per examined row, want 0", name, n)
		}
	}
}

// groupByDB loads a 20,000-row table shaped like the standing benchmark's
// Customer — 17 columns, 86 distinct c_birthdate values, whole-number float
// balances — for the scan workload's S3 statement.
func groupByDB(tb testing.TB) *Engine {
	tb.Helper()
	const rows, filler = 20000, 13
	hc := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
	cat := NewCatalog(hc)
	cust := &schema.Relation{
		Name: "Customer",
		Columns: []schema.Column{
			{Name: "c_id", Type: schema.TInt}, {Name: "c_uname", Type: schema.TString},
			{Name: "c_birthdate", Type: schema.TInt}, {Name: "c_balance", Type: schema.TFloat},
		},
		PK: []string{"c_id"},
	}
	for i := 0; i < filler; i++ {
		cust.Columns = append(cust.Columns, schema.Column{Name: fmt.Sprintf("pad%02d", i), Type: schema.TString})
	}
	if _, err := cat.RegisterRelation(cust, hbase.TableSpec{}); err != nil {
		tb.Fatal(err)
	}
	eng := NewEngine(cat)
	ctx := sim.NewCtx()
	rng := sim.NewRNG(3)
	ct, _ := cat.Table("Customer")
	for c := int64(1); c <= rows; c++ {
		row := schema.Row{
			"c_id": c, "c_uname": fmt.Sprintf("user%08d", c),
			"c_birthdate": int64(rng.IntRange(1920, 2005)), "c_balance": float64(rng.IntRange(-100, 1000)),
		}
		for i := 0; i < filler; i++ {
			row[fmt.Sprintf("pad%02d", i)] = rng.String(5, 14)
		}
		if err := eng.PutRow(ctx, ct, row, WriteOpts{}); err != nil {
			tb.Fatal(err)
		}
	}
	return eng
}

const groupBySQL = `SELECT c_birthdate, COUNT(*) AS n, SUM(c_balance) AS bal FROM Customer GROUP BY c_birthdate`

var rawSink []byte

// drainRaw runs sel and reads every value of every row as the wire server
// does — through the cursor, still encoded — returning the row count.
func drainRaw(tb testing.TB, eng *Engine, ctx *sim.Ctx, sel *sqlparser.SelectStmt, params ...schema.Value) int {
	tb.Helper()
	cur, err := eng.QueryStream(ctx, sel, params)
	if err != nil {
		tb.Fatal(err)
	}
	n, ncols := 0, len(cur.Columns())
	for cur.Next(ctx) {
		for i := 0; i < ncols; i++ {
			rawSink = cur.RawValue(i)
		}
		n++
	}
	if err := cur.Close(ctx); err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkGroupByScan is the scan workload's S3 shape: every row of a
// 20,000-row table scanned and folded into 86 groups, the result read off
// the cursor as the wire server reads it. Nothing in it should cost an
// allocation per scanned row.
func BenchmarkGroupByScan(b *testing.B) { benchScan(b, groupByDB(b), groupBySQL, 86) }

// benchScan runs a statement over eng as the wire server does — rows read off
// the cursor still encoded — and reports sim-ms and allocations per execution.
func benchScan(b *testing.B, eng *Engine, sql string, want int, params ...schema.Value) {
	b.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var simTotal sim.Micros
	for i := 0; i < b.N; i++ {
		ctx := sim.NewCtx()
		if n := drainRaw(b, eng, ctx, sel, params...); n != want {
			b.Fatalf("%d rows, want %d", n, want)
		}
		simTotal += ctx.Elapsed()
	}
	b.ReportMetric(simTotal.Milliseconds()/float64(b.N), "sim-ms/op")
}

// BenchmarkKeyRangeScan is the scan workload's S4 shape: a primary-key range of
// 1,000 of the table's 20,000 rows, every column. The plan bounds the scan, so
// it examines the range (and, until a region stops at the stop row itself, the
// chunk after it), not the table.
func BenchmarkKeyRangeScan(b *testing.B) {
	benchScan(b, groupByDB(b), `SELECT * FROM Customer WHERE c_id >= ? AND c_id < ?`, 1000, int64(7001), int64(8001))
}

// BenchmarkProjectedAggregate is the S3 shape over a major-compacted table —
// one store file of uniform rows, as the standing benchmark's population
// leaves it: the scan names the two columns it folds, so the packed read
// kernel steps over the other fifteen and the response carries none of them.
func BenchmarkProjectedAggregate(b *testing.B) {
	eng := groupByDB(b)
	if err := eng.Catalog().Store().MajorCompact("Customer"); err != nil {
		b.Fatal(err)
	}
	benchScan(b, eng, groupBySQL, 86)
}
