package phoenix

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// testDB builds a small Customer/Orders/Order_line database, mirroring the
// micro-benchmark schema of Figure 8.
func testDB(t *testing.T) (*Engine, *sim.Ctx) {
	t.Helper()
	hc := hbase.NewHCluster(nil, nil)
	cat := NewCatalog(hc)

	customer := &schema.Relation{
		Name: "Customer",
		Columns: []schema.Column{
			{Name: "c_id", Type: schema.TInt},
			{Name: "c_uname", Type: schema.TString},
			{Name: "c_bal", Type: schema.TFloat},
		},
		PK: []string{"c_id"},
	}
	orders := &schema.Relation{
		Name: "Orders",
		Columns: []schema.Column{
			{Name: "o_id", Type: schema.TInt},
			{Name: "o_c_id", Type: schema.TInt},
			{Name: "o_total", Type: schema.TFloat},
			{Name: "o_date", Type: schema.TInt},
		},
		PK:  []string{"o_id"},
		FKs: []schema.ForeignKey{{Cols: []string{"o_c_id"}, RefTable: "Customer"}},
	}
	orderLine := &schema.Relation{
		Name: "Order_line",
		Columns: []schema.Column{
			{Name: "ol_o_id", Type: schema.TInt},
			{Name: "ol_id", Type: schema.TInt},
			{Name: "ol_qty", Type: schema.TInt},
		},
		PK:  []string{"ol_o_id", "ol_id"},
		FKs: []schema.ForeignKey{{Cols: []string{"ol_o_id"}, RefTable: "Orders"}},
	}

	for _, r := range []*schema.Relation{customer, orders, orderLine} {
		if _, err := cat.RegisterRelation(r, hbase.TableSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.RegisterIndex("Customer", IndexInfo{Name: "ix_customer_uname", On: []string{"c_uname"}}, hbase.TableSpec{}); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterIndex("Orders", IndexInfo{Name: "ix_orders_cid", On: []string{"o_c_id"}}, hbase.TableSpec{}); err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(cat)
	ctx := sim.NewCtx()

	// 10 customers, 3 orders each, 2 lines per order.
	oid := int64(0)
	for c := int64(1); c <= 10; c++ {
		row := schema.Row{"c_id": c, "c_uname": fmt.Sprintf("user%02d", c), "c_bal": float64(c) * 10}
		ct, _ := cat.Table("Customer")
		if err := eng.PutRow(ctx, ct, row, WriteOpts{}); err != nil {
			t.Fatal(err)
		}
		for o := 0; o < 3; o++ {
			oid++
			ot, _ := cat.Table("Orders")
			orow := schema.Row{"o_id": oid, "o_c_id": c, "o_total": float64(oid), "o_date": int64(1000 + oid)}
			if err := eng.PutRow(ctx, ot, orow, WriteOpts{}); err != nil {
				t.Fatal(err)
			}
			lt, _ := cat.Table("Order_line")
			for l := int64(1); l <= 2; l++ {
				lrow := schema.Row{"ol_o_id": oid, "ol_id": l, "ol_qty": l * 5}
				if err := eng.PutRow(ctx, lt, lrow, WriteOpts{}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return eng, sim.NewCtx()
}

func runQuery(t *testing.T, e *Engine, ctx *sim.Ctx, sql string, params ...schema.Value) *ResultSet {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	rs, err := e.Query(ctx, sel, params)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return rs
}

func TestPointSelectByPK(t *testing.T) {
	e, ctx := testDB(t)
	rs := runQuery(t, e, ctx, "SELECT * FROM Customer WHERE c_id = ?", int64(3))
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rs.Rows))
	}
	if rs.Rows[0]["c_uname"] != "user03" {
		t.Fatalf("row = %v", rs.Rows[0])
	}
}

func TestSelectByIndex(t *testing.T) {
	e, ctx := testDB(t)
	rs := runQuery(t, e, ctx, "SELECT c_id, c_bal FROM Customer WHERE c_uname = ?", "user07")
	if len(rs.Rows) != 1 || rs.Rows[0]["c_id"].(int64) != 7 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if len(rs.Columns) != 2 {
		t.Fatalf("columns = %v", rs.Columns)
	}
}

func TestFullScanWithFilter(t *testing.T) {
	e, ctx := testDB(t)
	rs := runQuery(t, e, ctx, "SELECT * FROM Customer WHERE c_bal > 80.0")
	if len(rs.Rows) != 2 { // customers 9, 10
		t.Fatalf("rows = %d, want 2", len(rs.Rows))
	}
}

func TestPKPrefixScan(t *testing.T) {
	e, ctx := testDB(t)
	// ol_o_id is the leading PK column of Order_line.
	rs := runQuery(t, e, ctx, "SELECT * FROM Order_line WHERE ol_o_id = ?", int64(5))
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rs.Rows))
	}
}

func TestTwoWayJoin(t *testing.T) {
	e, ctx := testDB(t)
	rs := runQuery(t, e, ctx,
		"SELECT * FROM Customer c, Orders o WHERE c.c_id = o.o_c_id AND c.c_id = ?", int64(4))
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rs.Rows))
	}
	for _, r := range rs.Rows {
		if r["o_c_id"].(int64) != 4 {
			t.Fatalf("join produced wrong row: %v", r)
		}
	}
}

func TestTwoWayJoinFull(t *testing.T) {
	e, ctx := testDB(t)
	rs := runQuery(t, e, ctx, "SELECT * FROM Customer c, Orders o WHERE c.c_id = o.o_c_id")
	if len(rs.Rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(rs.Rows))
	}
}

func TestThreeWayJoin(t *testing.T) {
	e, ctx := testDB(t)
	rs := runQuery(t, e, ctx, `SELECT * FROM Customer c, Orders o, Order_line ol
		WHERE c.c_id = o.o_c_id AND o.o_id = ol.ol_o_id`)
	if len(rs.Rows) != 60 {
		t.Fatalf("rows = %d, want 60", len(rs.Rows))
	}
	// Every output row must satisfy both join conditions.
	for _, r := range rs.Rows {
		if r["c_id"] != r["o_c_id"] || r["o_id"] != r["ol_o_id"] {
			t.Fatalf("join condition violated: %v", r)
		}
	}
}

func TestSelfJoin(t *testing.T) {
	e, ctx := testDB(t)
	// Orders of the same customer as order 1 (including itself).
	rs := runQuery(t, e, ctx, `SELECT b.o_id FROM Orders a, Orders b
		WHERE a.o_c_id = b.o_c_id AND a.o_id = ?`, int64(1))
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rs.Rows))
	}
}

func TestOrderByDescLimit(t *testing.T) {
	e, ctx := testDB(t)
	rs := runQuery(t, e, ctx, "SELECT o_id FROM Orders ORDER BY o_date DESC LIMIT 5")
	if len(rs.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rs.Rows))
	}
	if rs.Rows[0]["o_id"].(int64) != 30 || rs.Rows[4]["o_id"].(int64) != 26 {
		t.Fatalf("ordering wrong: %v", rs.Rows)
	}
}

func TestOrderByAscMultiKey(t *testing.T) {
	e, ctx := testDB(t)
	rs := runQuery(t, e, ctx, "SELECT ol_o_id, ol_id FROM Order_line ORDER BY ol_id DESC, ol_o_id ASC LIMIT 3")
	r := rs.Rows
	if r[0]["ol_id"].(int64) != 2 || r[0]["ol_o_id"].(int64) != 1 || r[2]["ol_o_id"].(int64) != 3 {
		t.Fatalf("rows = %v", r)
	}
}

// TestOrderByAlias: an ORDER BY key naming a select item's alias sorts by
// that item — a plain column of a plain statement, or a column riding along
// in an aggregated one — and an aggregated statement rejects a key its output
// does not carry instead of silently not sorting.
func TestOrderByAlias(t *testing.T) {
	e, ctx := testDB(t)
	rs := runQuery(t, e, ctx, "SELECT c_uname AS u FROM Customer ORDER BY u DESC LIMIT 1")
	if len(rs.Rows) != 1 || rs.Rows[0]["u"] != "user10" {
		t.Fatalf("ORDER BY alias of a column: %v", rs.Rows)
	}
	rs = runQuery(t, e, ctx, "SELECT o_c_id AS cust, COUNT(*) AS n FROM Orders GROUP BY o_c_id ORDER BY cust DESC LIMIT 1")
	if len(rs.Rows) != 1 || rs.Rows[0]["cust"] != int64(10) {
		t.Fatalf("ORDER BY alias of a grouped column: %v", rs.Rows)
	}
	sel, err := sqlparser.ParseSelect("SELECT o_c_id, COUNT(*) AS n FROM Orders GROUP BY o_c_id ORDER BY o_date")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx, sel, nil); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("ORDER BY on an ungrouped, unselected column: err = %v, want ErrUnsupported", err)
	}
}

func TestGroupByAggregates(t *testing.T) {
	e, ctx := testDB(t)
	rs := runQuery(t, e, ctx, `SELECT o_c_id, COUNT(*) AS n, SUM(o_total) AS tot
		FROM Orders GROUP BY o_c_id ORDER BY o_c_id`)
	if len(rs.Rows) != 10 {
		t.Fatalf("groups = %d, want 10", len(rs.Rows))
	}
	first := rs.Rows[0]
	if first["n"].(int64) != 3 {
		t.Fatalf("count = %v", first["n"])
	}
	if first["tot"].(int64) != 6 { // orders 1+2+3
		t.Fatalf("sum = %v", first["tot"])
	}
}

func TestAggregatesWithoutGroupBy(t *testing.T) {
	e, ctx := testDB(t)
	rs := runQuery(t, e, ctx, "SELECT COUNT(*) AS n, MIN(o_total) AS lo, MAX(o_total) AS hi, AVG(o_total) AS av FROM Orders")
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rs.Rows))
	}
	r := rs.Rows[0]
	if r["n"].(int64) != 30 || r["lo"].(float64) != 1 || r["hi"].(float64) != 30 {
		t.Fatalf("aggregates = %v", r)
	}
	if av := r["av"].(float64); av < 15.49 || av > 15.51 {
		t.Fatalf("avg = %v, want 15.5", av)
	}
}

// TestAggregateOverNoRows: an aggregate without GROUP BY is one row even when
// no row qualifies — COUNT 0, every other aggregate NULL — whether the regions
// fold (one table, by index, key range or filter) or the client does (a
// join). With GROUP BY there is no group, so no row.
func TestAggregateOverNoRows(t *testing.T) {
	e, ctx := testDB(t)
	for _, sql := range []string{
		"SELECT COUNT(*) AS n FROM Customer WHERE c_uname = 'nobody'",
		"SELECT COUNT(*) AS n, SUM(c_bal) AS s, AVG(c_bal) AS a, MIN(c_uname) AS lo, MAX(c_bal) AS hi, COUNT(c_bal) AS c FROM Customer WHERE c_id > 1000",
		"SELECT COUNT(*) AS n, SUM(c_bal) AS s FROM Customer WHERE c_bal < 0",
		"SELECT COUNT(*) AS n, SUM(o.o_total) AS s FROM Customer c, Orders o WHERE c.c_id = o.o_c_id AND c.c_id > 1000",
	} {
		rs := runQuery(t, e, ctx, sql)
		if len(rs.Rows) != 1 || len(rs.Rows[0]) != len(rs.Columns) {
			t.Fatalf("%s: rows %v, want one of %d columns", sql, rs.Rows, len(rs.Columns))
		}
		for col, v := range rs.Rows[0] {
			want := schema.Value(nil)
			if col == "n" || col == "c" {
				want = int64(0)
			}
			if v != want {
				t.Errorf("%s: %s = %#v, want %#v", sql, col, v, want)
			}
		}
	}
	if rs := runQuery(t, e, ctx, "SELECT c_uname, COUNT(*) AS n FROM Customer WHERE c_id > 1000 GROUP BY c_uname"); len(rs.Rows) != 0 {
		t.Fatalf("grouped aggregate over no rows: %v, want no row", rs.Rows)
	}
}

func TestDerivedTableJoin(t *testing.T) {
	e, ctx := testDB(t)
	// The Q10/Q11 pattern: join against the most recent orders.
	rs := runQuery(t, e, ctx, `SELECT * FROM Order_line ol,
		(SELECT o_id FROM Orders ORDER BY o_date DESC LIMIT 3) recent
		WHERE ol.ol_o_id = recent.o_id`)
	if len(rs.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rs.Rows))
	}
	for _, r := range rs.Rows {
		if r["ol_o_id"].(int64) < 28 {
			t.Fatalf("joined non-recent order: %v", r)
		}
	}
}

func TestResidualInequalityJoin(t *testing.T) {
	e, ctx := testDB(t)
	// Lines in order 1 pairing distinct line ids (Q11 shape).
	rs := runQuery(t, e, ctx, `SELECT * FROM Order_line a, Order_line b
		WHERE a.ol_o_id = b.ol_o_id AND a.ol_o_id = ? AND a.ol_id <> b.ol_id`, int64(1))
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (ordered pairs)", len(rs.Rows))
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	e, ctx := testDB(t)
	sel := sqlparser.MustParse("SELECT o_id FROM Orders a, Orders b WHERE a.o_id = b.o_id").(*sqlparser.SelectStmt)
	if _, err := e.Query(ctx, sel, nil); err == nil {
		t.Fatal("ambiguous bare column should fail")
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	e, ctx := testDB(t)
	sel := sqlparser.MustParse("SELECT * FROM Missing").(*sqlparser.SelectStmt)
	if _, err := e.Query(ctx, sel, nil); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("err = %v, want ErrUnknownTable", err)
	}
	sel = sqlparser.MustParse("SELECT * FROM Customer WHERE nope = 1").(*sqlparser.SelectStmt)
	if _, err := e.Query(ctx, sel, nil); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v, want ErrUnknownColumn", err)
	}
}

func TestInsertThenSelect(t *testing.T) {
	e, ctx := testDB(t)
	ins := sqlparser.MustParse("INSERT INTO Customer (c_id, c_uname, c_bal) VALUES (?, ?, ?)")
	if err := e.Exec(ctx, ins, []schema.Value{int64(99), "newuser", 5.0}, WriteOpts{}); err != nil {
		t.Fatal(err)
	}
	rs := runQuery(t, e, ctx, "SELECT * FROM Customer WHERE c_id = ?", int64(99))
	if len(rs.Rows) != 1 || rs.Rows[0]["c_uname"] != "newuser" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	// The covered index must serve the new row too.
	rs = runQuery(t, e, ctx, "SELECT c_id FROM Customer WHERE c_uname = ?", "newuser")
	if len(rs.Rows) != 1 || rs.Rows[0]["c_id"].(int64) != 99 {
		t.Fatalf("index lookup rows = %v", rs.Rows)
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	e, ctx := testDB(t)
	up := sqlparser.MustParse("UPDATE Customer SET c_uname = ? WHERE c_id = ?")
	if err := e.Exec(ctx, up, []schema.Value{"renamed", int64(2)}, WriteOpts{}); err != nil {
		t.Fatal(err)
	}
	if rs := runQuery(t, e, ctx, "SELECT * FROM Customer WHERE c_uname = ?", "user02"); len(rs.Rows) != 0 {
		t.Fatalf("old index entry still visible: %v", rs.Rows)
	}
	rs := runQuery(t, e, ctx, "SELECT c_id FROM Customer WHERE c_uname = ?", "renamed")
	if len(rs.Rows) != 1 || rs.Rows[0]["c_id"].(int64) != 2 {
		t.Fatalf("new index entry missing: %v", rs.Rows)
	}
}

func TestUpdateNonIndexedColumnInPlace(t *testing.T) {
	e, ctx := testDB(t)
	up := sqlparser.MustParse("UPDATE Customer SET c_bal = ? WHERE c_id = ?")
	if err := e.Exec(ctx, up, []schema.Value{123.0, int64(1)}, WriteOpts{}); err != nil {
		t.Fatal(err)
	}
	rs := runQuery(t, e, ctx, "SELECT c_bal FROM Customer WHERE c_uname = ?", "user01")
	if len(rs.Rows) != 1 || rs.Rows[0]["c_bal"].(float64) != 123.0 {
		t.Fatalf("index copy stale: %v", rs.Rows)
	}
}

func TestDeleteCleansIndexes(t *testing.T) {
	e, ctx := testDB(t)
	del := sqlparser.MustParse("DELETE FROM Customer WHERE c_id = ?")
	if err := e.Exec(ctx, del, []schema.Value{int64(5)}, WriteOpts{}); err != nil {
		t.Fatal(err)
	}
	if rs := runQuery(t, e, ctx, "SELECT * FROM Customer WHERE c_id = ?", int64(5)); len(rs.Rows) != 0 {
		t.Fatal("row visible after delete")
	}
	if rs := runQuery(t, e, ctx, "SELECT * FROM Customer WHERE c_uname = ?", "user05"); len(rs.Rows) != 0 {
		t.Fatal("index entry visible after delete")
	}
}

func TestWriteRequiresFullKey(t *testing.T) {
	e, ctx := testDB(t)
	up := sqlparser.MustParse("UPDATE Order_line SET ol_qty = ? WHERE ol_o_id = ?")
	err := e.Exec(ctx, up, []schema.Value{int64(1), int64(1)}, WriteOpts{})
	if !errors.Is(err, ErrKeyNotSpecified) {
		t.Fatalf("err = %v, want ErrKeyNotSpecified (§IV restriction)", err)
	}
	del := sqlparser.MustParse("DELETE FROM Order_line WHERE ol_o_id = ?")
	err = e.Exec(ctx, del, []schema.Value{int64(1)}, WriteOpts{})
	if !errors.Is(err, ErrKeyNotSpecified) {
		t.Fatalf("err = %v, want ErrKeyNotSpecified", err)
	}
}

func TestUpdateMissingRowIsNoop(t *testing.T) {
	e, ctx := testDB(t)
	up := sqlparser.MustParse("UPDATE Customer SET c_bal = ? WHERE c_id = ?")
	if err := e.Exec(ctx, up, []schema.Value{1.0, int64(12345)}, WriteOpts{}); err != nil {
		t.Fatal(err)
	}
}

func TestOnWriteCollectsWriteSet(t *testing.T) {
	e, ctx := testDB(t)
	var writes []string
	opts := WriteOpts{OnWrite: func(table, key string) { writes = append(writes, table) }}
	ins := sqlparser.MustParse("INSERT INTO Customer (c_id, c_uname, c_bal) VALUES (?, ?, ?)")
	if err := e.Exec(ctx, ins, []schema.Value{int64(50), "x", 1.0}, opts); err != nil {
		t.Fatal(err)
	}
	if len(writes) != 2 { // base + 1 index
		t.Fatalf("write set = %v, want base+index", writes)
	}
}

func TestMVCCSnapshotVisibility(t *testing.T) {
	hc := hbase.NewHCluster(nil, nil)
	cat := NewCatalog(hc)
	rel := &schema.Relation{
		Name:    "T",
		Columns: []schema.Column{{Name: "id", Type: schema.TInt}, {Name: "v", Type: schema.TString}},
		PK:      []string{"id"},
	}
	if _, err := cat.RegisterRelation(rel, hbase.TableSpec{MaxVersions: 100}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cat)
	ctx := sim.NewCtx()
	tt, _ := cat.Table("T")
	// Write v1 at ts 10, v2 at ts 20.
	if err := eng.PutRow(ctx, tt, schema.Row{"id": int64(1), "v": "v1"}, WriteOpts{TS: 10}); err != nil {
		t.Fatal(err)
	}
	if err := eng.PutRow(ctx, tt, schema.Row{"id": int64(1), "v": "v2"}, WriteOpts{TS: 20}); err != nil {
		t.Fatal(err)
	}
	sel := sqlparser.MustParse("SELECT v FROM T WHERE id = ?").(*sqlparser.SelectStmt)
	rs, err := eng.QueryOpts(ctx, sel, []schema.Value{int64(1)}, QueryOpts{Read: hbase.ReadOpts{ReadTS: 15}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0]["v"] != "v1" {
		t.Fatalf("snapshot@15 = %v, want v1", rs.Rows)
	}
}

func TestJoinCostsChargedForHashJoin(t *testing.T) {
	e, _ := testDB(t)
	// Full join (no filters) must be costlier than a filtered one.
	full, filtered := sim.NewCtx(), sim.NewCtx()
	sel := sqlparser.MustParse("SELECT * FROM Customer c, Orders o WHERE c.c_id = o.o_c_id").(*sqlparser.SelectStmt)
	if _, err := e.Query(full, sel, nil); err != nil {
		t.Fatal(err)
	}
	sel2 := sqlparser.MustParse("SELECT * FROM Customer c, Orders o WHERE c.c_id = o.o_c_id AND c.c_id = ?").(*sqlparser.SelectStmt)
	if _, err := e.Query(filtered, sel2, []schema.Value{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if full.Elapsed() <= filtered.Elapsed() {
		t.Fatalf("full join (%v) should cost more than filtered join (%v)", full.Elapsed(), filtered.Elapsed())
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []schema.Value{int64(-5), int64(1 << 40), float64(3.25), "hello", ""}
	for _, v := range vals {
		got := DecodeValue(EncodeValue(v))
		if !schema.ValuesEqual(got, v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if DecodeValue(EncodeValue(nil)) != nil {
		t.Error("nil should round trip to nil")
	}
}

func TestCellsToRowSkipsMarkers(t *testing.T) {
	res := hbase.RowResult{Key: "k", Cells: hbase.Cells{
		{Qualifier: DirtyQualifier, Value: []byte("1")},
		{Qualifier: "a", Value: EncodeValue(int64(1))},
	}}
	row := CellsToRow(res)
	if len(row) != 1 || row["a"].(int64) != 1 {
		t.Fatalf("row = %v", row)
	}
	if !IsDirty(res) {
		t.Fatal("IsDirty should report the marker")
	}
}

// TestRowToCellsPacksAndIndexCellsShare: a row's cells come in qualifier order,
// their values windows into one buffer, each clipped so an append can never
// reach a neighbor; a covered index entry is those cells, a key-only one its
// key attributes over the same bytes.
func TestRowToCellsPacksAndIndexCellsShare(t *testing.T) {
	info := buildInfo("T", []schema.Column{
		{Name: "id", Type: schema.TInt}, {Name: "name", Type: schema.TString}, {Name: "score", Type: schema.TFloat},
	}, []string{"id"})
	row := schema.Row{"id": int64(7), "name": "seven", "score": 7.5, "absent": nil}
	cells := RowToCells(row)
	if len(cells) != 3 {
		t.Fatalf("cells = %v, want the three non-nil attributes", cells)
	}
	for _, c := range cells {
		if !schema.ValuesEqual(DecodeValue(c.Value), row[c.Qualifier]) {
			t.Errorf("%s decodes to %v, want %v", c.Qualifier, DecodeValue(c.Value), row[c.Qualifier])
		}
		if cap(c.Value) != len(c.Value) {
			t.Errorf("%s: value window not clipped (len %d cap %d)", c.Qualifier, len(c.Value), cap(c.Value))
		}
	}

	if !slices.IsSortedFunc(cells, func(a, b hbase.Cell) int { return strings.Compare(a.Qualifier, b.Qualifier) }) {
		t.Fatalf("cells = %v, want qualifier order", cells)
	}

	covered := IndexCells(info, &IndexInfo{Name: "ix", On: []string{"name"}}, cells)
	if len(covered) != len(cells) || &covered[0] != &cells[0] {
		t.Fatal("a covered index entry is the row's cell slice: nothing stamps cells in place")
	}
	keyOnly := IndexCells(info, &IndexInfo{Name: "mx", On: []string{"name"}, KeyOnly: true}, cells)
	if len(keyOnly) != 2 || keyOnly[0].Qualifier != "id" || &keyOnly[1].Value[0] != &cells[1].Value[0] {
		t.Fatalf("key-only index stores %v, want name and id", keyOnly)
	}
}
