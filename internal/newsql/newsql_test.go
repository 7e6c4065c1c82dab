package newsql

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

func microSchema() *schema.Schema {
	s := schema.New()
	s.AddRelation(&schema.Relation{
		Name: "Customer",
		Columns: []schema.Column{
			{Name: "c_id", Type: schema.TInt},
			{Name: "c_uname", Type: schema.TString},
		},
		PK: []string{"c_id"},
	})
	s.AddRelation(&schema.Relation{
		Name: "Orders",
		Columns: []schema.Column{
			{Name: "o_id", Type: schema.TInt},
			{Name: "o_c_id", Type: schema.TInt},
			{Name: "o_total", Type: schema.TFloat},
		},
		PK:  []string{"o_id"},
		FKs: []schema.ForeignKey{{Cols: []string{"o_c_id"}, RefTable: "Customer"}},
	})
	s.AddRelation(&schema.Relation{
		Name: "Country",
		Columns: []schema.Column{
			{Name: "co_id", Type: schema.TInt},
			{Name: "co_name", Type: schema.TString},
		},
		PK: []string{"co_id"},
	})
	return s
}

// scheme partitions Customer by c_id and Orders by o_c_id (co-located
// customer transactions); Country is replicated.
func custScheme() Scheme {
	return Scheme{Name: "by-customer", PartitionBy: map[string]string{
		"Customer": "c_id",
		"Orders":   "o_c_id",
	}}
}

func loadedEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(microSchema(), []Scheme{custScheme()}, nil)
	var customers, orders, countries []schema.Row
	for c := int64(1); c <= 20; c++ {
		customers = append(customers, schema.Row{"c_id": c, "c_uname": fmt.Sprintf("u%02d", c)})
		for o := int64(0); o < 3; o++ {
			oid := c*100 + o
			orders = append(orders, schema.Row{"o_id": oid, "o_c_id": c, "o_total": float64(oid)})
		}
	}
	countries = append(countries, schema.Row{"co_id": int64(1), "co_name": "GB"})
	if err := e.Load("Customer", customers); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("Orders", orders); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("Country", countries); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSinglePartitionPointQuery(t *testing.T) {
	e := loadedEngine(t)
	sel := sqlparser.MustParse("SELECT * FROM Customer WHERE c_id = ?").(*sqlparser.SelectStmt)
	rows, err := e.Query(sim.NewCtx(), sel, []schema.Value{int64(7)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["c_uname"] != "u07" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestPartitionKeyJoinSupported(t *testing.T) {
	e := loadedEngine(t)
	sel := sqlparser.MustParse(`SELECT * FROM Customer c, Orders o
		WHERE c.c_id = o.o_c_id AND c.c_id = ?`).(*sqlparser.SelectStmt)
	rows, err := e.Query(sim.NewCtx(), sel, []schema.Value{int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}

func TestNonPartitionKeyJoinRejected(t *testing.T) {
	e := loadedEngine(t)
	// Joining Orders to Customer on o_id (not the partition column) is
	// the paper's unsupported-join case.
	sel := sqlparser.MustParse(`SELECT * FROM Customer c, Orders o
		WHERE c.c_id = o.o_id`).(*sqlparser.SelectStmt)
	_, err := e.Query(sim.NewCtx(), sel, nil)
	if !errors.Is(err, ErrUnsupportedJoin) {
		t.Fatalf("err = %v, want ErrUnsupportedJoin", err)
	}
}

func TestReplicatedTableJoinsFreely(t *testing.T) {
	e := loadedEngine(t)
	sel := sqlparser.MustParse(`SELECT * FROM Customer c, Country x
		WHERE c.c_id = x.co_id`).(*sqlparser.SelectStmt)
	rows, err := e.Query(sim.NewCtx(), sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
}

func TestMultiPartitionCostsMore(t *testing.T) {
	e := loadedEngine(t)
	sp, mp := sim.NewCtx(), sim.NewCtx()
	point := sqlparser.MustParse("SELECT * FROM Customer WHERE c_id = ?").(*sqlparser.SelectStmt)
	if _, err := e.Query(sp, point, []schema.Value{int64(1)}); err != nil {
		t.Fatal(err)
	}
	full := sqlparser.MustParse("SELECT * FROM Customer").(*sqlparser.SelectStmt)
	if _, err := e.Query(mp, full, nil); err != nil {
		t.Fatal(err)
	}
	if mp.Elapsed() <= sp.Elapsed() {
		t.Fatalf("multi-partition (%v) should cost more than single-partition (%v)", mp.Elapsed(), sp.Elapsed())
	}
}

func TestAggregatesOrderLimit(t *testing.T) {
	e := loadedEngine(t)
	sel := sqlparser.MustParse(`SELECT o_c_id, SUM(o_total) AS tot FROM Orders
		GROUP BY o_c_id ORDER BY tot DESC LIMIT 3`).(*sqlparser.SelectStmt)
	rows, err := e.Query(sim.NewCtx(), sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Customer 20 has the largest totals.
	if rows[0]["o_c_id"].(int64) != 20 {
		t.Fatalf("top group = %v", rows[0])
	}
}

func TestDerivedTable(t *testing.T) {
	e := loadedEngine(t)
	sel := sqlparser.MustParse(`SELECT * FROM Orders o,
		(SELECT c_id FROM Customer WHERE c_uname = ?) u
		WHERE o.o_c_id = u.c_id`).(*sqlparser.SelectStmt)
	rows, err := e.Query(sim.NewCtx(), sel, []schema.Value{"u05"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}

func TestInsertUpdateDelete(t *testing.T) {
	e := loadedEngine(t)
	ctx := sim.NewCtx()
	ins := sqlparser.MustParse("INSERT INTO Customer (c_id, c_uname) VALUES (?, ?)")
	if err := e.Exec(ctx, ins, []schema.Value{int64(99), "new"}); err != nil {
		t.Fatal(err)
	}
	if n := e.RowCount("Customer"); n != 21 {
		t.Fatalf("rows = %d, want 21", n)
	}
	up := sqlparser.MustParse("UPDATE Customer SET c_uname = ? WHERE c_id = ?")
	if err := e.Exec(ctx, up, []schema.Value{"renamed", int64(99)}); err != nil {
		t.Fatal(err)
	}
	sel := sqlparser.MustParse("SELECT c_uname FROM Customer WHERE c_id = ?").(*sqlparser.SelectStmt)
	rows, _ := e.Query(ctx, sel, []schema.Value{int64(99)})
	if len(rows) != 1 || rows[0]["c_uname"] != "renamed" {
		t.Fatalf("rows = %v", rows)
	}
	del := sqlparser.MustParse("DELETE FROM Customer WHERE c_id = ?")
	if err := e.Exec(ctx, del, []schema.Value{int64(99)}); err != nil {
		t.Fatal(err)
	}
	if n := e.RowCount("Customer"); n != 20 {
		t.Fatalf("rows after delete = %d, want 20", n)
	}
}

func TestWriteRequiresKey(t *testing.T) {
	e := loadedEngine(t)
	up := sqlparser.MustParse("UPDATE Orders SET o_total = ? WHERE o_c_id = ?")
	if err := e.Exec(sim.NewCtx(), up, []schema.Value{1.0, int64(1)}); !errors.Is(err, ErrKeyRequired) {
		t.Fatalf("err = %v, want ErrKeyRequired", err)
	}
}

func TestSerializablePerPartition(t *testing.T) {
	e := loadedEngine(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			up := sqlparser.MustParse("UPDATE Orders SET o_total = ? WHERE o_id = ? AND o_c_id = ?")
			for i := 0; i < 50; i++ {
				if err := e.Exec(sim.NewCtx(), up, []schema.Value{float64(w*100 + i), int64(101), int64(1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	sel := sqlparser.MustParse("SELECT o_total FROM Orders WHERE o_id = ? AND o_c_id = ?").(*sqlparser.SelectStmt)
	rows, err := e.Query(sim.NewCtx(), sel, []schema.Value{int64(101), int64(1)})
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, err = %v", rows, err)
	}
}

func TestFleetFallsBackAcrossSchemes(t *testing.T) {
	sch := microSchema()
	schemes := []Scheme{
		custScheme(),
		{Name: "by-order", PartitionBy: map[string]string{"Customer": "c_id", "Orders": "o_id"}},
	}
	e := New(sch, schemes, nil)
	var orders []schema.Row
	for o := int64(1); o <= 10; o++ {
		orders = append(orders, schema.Row{"o_id": o, "o_c_id": o % 3, "o_total": float64(o)})
	}
	var customers []schema.Row
	for c := int64(0); c < 3; c++ {
		customers = append(customers, schema.Row{"c_id": c, "c_uname": fmt.Sprintf("u%d", c)})
	}
	if err := e.Load("Orders", orders); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("Customer", customers); err != nil {
		t.Fatal(err)
	}

	// Supported by scheme 1, not scheme 2.
	q1 := sqlparser.MustParse("SELECT * FROM Customer c, Orders o WHERE c.c_id = o.o_c_id").(*sqlparser.SelectStmt)
	rows, err := e.Query(sim.NewCtx(), q1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	if !e.Supported(q1) {
		t.Fatal("q1 should be supported")
	}

	// Supported by scheme 2 only: the Orders self-join on o_id pairs
	// scheme 2's partition columns, not scheme 1's.
	self := sqlparser.MustParse("SELECT * FROM Orders a, Orders b WHERE a.o_id = b.o_id").(*sqlparser.SelectStmt)
	if rows, err := e.Query(sim.NewCtx(), self, nil); err != nil || len(rows) != 10 {
		t.Fatalf("self-join rows = %d, err = %v; want 10 under scheme 2", len(rows), err)
	}

	// Supported by neither: Customer x Orders on o_id under scheme 1;
	// under scheme 2 c_id x o_id IS the partition-column pair, so pick a
	// join unsupported in both.
	q2 := sqlparser.MustParse("SELECT * FROM Customer c, Orders o WHERE c.c_id = o.o_total").(*sqlparser.SelectStmt)
	if e.Supported(q2) {
		t.Fatal("q2 should be unsupported in every scheme")
	}
	if _, err := e.Query(sim.NewCtx(), q2, nil); !errors.Is(err, ErrUnsupportedJoin) {
		t.Fatalf("err = %v, want ErrUnsupportedJoin", err)
	}
}

// TestFleetWritesKeepSchemesConsistent checks that one write is seen under
// every scheme, and that an insert some scheme cannot place is refused.
func TestFleetWritesKeepSchemesConsistent(t *testing.T) {
	sch := microSchema()
	e := New(sch, []Scheme{custScheme(), {Name: "alt", PartitionBy: map[string]string{"Customer": "c_uname", "Orders": "o_id"}}}, nil)
	ctx := sim.NewCtx()
	ins := sqlparser.MustParse("INSERT INTO Customer (c_id, c_uname) VALUES (?, ?)")
	if err := e.Exec(ctx, ins, []schema.Value{int64(1), "x"}); err != nil {
		t.Fatal(err)
	}
	insOrder := sqlparser.MustParse("INSERT INTO Orders (o_id, o_c_id, o_total) VALUES (?, ?, ?)")
	if err := e.Exec(ctx, insOrder, []schema.Value{int64(7), int64(1), 7.0}); err != nil {
		t.Fatal(err)
	}
	if n := e.RowCount("Customer"); n != 1 {
		t.Fatalf("rows = %d, want 1", n)
	}
	for _, sql := range []string{
		"SELECT * FROM Customer c, Orders o WHERE c.c_id = o.o_c_id", // scheme 1
		"SELECT * FROM Orders a, Orders b WHERE a.o_id = b.o_id",     // scheme 2
	} {
		rows, err := e.Query(ctx, sqlparser.MustParse(sql).(*sqlparser.SelectStmt), nil)
		if err != nil || len(rows) != 1 {
			t.Fatalf("%s: rows = %d, err = %v; want 1", sql, len(rows), err)
		}
	}
	// c_uname is the alt scheme's partition column: without it the row
	// has no home there.
	noUname := sqlparser.MustParse("INSERT INTO Customer (c_id) VALUES (?)")
	if err := e.Exec(ctx, noUname, []schema.Value{int64(2)}); err == nil {
		t.Fatal("insert without the alt scheme's partition column was accepted")
	}
	if n := e.RowCount("Customer"); n != 1 {
		t.Fatalf("rows after refused insert = %d, want 1", n)
	}
}

func TestDatabaseBytesSmallerThanKVFormat(t *testing.T) {
	e := loadedEngine(t)
	bytes := e.DatabaseBytes()
	if bytes <= 0 {
		t.Fatal("expected positive storage")
	}
	// 20 customers + 60 orders + 1 country, packed tuples: well under
	// 16KB — the point of Table III's VoltDB column.
	if bytes > 16*1024 {
		t.Fatalf("packed storage = %d bytes, implausibly large", bytes)
	}
}

// TestConcurrentQueriesAndWrites mixes multi-partition SELECTs, which read
// every row, with keyed UPDATEs; run it under -race.
func TestConcurrentQueriesAndWrites(t *testing.T) {
	e := loadedEngine(t)
	scans := []struct {
		sel  *sqlparser.SelectStmt
		rows int
	}{
		{sqlparser.MustParse("SELECT * FROM Customer").(*sqlparser.SelectStmt), 20},
		{sqlparser.MustParse("SELECT * FROM Customer c, Orders o WHERE c.c_id = o.o_c_id").(*sqlparser.SelectStmt), 60},
	}
	up := sqlparser.MustParse("UPDATE Orders SET o_total = ? WHERE o_id = ?")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					sc := scans[i%len(scans)]
					rows, err := e.Query(sim.NewCtx(), sc.sel, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if len(rows) != sc.rows {
						t.Errorf("%s: rows = %d, want %d", sc.sel, len(rows), sc.rows)
						return
					}
					continue
				}
				oid := int64(100*(1+i%20) + w%3)
				if err := e.Exec(sim.NewCtx(), up, []schema.Value{float64(w*1000 + i), oid}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestKeyedWriteMatchesEveryBoundColumn checks that a write whose WHERE
// binds the key and another column changes the row only when that column
// holds the bound value too: order 101 belongs to customer 1, so naming any
// other customer affects no row.
func TestKeyedWriteMatchesEveryBoundColumn(t *testing.T) {
	e := loadedEngine(t)
	up := sqlparser.MustParse("UPDATE Orders SET o_total = ? WHERE o_id = 101 AND o_c_id = ?")
	del := sqlparser.MustParse("DELETE FROM Orders WHERE o_id = 101 AND o_c_id = ?")
	sel := sqlparser.MustParse("SELECT o_total FROM Orders WHERE o_id = 101").(*sqlparser.SelectStmt)
	for c := int64(2); c <= 20; c++ {
		if err := e.Exec(sim.NewCtx(), up, []schema.Value{-1.0, c}); err != nil {
			t.Fatal(err)
		}
		if err := e.Exec(sim.NewCtx(), del, []schema.Value{c}); err != nil {
			t.Fatal(err)
		}
		rows, err := e.Query(sim.NewCtx(), sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0]["o_total"] != 101.0 {
			t.Fatalf("after writes naming o_c_id = %d, order 101 reads %v; want o_total 101", c, rows)
		}
	}
	// Naming the owning customer does write.
	if err := e.Exec(sim.NewCtx(), up, []schema.Value{-1.0, int64(1)}); err != nil {
		t.Fatal(err)
	}
	if rows, _ := e.Query(sim.NewCtx(), sel, nil); len(rows) != 1 || rows[0]["o_total"] != -1.0 {
		t.Fatalf("update naming o_c_id = 1: order 101 reads %v, want o_total -1", rows)
	}
}
