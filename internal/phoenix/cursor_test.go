package phoenix

import (
	"reflect"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// streamShapes covers every execution shape the cursor path handles: the
// streaming-eligible single-binding scans (point, index, filter, PK prefix,
// bare LIMIT) and the blocking shapes that materialize internally and drain
// through the same cursor (joins, ORDER BY, GROUP BY, global aggregates,
// derived tables).
var streamShapes = []struct {
	name   string
	sql    string
	params []schema.Value
}{
	{"point", "SELECT * FROM Customer WHERE c_id = ?", []schema.Value{int64(3)}},
	{"index", "SELECT c_id, c_bal FROM Customer WHERE c_uname = ?", []schema.Value{"user07"}},
	{"filter-scan", "SELECT * FROM Customer WHERE c_bal > 80.0", nil},
	{"full-scan", "SELECT * FROM Orders", nil},
	{"projection", "SELECT o_id, o_total FROM Orders", nil},
	{"limit", "SELECT * FROM Orders LIMIT 7", nil},
	{"join", "SELECT * FROM Customer c, Orders o WHERE c.c_id = o.o_c_id AND c.c_uname = ?", []schema.Value{"user02"}},
	{"order-by", "SELECT o_id FROM Orders ORDER BY o_date DESC LIMIT 5", nil},
	{"group-by", "SELECT o_c_id, COUNT(*) AS n, SUM(o_total) AS tot FROM Orders GROUP BY o_c_id", nil},
	{"aggregate", "SELECT COUNT(*) AS n, MIN(o_total) AS lo, MAX(o_total) AS hi FROM Orders", nil},
}

// TestQueryStreamMatchesQuery checks cursor execution returns exactly the
// materialized result — same columns, same rows, same order — for every
// shape.
func TestQueryStreamMatchesQuery(t *testing.T) {
	for _, shape := range streamShapes {
		t.Run(shape.name, func(t *testing.T) {
			e, ctx := testDB(t)
			sel := sqlparser.MustParse(shape.sql).(*sqlparser.SelectStmt)
			want, err := e.Query(ctx, sel, shape.params)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := e.QueryStream(sim.NewCtx(), sel, shape.params)
			if err != nil {
				t.Fatal(err)
			}
			ctx2 := sim.NewCtx()
			got, err := DrainCursor(ctx2, cur)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Columns, want.Columns) {
				t.Fatalf("columns: cursor %v, query %v", got.Columns, want.Columns)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("rows diverge:\ncursor %v\nquery  %v", got.Rows, want.Rows)
			}
		})
	}
}

// TestStreamCursorRawView checks the encoded view every cursor serves — the
// streamed ones off the scanner and the materialized ones off the executor's
// tuples — decodes, column by column and row by row, to what Query returns.
func TestStreamCursorRawView(t *testing.T) {
	for _, shape := range streamShapes {
		t.Run(shape.name, func(t *testing.T) {
			e, ctx := testDB(t)
			sel := sqlparser.MustParse(shape.sql).(*sqlparser.SelectStmt)
			want, err := e.Query(ctx, sel, shape.params)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := e.QueryStream(ctx, sel, shape.params)
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close(ctx)
			n := 0
			for cur.Next(ctx) {
				if n == len(want.Rows) {
					t.Fatalf("cursor streams more than Query's %d rows", n)
				}
				for i, col := range cur.Columns() {
					if v := DecodeValue(cur.RawValue(i)); !reflect.DeepEqual(v, want.Rows[n][col]) {
						t.Fatalf("row %d col %s: raw %#v, query %#v", n, col, v, want.Rows[n][col])
					}
				}
				n++
			}
			if err := cur.Err(); err != nil {
				t.Fatal(err)
			}
			if n != len(want.Rows) || n == 0 {
				t.Fatalf("streamed %d rows, Query returned %d", n, len(want.Rows))
			}
		})
	}
}

// TestCursorEarlyClose abandons a streamed scan after one row and checks the
// engine stays healthy: Close is idempotent, Next after Close reports
// exhaustion, and a fresh query over the same table still sees every row
// (the scanner returned its pooled chunk without corrupting it).
func TestCursorEarlyClose(t *testing.T) {
	e, ctx := testDB(t)
	sel := sqlparser.MustParse("SELECT * FROM Orders").(*sqlparser.SelectStmt)
	cur, err := e.QueryStream(ctx, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next(ctx) {
		t.Fatal("no first row")
	}
	if err := cur.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if cur.Next(ctx) {
		t.Fatal("Next after Close returned a row")
	}
	rs, err := e.Query(ctx, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 30 {
		t.Fatalf("post-abandon scan saw %d rows, want 30", len(rs.Rows))
	}
}

// TestCursorLimitPushdown checks a bare LIMIT reaches the region scanner:
// the streamed scan must charge strictly less simulated work than the
// unlimited one, not trim client-side after a full drain.
func TestCursorLimitPushdown(t *testing.T) {
	e, _ := testDB(t)
	cost := func(sql string) sim.Micros {
		ctx := sim.NewCtx()
		sel := sqlparser.MustParse(sql).(*sqlparser.SelectStmt)
		cur, err := e.QueryStream(ctx, sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next(ctx) {
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx.Elapsed()
	}
	full := cost("SELECT * FROM Orders")
	limited := cost("SELECT * FROM Orders LIMIT 2")
	if limited >= full {
		t.Fatalf("LIMIT 2 cost %d >= full scan cost %d; limit not pushed down", limited, full)
	}
}

// TestWithCloseHook checks the hook fires exactly once with the cursor's
// terminal state, and that the wrapper serves the inner cursor's rows.
func TestWithCloseHook(t *testing.T) {
	e, ctx := testDB(t)
	sel := sqlparser.MustParse("SELECT * FROM Customer").(*sqlparser.SelectStmt)
	inner, err := e.QueryStream(ctx, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	cur := WithClose(inner, func(ctx *sim.Ctx, c RowCursor) error {
		calls++
		if err := c.Err(); err != nil {
			t.Fatalf("hook saw cursor error %v", err)
		}
		return nil
	})
	n := 0
	for cur.Next(ctx) {
		n++
		if got, want := cur.RawValue(0), inner.RawValue(0); len(got) == 0 || &got[0] != &want[0] {
			t.Fatalf("row %d: wrapper's RawValue is not the inner cursor's", n)
		}
	}
	if err := cur.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("close hook ran %d times, want 1", calls)
	}
	if n != 10 {
		t.Fatalf("streamed %d rows, want 10", n)
	}
}
