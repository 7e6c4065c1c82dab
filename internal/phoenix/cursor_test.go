package phoenix

import (
	"errors"
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
// engine stays healthy: while nothing reopens the closed block — the plan
// here is compiled for this one execution — a second Close is a no-op and
// Next reports exhaustion, and a fresh query over the same table still sees
// every row (the scanner returned its pooled chunk without corrupting it).
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

// countingCommit is a QueryOpts.Commit that counts its commits and fails
// with err.
type countingCommit struct {
	n   int
	err error
}

func (c *countingCommit) Commit(*sim.Ctx) error {
	c.n++
	return c.err
}

// TestCloseCommits checks that a cursor reading in a transaction of its own
// (QueryOpts.Commit) commits it once, at Close, after its rows, and returns
// the commit's error.
func TestCloseCommits(t *testing.T) {
	e, ctx := testDB(t)
	sel := sqlparser.MustParse("SELECT * FROM Customer").(*sqlparser.SelectStmt)
	plan, err := e.Compile(sel)
	if err != nil {
		t.Fatal(err)
	}
	conflict := errors.New("conflict")
	for _, want := range []error{nil, conflict} {
		tx := &countingCommit{err: want}
		cur, err := plan.Open(ctx, nil, QueryOpts{Commit: tx})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for cur.Next(ctx) {
			n++
		}
		if tx.n != 0 {
			t.Fatalf("committed %d times before Close", tx.n)
		}
		if err := cur.Close(ctx); err != want {
			t.Fatalf("Close returned %v, want %v", err, want)
		}
		if tx.n != 1 || n != 10 {
			t.Fatalf("%d rows, %d commits: want 10 rows, 1 commit", n, tx.n)
		}
	}
}
