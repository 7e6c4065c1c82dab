package phoenix

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// TestSpareBlockHoldsNothing runs statements of every shape the executor
// builds — a point read, a kept and sorted scan, index nested-loop, hash and
// cartesian joins, a residual filter, a region fold, a client-side GROUP BY
// under a sort and a limit, derived tables on a hash join's build side — three
// times each with varying parameters, and checks the block each Close hands
// back to its plan (and to a derived table's subquery plan): the next
// execution reopens it, and it holds no reference into the store or anything
// else outside it — no value, key, scanner, filter, option or parameter — and
// no array above maxKept bytes, so one large result pins nothing.
func TestSpareBlockHoldsNothing(t *testing.T) {
	small, _ := testDB(t)
	for _, tc := range []struct {
		eng *Engine
		sql string
	}{
		{small, `SELECT * FROM Customer WHERE c_id = ?`},
		{small, `SELECT c_uname, c_bal FROM Customer WHERE c_bal > ? ORDER BY c_uname DESC`},
		{small, `SELECT c.c_uname, o.o_total FROM Customer c, Orders o WHERE c.c_id = o.o_c_id AND c.c_id <= ?`},
		{small, `SELECT o.o_id, ol.ol_qty FROM Orders o, Order_line ol WHERE o.o_id = ol.ol_o_id AND o.o_total >= ?`},
		{small, `SELECT c.c_id, o.o_id FROM Customer c, Orders o WHERE c.c_id <= ? AND o.o_id <= 2`},
		{small, `SELECT c.c_id, o.o_id FROM Customer c, Orders o WHERE c.c_id = o.o_c_id AND o.o_total < c.c_bal AND c.c_id <= ?`},
		{small, `SELECT o_c_id, COUNT(*) AS n, SUM(o_total) AS t, MAX(o_date) AS d FROM Orders WHERE o_id >= ? GROUP BY o_c_id`},
		{small, `SELECT c.c_uname, SUM(o.o_total) AS t FROM Customer c, Orders o WHERE c.c_id = o.o_c_id AND o.o_id >= ?
			GROUP BY c.c_uname ORDER BY t DESC LIMIT 3`},
		{small, `SELECT c.c_uname, t.o_id FROM Customer c, (SELECT o_id, o_c_id FROM Orders WHERE o_id >= ? ORDER BY o_date DESC LIMIT 5) t
			WHERE c.c_id = t.o_c_id`},
		{hashJoinDB(t), `SELECT p.p_id, t.b_id FROM P p, (SELECT b_id FROM B ORDER BY b_date DESC LIMIT 3333) t
			WHERE p.p_b = t.b_id AND p.p_id >= ?`},
	} {
		sel, err := sqlparser.ParseSelect(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := tc.eng.Compile(sel)
		if err != nil {
			t.Fatal(err)
		}
		// Options the block must not keep either: a read filter, a commit.
		opts := QueryOpts{Read: hbase.ReadOpts{Excluded: func(int64) bool { return false }}, Commit: &countingCommit{}}
		var last *query
		for i := range 3 {
			ctx := sim.NewCtx()
			cur, err := plan.Open(ctx, []schema.Arg{schema.IntArg(int64(1 + 2*i))}, opts)
			if err != nil {
				t.Fatal(err)
			}
			q := cur.(*query)
			if last != nil && q != last {
				t.Errorf("%s: execution %d did not reopen its plan's spare block", tc.sql, i)
			}
			n := 0
			for cur.Next(ctx) {
				n++
			}
			if err := cur.Close(ctx); err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Errorf("%s: execution %d read no rows", tc.sql, i)
			}
			if last = plan.spare.Load(); last != q {
				t.Fatalf("%s: Close did not hand the block back", tc.sql)
			}
			checkSpare(t, tc.sql, plan)
			for _, b := range plan.bindings {
				if b.sub != nil {
					if b.sub.spare.Load() == nil {
						t.Errorf("%s: the derived table's block did not go back with its parent's", tc.sql)
					}
					checkSpare(t, tc.sql+" (derived "+b.name+")", b.sub)
				}
			}
		}
	}
}

// checkSpare reports what p's spare block still holds (see
// TestSpareBlockHoldsNothing). A block may point at its plan, and keep byte
// buffers of its own: a key table's arena, a scratch key, the values a
// GROUP BY computed.
func checkSpare(t *testing.T, what string, p *Plan) {
	t.Helper()
	planType := reflect.TypeOf(p)
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.String:
			if v.Len() > 0 {
				t.Errorf("%s: spare block holds %s = %q", what, path, v.String())
			}
		case reflect.Func, reflect.Interface, reflect.Map, reflect.Chan:
			if !v.IsNil() {
				t.Errorf("%s: spare block holds %s (%s)", what, path, v.Type())
			}
		case reflect.Pointer:
			if !v.IsNil() && v.Type() != planType {
				t.Errorf("%s: spare block holds %s (%s)", what, path, v.Type())
			}
		case reflect.Slice:
			if v.IsNil() {
				return
			}
			if size := v.Cap() * int(v.Type().Elem().Size()); size > maxKept {
				t.Errorf("%s: spare block keeps %s of %d bytes, above %d", what, path, size, maxKept)
			}
			if v.Type().Elem().Kind() == reflect.Uint8 {
				if name := path[strings.LastIndexByte(path, '.')+1:]; name != "arena" && name != "key" && name != "buf" {
					t.Errorf("%s: spare block holds bytes at %s", what, path)
				}
				return
			}
			all := v.Slice(0, v.Cap())
			for i := range all.Len() {
				walk(all.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Array:
			for i := range v.Len() {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Struct:
			for i := range v.NumField() {
				if f := v.Type().Field(i); f.Type != planType {
					walk(v.Field(i), path+"."+f.Name)
				}
			}
		}
	}
	walk(reflect.ValueOf(p.spare.Load()).Elem(), "query")
}
