//go:build !race

package synergy_test

import (
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// TestWriteUnitAllocs bounds what write units allocate through a Session,
// their statements prepared once (Session.PrepareWrite), as the wire server
// prepares them: autocommit W13 and W4 on a Customer-only system, 5 and 4
// allocations, and one buy-confirm transaction of the TPC-W ordering mix —
// R2 and Q8, then W1, W3 three times, W2, W9 and W13 — 122. The bounds give
// each about 5 % headroom, and at least one allocation. A unit pays for the
// keys and values the store keeps, not for their scaffolding: its mutator, its
// lock and mark lists, its bound statements, the cell lists it hands the
// mutator and the rows it reads are its transaction's recycled scratch (15, 11
// and 346 when each unit allocated them), the memstore cuts rows from blocks,
// the write plan and the WAL text are the prepared statement's, a commit's
// records are appended by hand into a recycled buffer, an update keys each
// view-index entry once, and the keys of its parent reads and the bounds of
// its reads are cut from the session's string block (the buy-confirm measured
// 139, bound 145, when each was a string of its own). Before, when a write was
// bound, planned and rendered for the log at every execution, the same units
// took 42, 40 and 826. (Not built under -race, which makes sync.Pool drop
// pooled buffers at random.)
func TestWriteUnitAllocs(t *testing.T) {
	const runs = 50
	stmt := func(id string) sqlparser.Statement {
		st, ok := tpcw.StatementByID(id)
		if !ok {
			t.Fatalf("no statement %s", id)
		}
		return sqlparser.MustParse(st.SQL)
	}
	check := func(unit string, bound float64, f func()) {
		t.Helper()
		n := testing.AllocsPerRun(runs, f)
		if n > bound {
			t.Errorf("%s: %v allocations, want at most %v", unit, n, bound)
		}
		t.Logf("%s: %v allocations", unit, n)
	}
	// Each run's parameters are built before it, so the measure is the unit's.
	paramsFor := func(build func(run int) []schema.Value) func() []schema.Arg {
		all := make([][]schema.Arg, runs+1)
		for i := range all {
			all[i] = unbox(t, build(i))
		}
		next := 0
		return func() []schema.Arg { next++; return all[next-1] }
	}
	exec := func(sess *synergy.Session, pw *synergy.PreparedWrite, params []schema.Arg) {
		if err := sess.ExecPrepared(sim.NewCtx(), pw, params); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("scan", func(t *testing.T) {
		cs := schema.New()
		c := tpcw.Schema().Relation("Customer")
		cs.AddRelation(&schema.Relation{Name: c.Name, Columns: c.Columns, PK: c.PK})
		sys, err := synergy.New(cs, []string{"Customer"}, nil, synergy.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadBase("Customer", tpcw.GenerateCustomers(2000, 1)); err != nil {
			t.Fatal(err)
		}
		sess := sys.NewSession()
		w13, w4 := sess.PrepareWrite(stmt("W13")), sess.PrepareWrite(stmt("W4"))
		up := paramsFor(func(i int) []schema.Value {
			return []schema.Value{5.0, 6.0, int64(19500), int64(i % 100), int64(1 + i*37%2000)}
		})
		check("W13", 6, func() { exec(sess, w13, up()) })
		ins := paramsFor(func(i int) []schema.Value {
			id := int64(100_000 + i)
			return []schema.Value{id, tpcw.Uname(id), "pass", "fn", "ln", int64(5), "555", "e@x",
				int64(19500), int64(19600), int64(0), int64(21000), 0.1, 0.0, 0.0, int64(1980), "data"}
		})
		check("W4", 5, func() { exec(sess, w4, ins()) })
	})

	t.Run("buy-confirm", func(t *testing.T) {
		data := tpcw.Generate(40, 7)
		sys := tpcwSystem(t, data, synergy.Config{})
		sess := sys.NewSession()
		r2, _ := tpcw.StatementByID("R2")
		q8, _ := tpcw.StatementByID("Q8")
		pr2, err := sess.Prepare(parseSelect(t, r2.SQL))
		if err != nil {
			t.Fatal(err)
		}
		pq8, err := sess.Prepare(parseSelect(t, q8.SQL))
		if err != nil {
			t.Fatal(err)
		}
		w := map[string]*synergy.PreparedWrite{}
		for _, id := range []string{"W1", "W2", "W3", "W9", "W13"} {
			w[id] = sess.PrepareWrite(stmt(id))
		}
		type unit struct {
			r2, q8, w1, w2, w9, w13 []schema.Arg
			w3                      [3][]schema.Arg
		}
		units := make([]unit, runs+1)
		for i := range units {
			cust, oid := int64(1+i*7%data.Card.Customers), int64(1_000_000+i)
			items := [3]int64{int64(1 + i*3%data.Card.Items), int64(1 + (i*3+1)%data.Card.Items), int64(1 + (i*3+2)%data.Card.Items)}
			u := &units[i]
			u.r2 = unbox(t, []schema.Value{tpcw.Uname(cust)})
			u.q8 = unbox(t, []schema.Value{int64(1 + i%data.Card.Carts)})
			u.w1 = unbox(t, []schema.Value{oid, cust, int64(19500), 12.5, 1.0, 13.5, "AIR", int64(19600), int64(3), int64(4), "PENDING"})
			for l, item := range items {
				u.w3[l] = unbox(t, []schema.Value{oid, int64(l + 1), item, int64(2), 0.1, "comment"})
			}
			u.w2 = unbox(t, []schema.Value{oid, "VISA", "4111111111111111", "name", int64(20001), "auth", 13.5, int64(19500), int64(2)})
			u.w9 = unbox(t, []schema.Value{int64(10 + i%20), items[2]})
			u.w13 = unbox(t, []schema.Value{5.0, 6.0, int64(19500), int64(i % 100), cust})
		}
		read := func(p *synergy.Prepared, params []schema.Arg) {
			ctx := sim.NewCtx()
			cur, err := sess.Open(ctx, p, params)
			if err != nil {
				t.Fatal(err)
			}
			for cur.Next(ctx) {
			}
			if err := cur.Close(ctx); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		check("buy-confirm", 128, func() {
			u := &units[next]
			next++
			if err := sess.Begin(sim.NewCtx()); err != nil {
				t.Fatal(err)
			}
			read(pr2, u.r2)
			read(pq8, u.q8)
			exec(sess, w["W1"], u.w1)
			for _, p := range u.w3 {
				exec(sess, w["W3"], p)
			}
			exec(sess, w["W2"], u.w2)
			exec(sess, w["W9"], u.w9)
			exec(sess, w["W13"], u.w13)
			if err := sess.Commit(sim.NewCtx()); err != nil {
				t.Fatal(err)
			}
		})
	})
}
