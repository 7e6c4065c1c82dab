package tpcw

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synergy/internal/core"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exec_parity.golden from the current executor")

// parityExtras are statements beyond Q1-Q11/R1-R4 that pin executor
// behaviour the TPC-W set does not reach: a three-binding base-table hash
// join (the spill charge), same-binding column comparisons, residual and
// cartesian joins, aggregates with and without GROUP BY, a filtered derived
// table, literal select items and mixed-type comparisons.
var parityExtras = []Stmt{
	{ID: "X1", SQL: `SELECT o.o_id, a.addr_city, co.co_name FROM Orders o, Address a, Country co
		WHERE o.o_bill_addr_id = a.addr_id AND a.addr_co_id = co.co_id AND o.o_total > ?`,
		Params: func(*Data, *sim.RNG) []schema.Value { return []schema.Value{900.0} }},
	{ID: "X2", SQL: `SELECT i_id, i_srp, i_cost FROM Item WHERE i_cost < i_srp AND i_stock >= 15 AND i_page <> 300
		ORDER BY i_cost DESC, i_id LIMIT 20`,
		Params: func(*Data, *sim.RNG) []schema.Value { return nil }},
	{ID: "X3", SQL: `SELECT a.a_id, i.i_id FROM Author a, Item i
		WHERE a.a_id = i.i_a_id AND i.i_pub_date > a.a_dob AND a.a_id <= 5`,
		Params: func(*Data, *sim.RNG) []schema.Value { return nil }},
	{ID: "X4", SQL: `SELECT co.co_name, sc.sc_id FROM Country co, Shopping_cart sc WHERE co.co_id < 3 AND sc.sc_id < 4`,
		Params: func(*Data, *sim.RNG) []schema.Value { return nil }},
	{ID: "X5", SQL: `SELECT COUNT(*), MIN(i_cost), MAX(i_title), AVG(i_srp), SUM(i_stock) FROM Item WHERE i_subject = ?`,
		Params: func(_ *Data, rng *sim.RNG) []schema.Value { return []schema.Value{randSubject(rng)} }},
	{ID: "X6", SQL: `SELECT o_status, o_c_id, COUNT(*) AS n, SUM(o_total) AS total FROM Orders
		GROUP BY o_status, o_c_id ORDER BY n DESC, o_c_id LIMIT 12`,
		Params: func(*Data, *sim.RNG) []schema.Value { return nil }},
	{ID: "X7", SQL: `SELECT t.o_id, t.o_total FROM (SELECT o_id, o_total, o_c_id FROM Orders ORDER BY o_total DESC LIMIT 40) t
		WHERE t.o_c_id < 20`,
		Params: func(*Data, *sim.RNG) []schema.Value { return nil }},
	{ID: "X8", SQL: `SELECT c_id, c_uname FROM Customer WHERE c_balance >= 0 LIMIT 7`,
		Params: func(*Data, *sim.RNG) []schema.Value { return nil }},
	{ID: "X9", SQL: `SELECT i_id, i_stock FROM Item WHERE i_stock = ? AND i_title > ? ORDER BY i_id`,
		Params: func(*Data, *sim.RNG) []schema.Value { return []schema.Value{15.0, int64(5)} }},
	{ID: "X10", SQL: `SELECT a.a_id, 'lit', i.i_title AS title FROM Author a, Item i WHERE a.a_id = i.i_a_id AND i.i_id = 3`,
		Params: func(*Data, *sim.RNG) []schema.Value { return nil }},
	{ID: "X11", SQL: `SELECT ol.ol_i_id, COUNT(*) AS n, MIN(ol.ol_discount) AS lo, MAX(ol.ol_qty) AS hi
		FROM Orders o, Order_line ol, Item i
		WHERE ol.ol_o_id = o.o_id AND ol.ol_i_id = i.i_id AND o.o_total > 500 AND i.i_stock < 20
		GROUP BY ol.ol_i_id ORDER BY n DESC, ol.ol_i_id LIMIT 15`,
		Params: func(*Data, *sim.RNG) []schema.Value { return nil }},
}

// parityWrites run inside the overlay and OCC transactions before their
// queries, so the read-your-writes merge has pending inserts, updates and a
// row with NULL columns to fold into the scans.
var parityWrites = []struct {
	sql    string
	params []schema.Value
}{
	{`INSERT INTO Item (i_id, i_a_id, i_subject, i_stock, i_cost) VALUES (?, ?, ?, ?, ?)`,
		[]schema.Value{int64(900001), int64(1), "ARTS", int64(15), 3.5}},
	{`UPDATE Item SET i_stock = ? WHERE i_id = ?`, []schema.Value{int64(15), int64(3)}},
	{`INSERT INTO Order_line (ol_o_id, ol_id, ol_i_id, ol_qty, ol_discount, ol_comments) VALUES (?, ?, ?, ?, ?, ?)`,
		[]schema.Value{int64(1), int64(900), int64(3), int64(4), 0.25, "parity"}},
	{`UPDATE Customer SET c_balance = ? WHERE c_id = ?`, []schema.Value{-5.0, int64(1)}},
	{`INSERT INTO Shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) VALUES (?, ?, ?)`,
		[]schema.Value{int64(1), int64(3), int64(2)}},
}

func parityStatements() []Stmt {
	out := append(JoinQueries(), PointReads()...)
	return append(out, parityExtras...)
}

func paritySystem(t *testing.T, data *Data, cfg synergy.Config) *synergy.System {
	t.Helper()
	cfg.BaseIndexes = BaseIndexes()
	sys, err := synergy.New(Schema(), Roots(), WorkloadSQL(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range data.TableNames() {
		if err := sys.LoadBase(table, data.Tables[table]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.BuildViews(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// rewriteForParity mirrors System.rewriteFor so the plain mode can hand the
// engine the same view-based statement the system-level modes execute.
func rewriteForParity(sys *synergy.System, sel *sqlparser.SelectStmt, viewsOn bool) *sqlparser.SelectStmt {
	if !viewsOn {
		return sel
	}
	var mat []*core.View
	for _, v := range core.SelectViewsForQuery(sys.Design.Schema, sys.Design.Candidates.Trees, sel) {
		if fv := sys.Design.ViewByName(v.Name()); fv != nil {
			mat = append(mat, fv)
		}
	}
	rw := core.RewriteQuery(sel, mat)
	rw.ExpandStar(sys.Design.Schema)
	return rw.Stmt
}

func renderResult(b *strings.Builder, rs *phoenix.ResultSet, st sim.Stats) {
	fmt.Fprintf(b, "cols: %s\n", strings.Join(rs.Columns, ","))
	fmt.Fprintf(b, "stats: elapsed=%d rpcs=%d scanned=%d returned=%d bytes=%d restarts=%d\n",
		int64(st.Elapsed), st.RPCs, st.RowsScanned, st.RowsReturned, st.BytesMoved, st.Restarts)
	for _, row := range rs.Rows {
		for i, c := range rs.Columns {
			if i > 0 {
				b.WriteByte('|')
			}
			if v, ok := row[c]; ok {
				fmt.Fprintf(b, "%#v", v)
			} else {
				b.WriteString("<absent>")
			}
		}
		b.WriteByte('\n')
	}
}

// TestExecutorParityGolden replays Q1-Q11, R1-R4 and the extras on a small
// fixed TPC-W load — views on and off — through every read option the
// executor serves: plain, the §VIII-C dirty check, a transaction's
// read-your-writes overlay and an OCC tracking reader. Result columns, rows,
// row order and the request's simulated work (elapsed µs, RPCs, rows
// scanned/returned, bytes, restarts) must match the golden recorded before
// the positional-tuple rewrite: the executor's row model is free to change,
// what a statement returns and what it is charged are not.
func TestExecutorParityGolden(t *testing.T) {
	data := Generate(40, 7)
	var got strings.Builder

	run := func(label string, st Stmt, params []schema.Value, q func(ctx *sim.Ctx, sel *sqlparser.SelectStmt) (*phoenix.ResultSet, error)) {
		t.Helper()
		sel := sqlparser.MustParse(st.SQL).(*sqlparser.SelectStmt)
		ctx := sim.NewCtx()
		rs, err := q(ctx, sel)
		fmt.Fprintf(&got, "== %s %s params=%#v\n", label, st.ID, params)
		if err != nil {
			fmt.Fprintf(&got, "error: %v\n", err)
			return
		}
		renderResult(&got, rs, ctx.Snapshot())
	}
	paramSets := func(st Stmt) [][]schema.Value {
		rng := sim.NewRNG(11).Derive(st.ID)
		return [][]schema.Value{st.Params(data, rng), st.Params(data, rng)}
	}
	inTxn := func(sys *synergy.System, fn func(tx *synergy.Tx)) {
		t.Helper()
		ctx := sim.NewCtx()
		tx := sys.BeginTx(ctx)
		for _, w := range parityWrites {
			if err := tx.Exec(ctx, sqlparser.MustParse(w.sql), w.params); err != nil {
				t.Fatalf("parity write %q: %v", w.sql, err)
			}
		}
		fn(tx)
		if err := tx.Abort(ctx); err != nil {
			t.Fatal(err)
		}
	}

	lowINL := sim.DefaultCosts()
	lowINL.INLThreshold = 10 // hash joins (and their spill) at this scale

	for _, views := range []bool{true, false} {
		name := map[bool]string{true: "views", false: "base"}[views]
		hier := paritySystem(t, data, synergy.Config{Concurrency: synergy.Hierarchical, DisableViews: !views})
		hash := paritySystem(t, data, synergy.Config{Concurrency: synergy.Hierarchical, DisableViews: !views, Costs: lowINL})
		occ := paritySystem(t, data, synergy.Config{Concurrency: synergy.OCC, DisableViews: !views})
		for _, st := range parityStatements() {
			for _, params := range paramSets(st) {
				run(name+"/plain", st, params, func(ctx *sim.Ctx, sel *sqlparser.SelectStmt) (*phoenix.ResultSet, error) {
					return hier.Engine.QueryOpts(ctx, rewriteForParity(hier, sel, views), params, phoenix.QueryOpts{})
				})
				run(name+"/hashjoin", st, params, func(ctx *sim.Ctx, sel *sqlparser.SelectStmt) (*phoenix.ResultSet, error) {
					return hash.Engine.QueryOpts(ctx, rewriteForParity(hash, sel, views), params, phoenix.QueryOpts{})
				})
				run(name+"/dirtycheck", st, params, func(ctx *sim.Ctx, sel *sqlparser.SelectStmt) (*phoenix.ResultSet, error) {
					return hier.Query(ctx, sel, params)
				})
			}
		}
		inTxn(hier, func(tx *synergy.Tx) {
			for _, st := range parityStatements() {
				for _, params := range paramSets(st) {
					run(name+"/overlay", st, params, func(ctx *sim.Ctx, sel *sqlparser.SelectStmt) (*phoenix.ResultSet, error) {
						return tx.Query(ctx, sel, params)
					})
				}
			}
		})
		inTxn(occ, func(tx *synergy.Tx) {
			for _, st := range parityStatements() {
				for _, params := range paramSets(st) {
					run(name+"/occreader", st, params, func(ctx *sim.Ctx, sel *sqlparser.SelectStmt) (*phoenix.ResultSet, error) {
						return tx.Query(ctx, sel, params)
					})
				}
			}
		})
	}

	path := filepath.Join("testdata", "exec_parity.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("executor output diverges from golden at line %d (%s)\n got: %s\nwant: %s", i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("executor output has %d lines, golden %d", len(gl), len(wl))
}
