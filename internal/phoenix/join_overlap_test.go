package phoenix

import (
	"errors"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// The statements below run over hashJoinDB: P holds 600 rows keyed by p_id, B
// 4,000 keyed by b_id, and p_b, which P joins B on, is no key of P.
const (
	// smallBuildSQL hash-joins a 10-row derived table, now the outer side, to
	// P, which no key of P's lets it probe by p_b.
	smallBuildSQL = `SELECT p.p_id, t.b_id FROM P p, (SELECT b_id FROM B ORDER BY b_date DESC LIMIT 10) t WHERE p.p_b = t.b_id`
	// inlSQL joins P to B by B's key: an index nested loop, or with more than
	// INLThreshold outer rows a hash join on a full scan of B.
	inlSQL = `SELECT p.p_id, b.b_date FROM P p, B b WHERE p.p_b = b.b_id AND p.p_id <= ?`
)

// joinBranches runs the pieces of a two-binding join one at a time, each on
// its own context, as the statement's hash join would: the derived tables'
// reads as bind made them, and each table's full scan. It returns the
// execution, each binding's read by binding.idx, and each binding's rows.
func joinBranches(t *testing.T, eng *Engine, sql string, params ...any) (*query, [2]*sim.Ctx, [2]int) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Compile(sel)
	if err != nil {
		t.Fatal(err)
	}
	q, err := plan.bind(sim.NewCtx(), params, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var reads [2]*sim.Ctx
	var rows [2]int
	for _, b := range q.bindings {
		reads[b.idx] = sim.NewCtx()
		if b.sub != nil {
			reads[b.idx].Join(&q.execs[b.idx].read)
			rows[b.idx] = len(q.execs[b.idx].derived)
			continue
		}
		got, err := rowsOf(reads[b.idx], &scanNode{q: q, b: b, path: q.fullPlan(b), wide: true, keep: true})
		if err != nil {
			t.Fatal(err)
		}
		rows[b.idx] = len(got)
	}
	return q, reads, rows
}

// start returns the binding the statement's tree scans first.
func start(q *query) *binding {
	tree := q.tree(false)
	for {
		switch n := tree.(type) {
		case *joinNode:
			tree = n.outer
		case *scanNode:
			return n.b
		default:
			panic("unexpected node")
		}
	}
}

func runStmt(t *testing.T, eng *Engine, sql string, params ...any) sim.Stats {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewCtx()
	drainRaw(t, eng, ctx, sel, params...)
	return ctx.Snapshot()
}

// TestHashJoinOverlapCharges pins the charge of a join that cannot probe its
// inner side by key: the outer side is read on one branch, the inner side and
// its hash table on another, and the statement takes the longer branch plus
// the probe — whichever branch is the longer. The work is every branch's.
func TestHashJoinOverlapCharges(t *testing.T) {
	eng := hashJoinDB(t)
	costs := eng.costs
	longer := map[string]string{hashJoinSQL: "inner", smallBuildSQL: "outer"}
	for _, sql := range []string{hashJoinSQL, smallBuildSQL} {
		q, reads, rows := joinBranches(t, eng, sql)
		o := start(q)
		in := q.bindings[1-o.idx]
		outer := reads[o.idx].Elapsed()
		inner := reads[in.idx].Elapsed() + sim.Micros(int64(rows[in.idx])*int64(costs.JoinBuildRow))
		probe := sim.Micros(int64(rows[o.idx]) * int64(costs.JoinProbeRow))

		got := runStmt(t, eng, sql)
		if want := max(outer, inner) + probe; got.Elapsed != want {
			t.Errorf("%s: elapsed %v, want max(outer %v, inner read + build %v) + probe %v = %v",
				sql, got.Elapsed, outer, inner, probe, want)
		}
		if which := map[bool]string{true: "outer", false: "inner"}[outer > inner]; which != longer[sql] {
			t.Errorf("%s: the %s branch is the longer, want the %s", sql, which, longer[sql])
		}
		work := reads[0].Snapshot()
		w1 := reads[1].Snapshot()
		work.RPCs += w1.RPCs
		work.RowsScanned += w1.RowsScanned
		work.BytesMoved += w1.BytesMoved
		if got.RPCs != work.RPCs || got.RowsScanned != work.RowsScanned || got.BytesMoved != work.BytesMoved {
			t.Errorf("%s: rpcs %d, scanned %d, bytes %d; the branches did rpcs %d, scanned %d, bytes %d",
				sql, got.RPCs, got.RowsScanned, got.BytesMoved, work.RPCs, work.RowsScanned, work.BytesMoved)
		}
	}
}

// TestINLJoinChargesSequential pins that a join which can probe its inner
// side by key reads its sides one after the other, whichever algorithm the
// outer side's rows pick: the index nested loop's probes follow the outer
// read, and so does the hash join's full scan of the inner side when the
// outer side holds more than INLThreshold rows.
func TestINLJoinChargesSequential(t *testing.T) {
	eng := hashJoinDB(t)
	const outerRows = 300

	// Index nested loop: the outer read, then the join with its outer rows
	// in hand, which is the probes alone.
	q, reads, rows := joinBranches(t, eng, inlSQL, int64(outerRows))
	p, b := q.bindings[0], q.bindings[1]
	if start(q) != p || rows[p.idx] != outerRows {
		t.Fatalf("the join starts at %s with %d rows, want P with %d", start(q).name, rows[p.idx], outerRows)
	}
	outer, err := rowsOf(sim.NewCtx(), &scanNode{q: q, b: p, path: q.fullPlan(p), wide: true, keep: true})
	if err != nil {
		t.Fatal(err)
	}
	outerCols, innerCols := q.joinCols(map[*binding]bool{p: true}, b)
	probes := sim.NewCtx()
	j := &joinNode{q: q, outer: &inHand{list{rows: outer}}, b: b, outerCols: outerCols, innerCols: innerCols}
	if err := j.Open(probes); err != nil || len(j.rows) != outerRows {
		t.Fatalf("%d rows, err %v", len(j.rows), err)
	}
	got := runStmt(t, eng, inlSQL, int64(outerRows))
	if want := reads[p.idx].Elapsed() + probes.Elapsed(); got.Elapsed != want {
		t.Errorf("index nested loop: elapsed %v, want outer %v + probes %v = %v", got.Elapsed, reads[p.idx].Elapsed(), probes.Elapsed(), want)
	}
	if want := reads[p.idx].Snapshot().RPCs + probes.Snapshot().RPCs; got.RPCs != want {
		t.Errorf("index nested loop: rpcs %d, want %d", got.RPCs, want)
	}

	// Past the threshold: a hash join on a full scan of B, every charge in
	// sequence.
	costs := *eng.costs
	costs.INLThreshold = outerRows - 1
	eng.costs = &costs
	got = runStmt(t, eng, inlSQL, int64(outerRows))
	build := sim.Micros(int64(rows[b.idx]) * int64(costs.JoinBuildRow))
	probe := sim.Micros(int64(outerRows) * int64(costs.JoinProbeRow))
	if want := reads[p.idx].Elapsed() + reads[b.idx].Elapsed() + build + probe; got.Elapsed != want {
		t.Errorf("hash join: elapsed %v, want outer %v + inner %v + build %v + probe %v = %v",
			got.Elapsed, reads[p.idx].Elapsed(), reads[b.idx].Elapsed(), build, probe, want)
	}
}

// TestJoinEmptyOuterReadsNoInner pins that a join which can probe its inner
// side by key, given no outer row, returns none without reading the inner
// side at all — not by hashing a full scan of it.
func TestJoinEmptyOuterReadsNoInner(t *testing.T) {
	eng := hashJoinDB(t)
	const outerSQL = `SELECT p.p_id, p.p_b FROM P p WHERE p.p_id <= ?`
	want := runStmt(t, eng, outerSQL, int64(0))
	got := runStmt(t, eng, inlSQL, int64(0))
	if got != want {
		t.Errorf("join over no outer row: %+v, want the outer read's %+v", got, want)
	}
}

// failingReader serves every read from the store client except those of one
// table, which fail.
type failingReader struct {
	*hbase.Client
	table string
}

var errInjected = errors.New("injected read failure")

func (r failingReader) OpenScan(ctx *sim.Ctx, tbl string, spec hbase.ScanSpec) (hbase.RowStream, error) {
	if tbl == r.table {
		return nil, errInjected
	}
	return r.Client.OpenScan(ctx, tbl, spec)
}

// TestDerivedReadChargedOnce pins that a derived table's read is charged to
// the statement exactly once: when its binding is scanned, and when the
// statement fails before or after that — in bind, at the outer side of its
// join, or at the inner side after the derived table was the outer one.
func TestDerivedReadChargedOnce(t *testing.T) {
	eng := hashJoinDB(t)
	for _, tc := range []struct {
		name, sql string
	}{
		{"fails in bind", `SELECT t.b_id, u.p_id FROM (SELECT b_id FROM B ORDER BY b_date DESC LIMIT 3333) t,
			(SELECT p_id, p_b FROM P) u WHERE u.p_b = t.b_id`},
		{"fails at the outer side", hashJoinSQL},
		{"fails at the inner side", smallBuildSQL},
	} {
		sel, err := sqlparser.ParseSelect(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := eng.Compile(sel)
		if err != nil {
			t.Fatal(err)
		}
		// The derived table t over B, read alone.
		sub := plan.binding("t").sub
		read := sim.NewCtx()
		cur, err := sub.Open(read, nil, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		cur.Close(read)

		ctx := sim.NewCtx()
		_, err = plan.Open(ctx, nil, QueryOpts{Reader: failingReader{eng.Client(), "P"}})
		if !errors.Is(err, errInjected) {
			t.Fatalf("%s: err %v, want the injected failure", tc.name, err)
		}
		if got, want := ctx.Snapshot(), read.Snapshot(); got != want {
			t.Errorf("%s: charged %+v, want the derived read's %+v once", tc.name, got, want)
		}
	}
}
