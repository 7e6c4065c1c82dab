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
	// fannedBuildSQL is hashJoinSQL with the derived table in B's key order,
	// so its read is B's scan with the LIMIT pushed in — over compactedJoinDB
	// a fanned-out one, as Q10's newest-orders read is.
	fannedBuildSQL = `SELECT p.p_id, t.b_id FROM P p, (SELECT b_id FROM B ORDER BY b_id DESC LIMIT 3333) t WHERE p.p_b = t.b_id`
	// tableBuildSQL hash-joins P to a full scan of B on b_date, no key of B:
	// it matches no row, and builds on all 4,000 of B's.
	tableBuildSQL = `SELECT p.p_id, b.b_id FROM P p, B b WHERE p.p_b = b.b_date`
)

// compactedJoinDB is hashJoinDB with B compacted into one store file, whose
// guidepost cuts a scan of B into two units: B's scans fan out.
func compactedJoinDB(tb testing.TB) *Engine { return compacted(tb, hashJoinDB(tb)) }

func compacted(tb testing.TB, eng *Engine) *Engine {
	if err := eng.cat.Store().MajorCompact("B"); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// side is one binding's read in a join, made alone on a fresh context: its
// charges and work, and the clock after each row's Next — when the read
// handed that row out.
type side struct {
	read   *sim.Ctx
	handed []sim.Micros
}

func (s side) rows() int { return len(s.handed) }

// buildEnd is when a hash build on s's rows, per a row, ends on the clock of
// s's read: each row is hashed no earlier than the read handed it out and the
// row before it was hashed, and the build never ends before the read does.
func (s side) buildEnd(per sim.Micros) sim.Micros {
	var clock sim.Micros
	for _, h := range s.handed {
		clock = max(clock, h) + per
	}
	return max(clock, s.read.Elapsed())
}

// joinBranches reads each binding of a two-binding join alone, as the join
// would: a derived table through its own plan, a table by its full scan. It
// returns the execution and each binding's side, by binding.idx.
func joinBranches(t *testing.T, eng *Engine, opts QueryOpts, sql string, params ...any) (*query, [2]side) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Compile(sel)
	if err != nil {
		t.Fatal(err)
	}
	q, err := plan.bind(sim.NewCtx(), params, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sides [2]side
	for _, b := range q.bindings {
		s := side{read: sim.NewCtx()}
		if b.sub != nil {
			cur, err := b.sub.Open(s.read, params, opts)
			if err != nil {
				t.Fatal(err)
			}
			for cur.Next(s.read) {
				s.handed = append(s.handed, s.read.Elapsed())
			}
			if err := cur.Close(s.read); err != nil {
				t.Fatal(err)
			}
		} else {
			n := &scanNode{q: q, b: b, path: q.fullPlan(b), wide: true, keep: true}
			if err := n.Open(s.read); err != nil {
				t.Fatal(err)
			}
			for _, ok := n.Next(s.read); ok; _, ok = n.Next(s.read) {
				s.handed = append(s.handed, s.read.Elapsed())
			}
			n.Close(s.read)
		}
		sides[b.idx] = s
	}
	return q, sides
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
	return runOpts(t, eng, QueryOpts{}, sql, params...)
}

func runOpts(t *testing.T, eng *Engine, opts QueryOpts, sql string, params ...any) sim.Stats {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewCtx()
	cur, err := eng.QueryStreamOpts(ctx, sel, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next(ctx) {
	}
	if err := cur.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return ctx.Snapshot()
}

// overlapCharge runs sql, a join that cannot probe its inner side by key, on
// eng, and holds it to the branches twin — an engine built as eng was — reads
// alone: the statement takes max(outer read, inner build end) + probe, and
// does every branch's work. It returns the inner branch and its side, and
// which branch is the longer.
func overlapCharge(t *testing.T, eng, twin *Engine, opts QueryOpts, sql string) (inner sim.Micros, in side, longer string) {
	t.Helper()
	costs := eng.costs
	q, sides := joinBranches(t, twin, opts, sql)
	o := start(q)
	out, in := sides[o.idx], sides[1-o.idx]
	outer := out.read.Elapsed()
	inner = in.buildEnd(costs.JoinBuildRow)
	probe := sim.Micros(int64(out.rows()) * int64(costs.JoinProbeRow))

	got := runOpts(t, eng, opts, sql)
	if want := max(outer, inner) + probe; got.Elapsed != want {
		t.Errorf("%s: elapsed %v, want max(outer %v, inner build end %v) + probe %v = %v",
			sql, got.Elapsed, outer, inner, probe, want)
	}
	work, w := out.read.Snapshot(), in.read.Snapshot()
	work.RPCs += w.RPCs
	work.RowsScanned += w.RowsScanned
	work.RowsReturned += w.RowsReturned
	work.BytesMoved += w.BytesMoved
	if got.RPCs != work.RPCs || got.RowsScanned != work.RowsScanned || got.RowsReturned != work.RowsReturned || got.BytesMoved != work.BytesMoved {
		t.Errorf("%s: rpcs %d, scanned %d, returned %d, bytes %d; the branches did rpcs %d, scanned %d, returned %d, bytes %d",
			sql, got.RPCs, got.RowsScanned, got.RowsReturned, got.BytesMoved, work.RPCs, work.RowsScanned, work.RowsReturned, work.BytesMoved)
	}
	return inner, in, map[bool]string{true: "outer", false: "inner"}[outer > inner]
}

// TestHashJoinOverlapCharges pins the charge of a join that cannot probe its
// inner side by key: the outer side is read on one branch, the inner side and
// its hash table on another, and the statement takes the longer branch plus
// the probe — whichever branch is the longer. The work is every branch's.
func TestHashJoinOverlapCharges(t *testing.T) {
	for _, tc := range []struct {
		sql, longer string
		db          func(testing.TB) *Engine
	}{
		{hashJoinSQL, "inner", hashJoinDB},
		{smallBuildSQL, "outer", hashJoinDB},
		{fannedBuildSQL, "inner", compactedJoinDB},
	} {
		if _, _, longer := overlapCharge(t, tc.db(t), tc.db(t), QueryOpts{}, tc.sql); longer != tc.longer {
			t.Errorf("%s: the %s branch is the longer, want the %s", tc.sql, longer, tc.longer)
		}
	}
}

// TestHashBuildKeepsPace pins how a hash build is charged against its side's
// read: as the rows come in. A fanned-out read hands every row out at its
// first row's charge, so the build runs from there, and the branch ends with
// the read if the build is done first; a sequential one hands them out a
// chunk per RPC, and the build waits for each chunk it outruns; a side read
// whole before any row is handed out — a dirty-checked view, a subquery that
// sorts — pays the whole build after the read. Each inner branch outlasts the
// outer read here, so the statement's time shows it.
func TestHashBuildKeepsPace(t *testing.T) {
	const n = 4000 // B's rows, all on tableBuildSQL's build side
	costs := sim.DefaultCosts()
	costs.JoinBuildRow = 2 // a chunk of B's rows hashes faster than the next one is read
	slowScan := sim.DefaultCosts()
	slowScan.JoinBuildRow, slowScan.ScanNextRow = 1, 10 // B's rows hash faster than its second chunk is read
	view := func(tb testing.TB) *Engine {
		eng := hashJoinDB(tb)
		b, err := eng.cat.Table("B")
		if err != nil {
			tb.Fatal(err)
		}
		b.IsView = true
		return eng
	}
	for _, tc := range []struct {
		name, sql string
		db        func(testing.TB) *Engine
		opts      QueryOpts
		check     func(t *testing.T, inner sim.Micros, in side, per sim.Micros)
	}{
		{"fanned-out derived table", fannedBuildSQL, compactedJoinDB, QueryOpts{}, func(t *testing.T, inner sim.Micros, in side, per sim.Micros) {
			// The LIMIT ends the read as it hands out its last row, with
			// the join of its units; the build outlasts that by far.
			first, read := in.handed[0], in.read.Elapsed()
			if in.handed[in.rows()-2] != first || first+sim.Micros(in.rows()-1)*per < read {
				t.Fatalf("the read hands its rows out at %v .. %v, ends at %v: not one fanned-out read the build outlasts", first, in.handed[in.rows()-1], read)
			}
			if want := max(read, first+sim.Micros(in.rows())*per); inner != want {
				t.Errorf("inner branch %v, want max(read %v, first row %v + %d × %v) = %v", inner, read, first, in.rows(), per, want)
			}
		}},
		{"fanned-out scan the build outpaces", tableBuildSQL, func(tb testing.TB) *Engine { return compacted(tb, hashJoinDBWith(tb, slowScan)) }, QueryOpts{}, func(t *testing.T, inner sim.Micros, in side, per sim.Micros) {
			first, read := in.handed[0], in.read.Elapsed()
			if in.handed[in.rows()-1] != first || first+sim.Micros(in.rows())*per >= read {
				t.Fatalf("%d rows handed out at %v .. %v, read ends at %v: not a fanned-out read that outlasts its build", in.rows(), first, in.handed[in.rows()-1], read)
			}
			if inner != read {
				t.Errorf("inner branch %v, want the read's end %v", inner, read)
			}
		}},
		{"sequential table scan", tableBuildSQL, func(tb testing.TB) *Engine { return hashJoinDBWith(tb, costs) }, QueryOpts{}, func(t *testing.T, inner sim.Micros, in side, per sim.Micros) {
			first, read := in.handed[0], in.read.Elapsed()
			if in.rows() != n || in.handed[n-1] == first {
				t.Fatalf("%d rows handed out at %v .. %v: not a multi-chunk read", in.rows(), first, in.handed[in.rows()-1])
			}
			if lo, hi := max(read, first+n*per), read+n*per; inner <= lo || inner >= hi {
				t.Errorf("inner branch %v, want between the build from the first row %v and the build after the read %v", inner, lo, hi)
			}
		}},
		{"dirty-checked view", tableBuildSQL, view, QueryOpts{DirtyCheck: true}, whole},
		{"sorting subquery", hashJoinSQL, hashJoinDB, QueryOpts{}, whole},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := tc.db(t)
			inner, in, longer := overlapCharge(t, eng, tc.db(t), tc.opts, tc.sql)
			if longer != "inner" {
				t.Fatalf("the outer branch is the longer")
			}
			tc.check(t, inner, in, eng.costs.JoinBuildRow)
		})
	}
}

// TestDerivedArrivals pins how a derived table's arrivals reach its scan:
// shifted to where the branch stood when the read was charged to it, and
// re-indexed past the rows the binding's local predicates drop, each kept
// row coming when the read handed it out. A second charge finds the read paid
// and every row in hand.
func TestDerivedArrivals(t *testing.T) {
	const sql = `SELECT p.p_id, t.b_id FROM P p, (SELECT b_id FROM B ORDER BY b_id DESC LIMIT 3333) t WHERE p.p_b = t.b_id AND t.b_id <= 1000`
	const from = sim.Micros(1000)
	eng := compactedJoinDB(t)
	_, sides := joinBranches(t, compactedJoinDB(t), QueryOpts{}, sql)
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Compile(sel)
	if err != nil {
		t.Fatal(err)
	}
	q, err := plan.bind(sim.NewCtx(), nil, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b := plan.binding("t")
	derived := q.execs[b.idx].derived
	ctx := sim.NewCtx()
	ctx.Charge(from)
	rows, at := q.scanDerived(b, false, q.chargeRead(ctx, b), new(predFilter))
	var want []sim.Micros // when each kept row was handed out, on ctx's clock
	for n, d := range derived {
		if RawCellInt(b.sub.value(d, 0)) <= 1000 {
			want = append(want, from+sides[b.idx].handed[n])
		}
	}
	if len(rows) != len(want) || len(want) == 0 {
		t.Fatalf("%d rows kept, want %d", len(rows), len(want))
	}
	k := 0
	for r, w := range want {
		for k+1 < len(at) && at[k+1].I <= r {
			k++
		}
		if len(at) == 0 || at[k].I > r || at[k].At != w {
			t.Fatalf("row %d comes at %+v, want %v (arrivals %+v)", r, at[min(k, len(at)-1)], w, at)
		}
	}
	if first, last := want[0], want[len(want)-1]; first == last {
		t.Errorf("every kept row comes at %v; the fixture should keep rows handed out at two times", first)
	}
	if again := q.chargeRead(ctx, b); again != nil || ctx.Elapsed() != from+sides[b.idx].read.Elapsed() {
		t.Errorf("charged again: %v, arrivals %+v", ctx.Elapsed(), again)
	}
}

// whole checks a build side whose read hands out every row only at its end:
// the branch is the read, then the whole build.
func whole(t *testing.T, inner sim.Micros, in side, per sim.Micros) {
	read := in.read.Elapsed()
	if in.handed[0] != read {
		t.Fatalf("the first row is handed out at %v, before the read ends at %v", in.handed[0], read)
	}
	if want := read + sim.Micros(in.rows())*per; inner != want {
		t.Errorf("inner branch %v, want read %v + %d × %v = %v", inner, read, in.rows(), per, want)
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
	q, sides := joinBranches(t, eng, QueryOpts{}, inlSQL, int64(outerRows))
	p, b := q.bindings[0], q.bindings[1]
	if start(q) != p || sides[p.idx].rows() != outerRows {
		t.Fatalf("the join starts at %s with %d rows, want P with %d", start(q).name, sides[p.idx].rows(), outerRows)
	}
	outer, err := rowsOf(sim.NewCtx(), &scanNode{q: q, b: p, path: q.fullPlan(p), wide: true, keep: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	step := &q.joinOrders[p.idx][0]
	if step.b != b {
		t.Fatalf("the join from P joins %s, want B", step.b.name)
	}
	probes := sim.NewCtx()
	j := &joinNode{q: q, outer: &inHand{list{rows: outer}}, joinStep: step}
	if err := j.Open(probes); err != nil || len(j.rows) != outerRows {
		t.Fatalf("%d rows, err %v", len(j.rows), err)
	}
	read := sides[p.idx].read.Elapsed()
	got := runStmt(t, eng, inlSQL, int64(outerRows))
	if want := read + probes.Elapsed(); got.Elapsed != want {
		t.Errorf("index nested loop: elapsed %v, want outer %v + probes %v = %v", got.Elapsed, read, probes.Elapsed(), want)
	}
	if want := sides[p.idx].read.Snapshot().RPCs + probes.Snapshot().RPCs; got.RPCs != want {
		t.Errorf("index nested loop: rpcs %d, want %d", got.RPCs, want)
	}

	// Past the threshold: a hash join on a full scan of B, read after the
	// outer side and hashed as B's chunks come in, then the probe.
	costs := *eng.costs
	costs.INLThreshold = outerRows - 1
	eng.costs = &costs
	got = runStmt(t, eng, inlSQL, int64(outerRows))
	build := sides[b.idx].buildEnd(costs.JoinBuildRow)
	probe := sim.Micros(int64(outerRows) * int64(costs.JoinProbeRow))
	if want := read + build + probe; got.Elapsed != want {
		t.Errorf("hash join: elapsed %v, want outer %v + inner build end %v + probe %v = %v",
			got.Elapsed, read, build, probe, want)
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

func (r failingReader) OpenScan(ctx *sim.Ctx, tbl string, spec hbase.ScanSpec, sc *hbase.Scanner) (hbase.RowStream, error) {
	if tbl == r.table {
		return nil, errInjected
	}
	return r.Client.OpenScan(ctx, tbl, spec, sc)
}

// TestDerivedReadChargedOnce pins that a derived table's read is charged to
// the statement exactly once: when its binding is scanned, and when the
// statement fails before or after that — in bind, at the outer side of its
// join, or at the inner side after the derived table was the outer one.
//
// The last two cases read the derived table fanned out, as a hash build paces
// itself by (TestHashBuildKeepsPace).
func TestDerivedReadChargedOnce(t *testing.T) {
	plain, compacted := hashJoinDB(t), compactedJoinDB(t)
	for _, tc := range []struct {
		name, sql string
		eng       *Engine
	}{
		{"fails in bind", `SELECT t.b_id, u.p_id FROM (SELECT b_id FROM B ORDER BY b_date DESC LIMIT 3333) t,
			(SELECT p_id, p_b FROM P) u WHERE u.p_b = t.b_id`, plain},
		{"fails at the outer side", hashJoinSQL, plain},
		{"fails at the inner side", smallBuildSQL, plain},
		{"fanned out, fails in bind", `SELECT t.b_id, u.p_id FROM (SELECT b_id FROM B ORDER BY b_id DESC LIMIT 3333) t,
			(SELECT p_id, p_b FROM P) u WHERE u.p_b = t.b_id`, compacted},
		{"fanned out, fails at the outer side", fannedBuildSQL, compacted},
	} {
		eng := tc.eng
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
		for cur.Next(read) {
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
