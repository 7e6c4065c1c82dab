package bench

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/tpcw"
)

// The system set is expensive to build; share one across tests.
var (
	setOnce sync.Once
	testSet *SystemSet
	setErr  error
)

func systems(t *testing.T) *SystemSet {
	t.Helper()
	setOnce.Do(func() {
		testSet, setErr = BuildSystems(100, 42, nil)
	})
	if setErr != nil {
		t.Fatal(setErr)
	}
	return testSet
}

func TestSummarize(t *testing.T) {
	m := Summarize([]sim.Micros{1000, 2000, 3000})
	if m.Mean != 2.0 {
		t.Fatalf("mean = %v, want 2.0ms", m.Mean)
	}
	if m.StdErr <= 0 {
		t.Fatal("stderr should be positive")
	}
	if m.N != 3 {
		t.Fatalf("n = %d", m.N)
	}
	if Summarize(nil).String() != "X" {
		t.Fatal("empty measurement should render X")
	}
}

func TestFigure10ShapeAtSmallScale(t *testing.T) {
	rows, err := RunFigure10([]int{50, 200}, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Speedup() <= 1 {
			t.Errorf("scale=%d %s: view scan (%0.1f) not faster than join (%0.1f)",
				r.Customers, r.Query, r.ViewScan.Mean, r.JoinAlgo.Mean)
		}
	}
	// The gap widens with scale and with join width (Q2 > Q1 at the top
	// scale), the qualitative content of Figure 10.
	q2Small, q2Big := rows[1], rows[3]
	if q2Big.Speedup() <= q2Small.Speedup() {
		t.Errorf("speedup should grow with scale: %0.1fx -> %0.1fx", q2Small.Speedup(), q2Big.Speedup())
	}
}

func TestFigure11Shape(t *testing.T) {
	rows, err := RunFigure11([]int{10, 100}, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("want 2 rows")
	}
	r10, r100 := rows[0], rows[1]
	// Fixed connection cost dominates at 10 locks; the marginal per-lock
	// cost is a few ms (the paper's 342 -> 571ms shape: strongly
	// sublinear in lock count).
	if r10.Overhead.Mean < 200 {
		t.Errorf("10-lock overhead = %.0fms, want a few hundred ms (cold client)", r10.Overhead.Mean)
	}
	if r100.Overhead.Mean <= r10.Overhead.Mean {
		t.Error("overhead must grow with lock count")
	}
	if r100.Overhead.Mean >= 10*r10.Overhead.Mean {
		t.Errorf("overhead grew linearly (%.0f -> %.0f); fixed cost should amortize", r10.Overhead.Mean, r100.Overhead.Mean)
	}
}

func TestFigure12Orderings(t *testing.T) {
	set := systems(t)
	g, err := RunFigure12(set, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// VoltDB unsupported set is exactly {Q3, Q7, Q9, Q10}.
	var unsupported []string
	for _, q := range g.Statements {
		if g.Cells[q]["VoltDB"].N == 0 {
			unsupported = append(unsupported, q)
		}
	}
	if got := strings.Join(unsupported, ","); got != "Q3,Q7,Q9,Q10" {
		t.Errorf("VoltDB unsupported = %s, want Q3,Q7,Q9,Q10", got)
	}

	all := g.Statements
	syn := g.MeanOver("Synergy", all)
	base := g.MeanOver("Baseline", all)
	mvccA := g.MeanOver("MVCC-A", all)
	mvccUA := g.MeanOver("MVCC-UA", all)
	// §IX-D3 orderings: Synergy beats every MVCC system and the baseline;
	// MVCC-A (with views) beats MVCC-UA and Baseline.
	if !(syn < mvccA && mvccA < mvccUA && mvccUA <= base) {
		t.Errorf("join means out of order: synergy=%.0f mvccA=%.0f mvccUA=%.0f baseline=%.0f",
			syn, mvccA, mvccUA, base)
	}
	// VoltDB pays a fixed floor on every supported query: NewSQLBase
	// (14 ms, command log and round trip) plus NewSQLMultiPartition (9 ms),
	// 23 ms in all. Synergy's key-bound view reads cost a few ms and barely
	// grow with the data, so the paper's "Synergy 11x slower than VoltDB"
	// is a fixed-cost gap this calibration does not reproduce at any scale.
	// Assert the scale-independent facts here: VoltDB beats every MVCC
	// system and stays near its floor.
	sup := g.SupportedBy("VoltDB")
	if v, m := g.MeanOver("VoltDB", sup), g.MeanOver("MVCC-A", sup); v >= m {
		t.Errorf("VoltDB (%.1f) should beat MVCC-A (%.1f) on supported joins", v, m)
	}
	if v := g.MeanOver("VoltDB", sup); v > 100 {
		t.Errorf("VoltDB supported-join mean = %.1fms, want near its txn floor", v)
	}
	// MVCC-UA answers Q10 from the one view the advisor's pick deploys,
	// Q10's join path: cheaper than Baseline's base-table join even under
	// the shared MVCC floor (the gap widens with scale).
	if ua, b := g.Cells["Q10"]["MVCC-UA"].Mean, g.Cells["Q10"]["Baseline"].Mean; ua >= b {
		t.Errorf("Q10: MVCC-UA (%.0f) should be below Baseline (%.0f)", ua, b)
	}
}

func TestFigure14Orderings(t *testing.T) {
	set := systems(t)
	g, err := RunFigure14(set, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	all := g.Statements
	syn := g.MeanOver("Synergy", all)
	volt := g.MeanOver("VoltDB", all)
	base := g.MeanOver("Baseline", all)
	mvccA := g.MeanOver("MVCC-A", all)
	// §IX-D4: Synergy writes are far cheaper than every MVCC system but
	// costlier than VoltDB.
	if !(volt < syn && syn < mvccA && syn < base) {
		t.Errorf("write means out of order: volt=%.0f syn=%.0f mvccA=%.0f base=%.0f", volt, syn, mvccA, base)
	}
	// MVCC overhead dominates: baseline writes land in the 800-1000ms
	// band even with no views to maintain.
	if base < 800 || base > 1200 {
		t.Errorf("baseline write mean = %.0fms, want ~850-1000 (Tephra overhead)", base)
	}
	// W6 and W11 are the cheapest Synergy writes (no views on the
	// shopping cart, §IX-D4).
	w6 := g.Cells["W6"]["Synergy"].Mean
	w11 := g.Cells["W11"]["Synergy"].Mean
	w13 := g.Cells["W13"]["Synergy"].Mean
	if w6 >= w13 || w11 >= w13 {
		t.Errorf("W6 (%.1f) and W11 (%.1f) should be far below W13 (%.1f)", w6, w11, w13)
	}
	// W13 (update customer: multi-row view update) is the most expensive
	// Synergy write.
	for _, w := range all {
		if m := g.Cells[w]["Synergy"]; m.N > 0 && m.Mean > g.Cells["W13"]["Synergy"].Mean {
			t.Errorf("W13 should be the most expensive Synergy write; %s = %.1f > %.1f", w, m.Mean, g.Cells["W13"]["Synergy"].Mean)
		}
	}
}

func TestTableIIOrdering(t *testing.T) {
	set := systems(t)
	rows, err := RunTableII(set, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.System] = r.Total.Mean
	}
	// Table II orderings that hold at any scale: Synergy far below every
	// MVCC system; views help MVCC-A and MVCC-UA relative to Baseline.
	// (The paper's MVCC-A << MVCC-UA gap is not asserted: both answer Q10
	// from the same view, and every MVCC statement pays the same ~850 ms
	// begin/commit floor, so the two differ only on the other joins: 24.0
	// vs 24.2 s at 500 customers.)
	if byName["Synergy"] >= byName["MVCC-A"]/10 {
		t.Errorf("Synergy (%0.1fs) should be far below MVCC-A (%0.1fs)", byName["Synergy"], byName["MVCC-A"])
	}
	if byName["MVCC-A"] >= byName["Baseline"] {
		t.Errorf("MVCC-A (%0.1fs) should beat Baseline (%0.1fs)", byName["MVCC-A"], byName["Baseline"])
	}
	if byName["MVCC-UA"] >= byName["Baseline"] {
		t.Errorf("MVCC-UA (%0.1fs) should beat Baseline (%0.1fs)", byName["MVCC-UA"], byName["Baseline"])
	}
}

// TestTableIIIOrdering measures database sizes, so it deploys its own
// systems: the set systems(t) shares grows with the writes of every test that
// ran before it, most of all MVCC-A's, which keeps 16 versions per cell.
func TestTableIIIOrdering(t *testing.T) {
	set, err := BuildSystems(100, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := RunTableIII(set)
	byName := map[string]int64{}
	for _, r := range rows {
		byName[r.System] = r.MeasuredBytes
	}
	// Table III ordering: VoltDB smallest; Synergy and MVCC-A largest
	// (views); MVCC-UA slightly above Baseline.
	if byName["VoltDB"] >= byName["Baseline"] {
		t.Errorf("VoltDB (%d) should be smaller than Baseline (%d)", byName["VoltDB"], byName["Baseline"])
	}
	if byName["Synergy"] <= byName["Baseline"] {
		t.Error("Synergy must exceed Baseline (views)")
	}
	if byName["MVCC-UA"] <= byName["Baseline"] || byName["MVCC-UA"] >= byName["Synergy"] {
		t.Errorf("MVCC-UA (%d) should sit between Baseline (%d) and Synergy (%d)",
			byName["MVCC-UA"], byName["Baseline"], byName["Synergy"])
	}
	// The paper reports 2.1x. Every view index here is fully covered (the
	// §II-A reading of "covered indexes": it stores the whole view row,
	// not just its key), which pushes the reproduction to ~3-4x; the band
	// below admits that delta.
	ratio := float64(byName["Synergy"]) / float64(byName["Baseline"])
	if ratio < 1.8 || ratio > 4.8 {
		t.Errorf("Synergy/Baseline size ratio = %.2f, want the 2-4.5x band (paper: 2.1x)", ratio)
	}
	if mvccA := byName["MVCC-A"]; mvccA < byName["Baseline"] || mvccA > byName["Synergy"] {
		t.Errorf("MVCC-A (%d) should carry the same views as Synergy (%d)", mvccA, byName["Synergy"])
	}
}

// TestQueryResultsAgreeAcrossSystems checks that materialization does not
// change semantics: for identical parameters every join query returns
// Baseline's answer (base-table joins) on Synergy, MVCC-A and MVCC-UA, row for
// row under diffAnswers' tie rule, and as many rows on VoltDB for the queries
// it supports. It deploys its own systems — the set systems(t) shares carries
// whatever writes earlier tests ran.
func TestQueryResultsAgreeAcrossSystems(t *testing.T) {
	set, err := BuildSystems(100, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	voltRuns := 0
	for _, st := range tpcw.JoinQueries() {
		sel := mustSelect(st.SQL)
		for seed := int64(0); seed < 5; seed++ {
			params := st.Params(set.Data, sim.NewRNG(seed))
			base, err := set.Baseline.sys.Query(sim.NewCtx(), sel, params)
			if err != nil {
				t.Fatalf("%s on Baseline: %v", st.ID, err)
			}
			for _, sys := range []*synergySys{set.Synergy, set.MVCCA, set.MVCCUA} {
				got, err := sys.sys.Query(sim.NewCtx(), sel, params)
				if err != nil {
					t.Fatalf("%s on %s: %v", st.ID, sys.name, err)
				}
				if d := diffAnswers(sel, base, got); d != "" {
					t.Errorf("%s seed %d: %s answers unlike Baseline: %s", st.ID, seed, sys.name, d)
				}
			}
			if !set.VoltDB.Supported(st) {
				continue
			}
			volt, err := set.VoltDB.eng.Query(sim.NewCtx(), sel, params)
			if err != nil {
				t.Fatalf("%s on VoltDB: %v", st.ID, err)
			}
			if len(volt) != len(base.Rows) {
				t.Errorf("%s seed %d: VoltDB returns %d rows, Baseline %d", st.ID, seed, len(volt), len(base.Rows))
			}
			voltRuns++
		}
	}
	if want := 7 * 5; voltRuns != want {
		t.Errorf("VoltDB ran %d query draws, want %d (the seven queries it supports, five draws each)", voltRuns, want)
	}
}

// TestMVCCUAAnswersQ10LikeBaseline: MVCC-UA's Q10 aggregates only the order
// lines of the 3,333 newest orders, as Baseline's does, on the loaded data
// and again after every write statement has run on both. The scale must put
// orders outside that window: at 60 customers (600 orders) the window holds
// every order, so an answer that ignores it still agrees.
func TestMVCCUAAnswersQ10LikeBaseline(t *testing.T) {
	set, err := BuildSystems(500, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := tpcw.StatementByID("Q10")
	sel := mustSelect(st.SQL)
	rng := sim.NewRNG(10)
	for pass := 0; pass < 2; pass++ {
		for draw := 0; draw < 10; draw++ {
			params := st.Params(set.Data, rng)
			base, err := set.Baseline.sys.Query(sim.NewCtx(), sel, params)
			if err != nil {
				t.Fatalf("Baseline: %v", err)
			}
			ua, err := set.MVCCUA.sys.Query(sim.NewCtx(), sel, params)
			if err != nil {
				t.Fatalf("MVCC-UA: %v", err)
			}
			if d := diffAnswers(sel, base, ua); d != "" {
				t.Errorf("pass %d draw %d (%v): MVCC-UA answers unlike Baseline: %s", pass, draw, params, d)
			}
		}
		for _, w := range tpcw.WriteStatements() {
			for i := 0; i < 5; i++ {
				params := w.Params(set.Data, rng)
				for _, sys := range []*synergySys{set.Baseline, set.MVCCUA} {
					if err := sys.Run(sim.NewCtx(), w, params); err != nil {
						t.Fatalf("%s on %s: %v", w.ID, sys.name, err)
					}
				}
			}
		}
	}
}

// diffAnswers reports how got differs from want, two answers to sel, or ""
// if they agree. ORDER BY ... LIMIT is no total order where the order key
// ties, and plans over views break ties otherwise than plans over base tables
// (at 500 customers every Q10 draw lists some items of equal qty in another
// order on MVCC-A than on Baseline). So the answers must have the same
// columns and the same sequence of order keys, and the same rows, in any
// order, under each key — except under the last row's key when the LIMIT cut
// the result there.
func diffAnswers(sel *sqlparser.SelectStmt, want, got *phoenix.ResultSet) string {
	if !slices.Equal(got.Columns, want.Columns) {
		return fmt.Sprintf("columns %v, want %v", got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	var keyCols []string
	for _, o := range sel.OrderBy {
		col := o.Col.Column
		if !slices.Contains(want.Columns, col) {
			col = o.Col.String()
		}
		keyCols = append(keyCols, col)
	}
	render := func(row schema.Row, cols []string) string {
		var b strings.Builder
		for _, c := range cols {
			fmt.Fprintf(&b, "%v|", row[c])
		}
		return b.String()
	}
	n := len(want.Rows)
	for lo := 0; lo < n; {
		key := render(want.Rows[lo], keyCols)
		hi := lo
		for hi < n && render(want.Rows[hi], keyCols) == key {
			if k := render(got.Rows[hi], keyCols); k != key {
				return fmt.Sprintf("row %d has order key %s, want %s", hi, k, key)
			}
			hi++
		}
		if hi == n && sel.Limit > 0 && n == sel.Limit {
			break // the LIMIT may have cut this tie group anywhere
		}
		var w, g []string
		for i := lo; i < hi; i++ {
			w = append(w, render(want.Rows[i], want.Columns))
			g = append(g, render(got.Rows[i], got.Columns))
		}
		slices.Sort(w)
		slices.Sort(g)
		if !slices.Equal(g, w) {
			return fmt.Sprintf("rows %d-%d under order key %s are\n%v\nwant\n%v", lo, hi-1, key, g, w)
		}
		lo = hi
	}
	return ""
}

// TestRewrittenStarKeepsBaselineColumns: a SELECT * the view rewrite serves
// returns Baseline's result columns — names and order — with Baseline's
// values under each name. Q3 reads one view in the reverse of its FROM order,
// and Q7 reads the Address-Country view twice, so its ship and bill columns
// are told apart only by their binding names.
func TestRewrittenStarKeepsBaselineColumns(t *testing.T) {
	set := systems(t)
	for _, st := range tpcw.JoinQueries() {
		sel := mustSelect(st.SQL)
		params := st.Params(set.Data, sim.NewRNG(3))
		base, err := set.Baseline.sys.Query(sim.NewCtx(), sel, params)
		if err != nil {
			t.Fatalf("%s on Baseline: %v", st.ID, err)
		}
		view, err := set.Synergy.sys.Query(sim.NewCtx(), sel, params)
		if err != nil {
			t.Fatalf("%s on Synergy: %v", st.ID, err)
		}
		if !slices.Equal(view.Columns, base.Columns) {
			t.Errorf("%s: Synergy returns columns\n%v\nBaseline\n%v", st.ID, view.Columns, base.Columns)
			continue
		}
		if sel.Star && len(base.Rows) == 1 && len(view.Rows) == 1 {
			for _, col := range base.Columns {
				if !schema.ValuesEqual(view.Rows[0][col], base.Rows[0][col]) {
					t.Errorf("%s: Synergy's %s is %v, Baseline's %v", st.ID, col, view.Rows[0][col], base.Rows[0][col])
				}
			}
		}
	}
}

func TestStaticArtifacts(t *testing.T) {
	f13 := Figure13Matrix()
	for _, want := range []string{"VoltDB", "Synergy", "Hierarchical locking", "MVCC", "Schema-relationships aware"} {
		if !strings.Contains(f13, want) {
			t.Errorf("Figure 13 missing %q", want)
		}
	}
	t1 := TableIQualitative()
	for _, want := range []string{"NoSQL", "NewSQL", "Synergy", "read-committed"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestRenderers(t *testing.T) {
	set := systems(t)
	g, err := RunFigure12(set, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderGrid("Figure 12", g)
	if !strings.Contains(out, "Q10") || !strings.Contains(out, "X") {
		t.Fatalf("grid render missing content:\n%s", out)
	}
	if cmp := RenderComparisons(g); !strings.Contains(cmp, "Synergy vs") {
		t.Fatalf("comparisons render: %s", cmp)
	}
	rows := RunTableIII(set)
	if out := RenderTableIII(rows, set.Data.Card.Customers); !strings.Contains(out, "VoltDB") {
		t.Fatal("table III render missing VoltDB")
	}
}

// mustSelect parses a SELECT for tests.
func mustSelect(sql string) *sqlparser.SelectStmt {
	return sqlparser.MustParse(sql).(*sqlparser.SelectStmt)
}
