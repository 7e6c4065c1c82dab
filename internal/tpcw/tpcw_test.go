package tpcw

import (
	"strings"
	"testing"

	"synergy/internal/core"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

func TestSchemaValid(t *testing.T) {
	s := Schema()
	if got := len(s.Relations()); got != 10 {
		t.Fatalf("relations = %d, want 10", got)
	}
	g := strings.Join(s.RelationNames(), ",")
	for _, want := range []string{"Customer", "Orders", "Order_line", "Item", "Author", "CC_Xacts"} {
		if !strings.Contains(g, want) {
			t.Fatalf("missing relation %s", want)
		}
	}
}

func TestWorkloadParses(t *testing.T) {
	for _, s := range AllStatements() {
		if _, err := sqlparser.Parse(s.SQL); err != nil {
			t.Errorf("%s: %v", s.ID, err)
		}
	}
	if n := len(JoinQueries()); n != 11 {
		t.Fatalf("join queries = %d, want 11 (Figure 15)", n)
	}
	if n := len(WriteStatements()); n != 13 {
		t.Fatalf("write statements = %d, want 13 (Figure 16)", n)
	}
}

func TestGenerateCardinalities(t *testing.T) {
	d := Generate(100, 42)
	if got := len(d.Tables["Customer"]); got != 100 {
		t.Fatalf("customers = %d", got)
	}
	if got := len(d.Tables["Item"]); got != 1000 {
		t.Fatalf("items = %d, want 10x customers (§IX-D1)", got)
	}
	if got := len(d.Tables["Orders"]); got != 1000 {
		t.Fatalf("orders = %d, want 10x customers (§IX-D1)", got)
	}
	if got := len(d.Tables["Country"]); got != 92 {
		t.Fatalf("countries = %d, want 92", got)
	}
	ol := len(d.Tables["Order_line"])
	if ol < 2000 || ol > 5500 {
		t.Fatalf("order lines = %d, want ~3 per order", ol)
	}
	if len(d.CartLines) == 0 {
		t.Fatal("no cart lines sampled")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(50, 7)
	b := Generate(50, 7)
	ra := a.Tables["Item"][25]
	rb := b.Tables["Item"][25]
	if ra["i_title"] != rb["i_title"] || ra["i_subject"] != rb["i_subject"] {
		t.Fatal("generation not deterministic")
	}
}

func TestFreshIDsDoNotCollide(t *testing.T) {
	d := Generate(10, 1)
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		id := d.NextOrderID()
		if id <= int64(d.Card.Orders) || seen[id] {
			t.Fatalf("fresh order id %d collides", id)
		}
		seen[id] = true
	}
}

func TestParamsAreValid(t *testing.T) {
	d := Generate(50, 3)
	rng := sim.NewRNG(9)
	for _, s := range AllStatements() {
		params := s.Params(d, rng)
		stmt := sqlparser.MustParse(s.SQL)
		// Count placeholders and check coverage.
		n := strings.Count(s.SQL, "?")
		if len(params) != n {
			t.Errorf("%s: %d params for %d placeholders", s.ID, len(params), n)
		}
		_ = stmt
	}
}

// The design pipeline on the TPC-W schema/workload must reproduce §IX-D2's
// Synergy configuration: the views the roots set {Author, Customer, Country}
// induces.
func TestTPCWDesign(t *testing.T) {
	w, err := core.ParseWorkload(WorkloadSQL())
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.BuildDesign(Schema(), Roots(), w)
	if err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, v := range d.Views {
		names = append(names, v.DisplayName())
	}
	got := strings.Join(names, ",")
	for _, want := range []string{
		"Customer-Orders",
		"Country-Address",
		"Author-Item",
		"Item-Order_line",
		"Item-Shopping_cart_line",
		"Author-Item-Order_line",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing view %s (got %s)", want, got)
		}
	}
	if len(d.Views) != 6 {
		t.Errorf("views = %d (%s), want 6", len(d.Views), got)
	}

	// Assignments: Order_line joins the Author tree (weight 6 beats the
	// Customer path's 2); CC_Xacts joins Customer; the shopping cart is
	// unassigned -> W6/W11 stay cheap (§IX-D4).
	assign := d.Candidates.RootOf
	if assign["Order_line"] != "Author" {
		t.Errorf("Order_line root = %q, want Author", assign["Order_line"])
	}
	if assign["CC_Xacts"] != "Customer" {
		t.Errorf("CC_Xacts root = %q, want Customer", assign["CC_Xacts"])
	}
	if assign["Address"] != "Country" {
		t.Errorf("Address root = %q, want Country", assign["Address"])
	}
	if len(d.Candidates.Unassigned) != 1 || d.Candidates.Unassigned[0] != "Shopping_cart" {
		t.Errorf("unassigned = %v, want [Shopping_cart]", d.Candidates.Unassigned)
	}

	// Query-driven view indexes: Customer-Orders(c_uname),
	// Author-Item(i_subject), Author-Item-Order_line(i_subject).
	var qIdx, mIdx []string
	for _, ix := range d.ViewIndexes {
		entry := ix.View.DisplayName() + ":" + ix.On[0]
		if ix.Maintenance {
			mIdx = append(mIdx, entry)
		} else {
			qIdx = append(qIdx, entry)
		}
	}
	for _, want := range []string{"Customer-Orders:c_uname", "Author-Item:i_subject", "Author-Item-Order_line:i_subject"} {
		if !contains(qIdx, want) {
			t.Errorf("missing query view-index %s (got %v)", want, qIdx)
		}
	}
	// Maintenance indexes: i_id within Item-* views, c_id within
	// Customer-Orders (§VII-C).
	for _, want := range []string{
		"Item-Order_line:i_id", "Item-Shopping_cart_line:i_id",
		"Author-Item-Order_line:i_id", "Customer-Orders:c_id",
	} {
		if !contains(mIdx, want) {
			t.Errorf("missing maintenance index %s (got %v)", want, mIdx)
		}
	}

	// Q7 rewriting uses Customer-Orders once and Country-Address twice.
	var q7 *sqlparser.SelectStmt
	for _, sel := range w.Selects() {
		if len(sel.From) == 6 {
			q7 = sel
		}
	}
	if q7 == nil {
		t.Fatal("Q7 not found")
	}
	rw := d.Rewritten[q7]
	if len(rw.Usages) != 3 {
		t.Fatalf("Q7 view usages = %d, want 3 (Customer-Orders + 2x Country-Address): %s", len(rw.Usages), rw.Stmt)
	}
	caCount := 0
	for _, u := range rw.Usages {
		if u.View.DisplayName() == "Country-Address" {
			caCount++
		}
	}
	if caCount != 2 {
		t.Fatalf("Country-Address usages in Q7 = %d, want 2", caCount)
	}

	// Q9 and Q11 (self-joins) must not be rewritten.
	for _, sel := range w.Selects() {
		rels := map[string]int{}
		for _, ref := range sel.From {
			if ref.Sub == nil {
				rels[ref.Name]++
			}
		}
		for rel, n := range rels {
			if n > 1 && rel != "Address" && rel != "Country" {
				if d.Rewritten[sel].UsesViews() {
					t.Errorf("self-join on %s was rewritten: %s", rel, d.Rewritten[sel].Stmt)
				}
			}
		}
	}
}

func contains(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

func TestMicroDesign(t *testing.T) {
	w, err := core.ParseWorkload(MicroWorkloadSQL())
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.BuildDesign(MicroSchema(), MicroRoots(), w)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, v := range d.Views {
		names = append(names, v.DisplayName())
	}
	got := strings.Join(names, ",")
	// §IX-B1: "Customer-Order and Customer-Order-Order_line represent the
	// MVs corresponding to the join queries Q1 and Q2".
	if got != "Customer-MOrder,Customer-MOrder-MOrder_line" {
		t.Fatalf("micro views = %s", got)
	}
}

func TestMicroGenerateRatios(t *testing.T) {
	rows := MicroGenerate(20, 5)
	if len(rows["Customer"]) != 20 || len(rows["MOrder"]) != 200 || len(rows["MOrder_line"]) != 2000 {
		t.Fatalf("cardinalities = %d/%d/%d, want 20/200/2000 (1:10 ratios, §IX-B2)",
			len(rows["Customer"]), len(rows["MOrder"]), len(rows["MOrder_line"]))
	}
}

func TestStatsForAdvisor(t *testing.T) {
	d := Generate(50, 11)
	st := d.Stats()
	if st.Rows["Item"] != 500 || st.AvgRowBytes["Item"] <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStatementByID(t *testing.T) {
	if _, ok := StatementByID("Q10"); !ok {
		t.Fatal("Q10 missing")
	}
	if _, ok := StatementByID("W13"); !ok {
		t.Fatal("W13 missing")
	}
	if _, ok := StatementByID("nope"); ok {
		t.Fatal("unknown id found")
	}
}

// TestDatabaseBytesAtBenchmarkScale pins Table III's quantity at the standing
// benchmark's scale: the KeyValue-format footprint of the populated Synergy
// deployment (base tables, indexes, views, lock tables) after BuildViews.
// Store files record their footprint when they are built instead of walking
// cells per call, so the total must stay bit-identical to the cell walk it
// replaced.
func TestDatabaseBytesAtBenchmarkScale(t *testing.T) {
	if testing.Short() {
		t.Skip("populates a NUM_CUST=500 database")
	}
	sys := paritySystem(t, Generate(500, 1), synergy.Config{})
	if got, want := sys.DatabaseBytes(), int64(181_219_823); got != want {
		t.Fatalf("DatabaseBytes = %d, want %d", got, want)
	}
}
