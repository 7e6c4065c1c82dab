package core

import (
	"strings"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sqlparser"
)

func companyDesign(t *testing.T) *Design {
	t.Helper()
	w, err := ParseWorkload(schema.CompanyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDesign(schema.Company(), schema.CompanyRoots(), w)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Figure 5(a): the DAG transformation drops the (AID, EOffice_AID) edge
// because the home-address edge overlaps W1.
func TestCompanyDAGDropsOfficeEdge(t *testing.T) {
	d := companyDesign(t)
	for _, e := range d.Candidates.DAG.Edges() {
		if e.Parent == "Address" && e.Child == "Employee" {
			if e.FK[0] != "EHome_AID" {
				t.Fatalf("kept wrong Address->Employee edge: %v", e)
			}
		}
	}
	if got := len(d.Candidates.DAG.InEdges("Employee")); got != 2 { // Address + Department
		t.Fatalf("Employee in-edges in DAG = %d, want 2", got)
	}
}

// Figure 5(b): topological order respects every DAG edge.
func TestCompanyTopoOrder(t *testing.T) {
	d := companyDesign(t)
	pos := map[string]int{}
	for i, n := range d.Candidates.TopoOrder {
		pos[n] = i
	}
	for _, e := range d.Candidates.DAG.Edges() {
		if pos[e.Parent] >= pos[e.Child] {
			t.Fatalf("topo violation: %s >= %s", e.Parent, e.Child)
		}
	}
}

// Figure 4(b): rooted trees are A -> E -> {WO, DP} and D -> {DL, P}.
func TestCompanyRootedTrees(t *testing.T) {
	d := companyDesign(t)
	a := d.Candidates.Tree("Address")
	dep := d.Candidates.Tree("Department")
	if a == nil || dep == nil {
		t.Fatal("missing rooted trees")
	}
	wantA := []string{"Address", "Dependent", "Employee", "Works_On"}
	if got := strings.Join(a.Nodes(), ","); got != strings.Join(wantA, ",") {
		t.Fatalf("Address tree nodes = %s, want %s", got, strings.Join(wantA, ","))
	}
	wantD := []string{"Department", "Department_Location", "Project"}
	if got := strings.Join(dep.Nodes(), ","); got != strings.Join(wantD, ",") {
		t.Fatalf("Department tree nodes = %s, want %s", got, strings.Join(wantD, ","))
	}
	// Employee's parent is Address (via home address), Works_On's and
	// Dependent's parent is Employee.
	if e, _ := a.ParentEdge("Employee"); e.Parent != "Address" || e.FK[0] != "EHome_AID" {
		t.Fatalf("Employee parent edge = %v", e)
	}
	if e, _ := a.ParentEdge("Works_On"); e.Parent != "Employee" {
		t.Fatalf("Works_On parent edge = %v", e)
	}
	if e, _ := a.ParentEdge("Dependent"); e.Parent != "Employee" {
		t.Fatalf("Dependent parent edge = %v", e)
	}
}

func TestCompanyAssignments(t *testing.T) {
	d := companyDesign(t)
	want := map[string]string{
		"Employee":            "Address",
		"Works_On":            "Address",
		"Dependent":           "Address",
		"Department_Location": "Department",
		"Project":             "Department",
	}
	for rel, root := range want {
		if got := d.Candidates.RootOf[rel]; got != root {
			t.Errorf("RootOf(%s) = %q, want %q", rel, got, root)
		}
	}
	if len(d.Candidates.Unassigned) != 0 {
		t.Fatalf("unassigned = %v, want none", d.Candidates.Unassigned)
	}
}

// §VI-A on the Company workload: W1 selects Address-Employee, W2 and W3
// select Employee-Works_On (the D->E join is not a tree edge, so Department
// stays a base table in W2).
func TestCompanySelectedViews(t *testing.T) {
	d := companyDesign(t)
	var names []string
	for _, v := range d.Views {
		names = append(names, v.DisplayName())
	}
	want := "Address-Employee,Employee-Works_On"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("views = %s, want %s", got, want)
	}
	// Keys: Definition 5 — key of the last relation.
	ae := d.ViewByName("V_Address__Employee")
	if strings.Join(ae.Key, ",") != "EID" {
		t.Fatalf("Address-Employee key = %v", ae.Key)
	}
	ewo := d.ViewByName("V_Employee__Works_On")
	if strings.Join(ewo.Key, ",") != "WO_EID,WO_PNo" {
		t.Fatalf("Employee-Works_On key = %v", ewo.Key)
	}
	if ae.Root != "Address" || ewo.Root != "Address" {
		t.Fatalf("view roots = %s, %s; want Address", ae.Root, ewo.Root)
	}
}

func TestCompanyRewrites(t *testing.T) {
	d := companyDesign(t)
	sels := d.Workload.Selects()

	// W1: fully replaced by Address-Employee.
	rw1 := d.Rewritten[sels[0]]
	if !rw1.UsesViews() || len(rw1.Stmt.From) != 1 || rw1.Stmt.From[0].Name != "V_Address__Employee" {
		t.Fatalf("W1 rewrite = %s", rw1.Stmt)
	}
	if len(rw1.Stmt.Where) != 1 {
		t.Fatalf("W1 rewrite where = %v (join condition should be dropped)", rw1.Stmt.Where)
	}

	// W2: Department stays a base table joined with Employee-Works_On.
	rw2 := d.Rewritten[sels[1]]
	if len(rw2.Stmt.From) != 2 {
		t.Fatalf("W2 rewrite FROM = %v", rw2.Stmt.From)
	}
	var hasView, hasDept bool
	for _, ref := range rw2.Stmt.From {
		if ref.Name == "V_Employee__Works_On" {
			hasView = true
		}
		if ref.Name == "Department" {
			hasDept = true
		}
	}
	if !hasView || !hasDept {
		t.Fatalf("W2 rewrite FROM = %s", rw2.Stmt)
	}
	// The D-E join survives (cross view-base), the E-WO join is dropped.
	if len(rw2.Stmt.Where) != 2 {
		t.Fatalf("W2 rewrite WHERE = %v", rw2.Stmt.Where)
	}

	// W3: fully replaced by Employee-Works_On.
	rw3 := d.Rewritten[sels[2]]
	if len(rw3.Stmt.From) != 1 || rw3.Stmt.From[0].Name != "V_Employee__Works_On" {
		t.Fatalf("W3 rewrite = %s", rw3.Stmt)
	}
}

// §VI-C: W3 filters Employee-Works_On on Hours, which the view key
// (WO_EID, WO_PNo) does not cover, so a view-index on Hours is added. W1
// filters Address-Employee on EID, the view key — no index.
func TestCompanyViewIndexes(t *testing.T) {
	d := companyDesign(t)
	var got []string
	for _, ix := range d.ViewIndexes {
		got = append(got, ix.View.DisplayName()+":"+strings.Join(ix.On, ","))
	}
	if len(got) != 1 || got[0] != "Employee-Works_On:Hours" {
		t.Fatalf("view indexes = %v, want [Employee-Works_On:Hours]", got)
	}
}

// Figure 6: the generic R1..R6 example — the query selects views R2-R3-R4
// and R5-R6 (not R2-R5-R6).
func TestFigure6Example(t *testing.T) {
	s := schema.New()
	mk := func(name string, pk string, fks ...schema.ForeignKey) {
		cols := []schema.Column{{Name: pk, Type: schema.TInt}}
		for _, fk := range fks {
			cols = append(cols, schema.Column{Name: fk.Cols[0], Type: schema.TInt})
		}
		s.AddRelation(&schema.Relation{Name: name, Columns: cols, PK: []string{pk}, FKs: fks})
	}
	mk("R1", "pk1")
	mk("R2", "pk2", schema.ForeignKey{Cols: []string{"fk2"}, RefTable: "R1"})
	mk("R3", "pk3", schema.ForeignKey{Cols: []string{"fk3"}, RefTable: "R2"})
	mk("R4", "pk4", schema.ForeignKey{Cols: []string{"fk4"}, RefTable: "R3"})
	mk("R5", "pk5", schema.ForeignKey{Cols: []string{"fk5"}, RefTable: "R2"})
	mk("R6", "pk6", schema.ForeignKey{Cols: []string{"fk6"}, RefTable: "R5"})

	q := `SELECT * FROM R2, R3, R4, R5, R6
	      WHERE R2.pk2 = R3.fk3 and R3.pk3 = R4.fk4 and R2.pk2 = R5.fk5 and R5.pk5 = R6.fk6`
	w, err := ParseWorkload([]string{q})
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDesign(s, []string{"R1"}, w)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, v := range d.Views {
		names = append(names, v.DisplayName())
	}
	want := "R2-R3-R4,R5-R6"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("Figure 6 views = %s, want %s", got, want)
	}
	// Rewrite: SELECT * FROM R2-R3-R4, R5-R6 WHERE v0.pk2 = v1.fk5.
	rw := d.Rewritten[d.Workload.Selects()[0]]
	if len(rw.Stmt.From) != 2 {
		t.Fatalf("rewrite FROM = %s", rw.Stmt)
	}
	if len(rw.Stmt.Where) != 1 {
		t.Fatalf("rewrite WHERE = %v, want single cross-view join", rw.Stmt.Where)
	}
}

func TestLockChains(t *testing.T) {
	d := companyDesign(t)
	// Works_On -> Employee -> Address: two hops.
	chain, ok := d.LockChain("Works_On")
	if !ok || len(chain) != 2 {
		t.Fatalf("LockChain(Works_On) = %v, %v", chain, ok)
	}
	if chain[0].Parent != "Address" || chain[1].Parent != "Employee" {
		t.Fatalf("chain order = %v", chain)
	}
	// Root locks itself.
	chain, ok = d.LockChain("Address")
	if !ok || len(chain) != 0 {
		t.Fatalf("LockChain(Address) = %v, %v", chain, ok)
	}
}

func TestPlanInsertReadChain(t *testing.T) {
	d := companyDesign(t)
	ins := sqlparser.MustParse("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)")
	plan, err := PlanWrite(d, ins)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root != "Address" {
		t.Fatalf("plan root = %q, want Address", plan.Root)
	}
	if len(plan.Actions) != 1 || plan.Actions[0].View.DisplayName() != "Employee-Works_On" {
		t.Fatalf("plan actions = %+v", plan.Actions)
	}
	// §VII-A2: k-1 = 1 read (Employee) to construct the view tuple.
	rc := plan.Actions[0].ReadChain
	if len(rc) != 1 || rc[0].Parent != "Employee" {
		t.Fatalf("read chain = %v", rc)
	}
	if plan.MultiRow() {
		t.Fatal("insert plans are single-row")
	}
}

func TestPlanInsertOnRootAppliesNoViews(t *testing.T) {
	d := companyDesign(t)
	ins := sqlparser.MustParse("INSERT INTO Address (AID, Street, City, Zip) VALUES (?, ?, ?, ?)")
	plan, err := PlanWrite(d, ins)
	if err != nil {
		t.Fatal(err)
	}
	// Address is in view Address-Employee but is not its last relation:
	// the insert applicability test fails (§VII-A1).
	if len(plan.Actions) != 0 {
		t.Fatalf("actions = %+v, want none", plan.Actions)
	}
	if plan.Root != "Address" {
		t.Fatalf("root = %q", plan.Root)
	}
}

func TestPlanUpdateLocators(t *testing.T) {
	d := companyDesign(t)
	// Update on Employee applies to both views; in Address-Employee it is
	// the last relation (by-key), in Employee-Works_On it needs a
	// maintenance index... but the company workload has no UPDATE
	// statements, so no maintenance index exists and the plan falls back
	// to a scan.
	up := sqlparser.MustParse("UPDATE Employee SET EName = ? WHERE EID = ?")
	plan, err := PlanWrite(d, up)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Actions) != 2 {
		t.Fatalf("actions = %d, want 2", len(plan.Actions))
	}
	locators := map[string]LocatorKind{}
	for _, a := range plan.Actions {
		locators[a.View.DisplayName()] = a.Locator
	}
	if locators["Address-Employee"] != LocateByViewKey {
		t.Fatalf("Address-Employee locator = %v, want by-view-key", locators["Address-Employee"])
	}
	if locators["Employee-Works_On"] != LocateByScan {
		t.Fatalf("Employee-Works_On locator = %v, want scan (no maintenance index without update workload)", locators["Employee-Works_On"])
	}
	if !plan.MultiRow() {
		t.Fatal("update on non-last relation must be multi-row")
	}
}

func TestMaintenanceIndexDerivedFromUpdateWorkload(t *testing.T) {
	stmts := append(schema.CompanyWorkload(), "UPDATE Employee SET EName = ? WHERE EID = ?")
	w, err := ParseWorkload(stmts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDesign(schema.Company(), schema.CompanyRoots(), w)
	if err != nil {
		t.Fatal(err)
	}
	var maint []*ViewIndex
	for _, ix := range d.ViewIndexes {
		if ix.Maintenance {
			maint = append(maint, ix)
		}
	}
	if len(maint) != 1 || maint[0].View.DisplayName() != "Employee-Works_On" || maint[0].On[0] != "EID" {
		t.Fatalf("maintenance indexes = %+v, want Employee-Works_On on EID", maint)
	}
	// With the index present, the update plan locates by index.
	up := sqlparser.MustParse("UPDATE Employee SET EName = ? WHERE EID = ?")
	plan, _ := PlanWrite(d, up)
	for _, a := range plan.Actions {
		if a.View.DisplayName() == "Employee-Works_On" && a.Locator != LocateByIndex {
			t.Fatalf("locator = %v, want by-index", a.Locator)
		}
	}
}

func TestPlanDeleteAppliesOnlyToLastRelation(t *testing.T) {
	d := companyDesign(t)
	del := sqlparser.MustParse("DELETE FROM Employee WHERE EID = ?")
	plan, err := PlanWrite(d, del)
	if err != nil {
		t.Fatal(err)
	}
	// Employee is last in Address-Employee (applies) but not in
	// Employee-Works_On (no cascade, §VII-B1).
	if len(plan.Actions) != 1 || plan.Actions[0].View.DisplayName() != "Address-Employee" {
		t.Fatalf("delete actions = %+v", plan.Actions)
	}
}

func TestUnassignedRelationHasNoLock(t *testing.T) {
	// A standalone relation (no FKs, not a root) stays outside the trees.
	s := schema.New()
	s.AddRelation(&schema.Relation{
		Name:    "Cart",
		Columns: []schema.Column{{Name: "id", Type: schema.TInt}},
		PK:      []string{"id"},
	})
	s.AddRelation(&schema.Relation{
		Name:    "Root",
		Columns: []schema.Column{{Name: "rid", Type: schema.TInt}},
		PK:      []string{"rid"},
	})
	w, _ := ParseWorkload([]string{"INSERT INTO Cart (id) VALUES (?)"})
	d, err := BuildDesign(s, []string{"Root"}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Candidates.Unassigned) != 1 || d.Candidates.Unassigned[0] != "Cart" {
		t.Fatalf("unassigned = %v", d.Candidates.Unassigned)
	}
	plan, err := PlanWrite(d, sqlparser.MustParse("INSERT INTO Cart (id) VALUES (?)"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root != "" || len(plan.Actions) != 0 {
		t.Fatalf("plan = %+v, want lock-free no-view plan", plan)
	}
}

func TestViewNameAndDisplay(t *testing.T) {
	d := companyDesign(t)
	v := d.ViewByName("V_Address__Employee")
	if v == nil {
		t.Fatal("view missing")
	}
	if v.DisplayName() != "Address-Employee" {
		t.Fatalf("display = %q", v.DisplayName())
	}
	if !v.Contains("Employee") || v.Contains("Project") {
		t.Fatal("Contains misbehaves")
	}
	if v.Last() != "Employee" {
		t.Fatalf("Last = %q", v.Last())
	}
}

func TestDesignSummaryMentionsEverything(t *testing.T) {
	d := companyDesign(t)
	sum := d.Summary()
	for _, want := range []string{"Address-Employee", "Employee-Works_On", "Roots: Address, Department", "Hours"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestCandidateViewEnumeration(t *testing.T) {
	d := companyDesign(t)
	tree := d.Candidates.Tree("Address")
	paths := tree.DownwardPaths()
	// Paths with >=1 edge in A->E->{WO,DP}: A-E, A-E-WO, A-E-DP, E-WO,
	// E-DP.
	if len(paths) != 5 {
		var names []string
		for _, p := range paths {
			names = append(names, p.String())
		}
		t.Fatalf("candidate paths = %v, want 5", names)
	}
}

func TestBadRootRejected(t *testing.T) {
	w, _ := ParseWorkload(nil)
	if _, err := BuildDesign(schema.Company(), []string{"Nope"}, w); err == nil {
		t.Fatal("unknown root should fail")
	}
}

// TestDesignLookupsBuildNothing pins that the names and paths a statement asks
// a design for — per read in the view rewrite, per write in PlanWrite — were
// computed when the design was built: asking allocates nothing, and what a
// tree hands out is what it derives from its edges.
func TestDesignLookupsBuildNothing(t *testing.T) {
	d := companyDesign(t)
	tree := d.Candidates.Tree("Address")
	p, ok := tree.PathFromRoot("Works_On")
	if !ok || p.String() != "Address - Employee - Works_On" || len(p.Edges) != 2 || p.Edges[1].Child != "Works_On" {
		t.Fatalf("path to Works_On = %v (%v), want Address - Employee - Works_On", p, ok)
	}
	if p, ok := tree.PathFromRoot("Address"); !ok || len(p.Relations) != 1 || len(p.Edges) != 0 {
		t.Fatalf("path to the root = %v (%v)", p, ok)
	}
	if _, ok := tree.PathFromRoot("Project"); ok {
		t.Fatal("Project is in the Department tree, not Address's")
	}
	if got := tree.Children("Employee"); len(got) != 2 || got[0] != "Dependent" || got[1] != "Works_On" {
		t.Fatalf("children of Employee = %v", got)
	}
	if got := tree.Edges(); len(got) != 3 || got[0].Child != "Dependent" || got[1].Child != "Employee" || got[2].Child != "Works_On" {
		t.Fatalf("edges = %v, want them sorted by child", got)
	}
	v, ix := d.Views[0], d.ViewIndexes[0]
	if v.Name() != "V_"+strings.Join(v.Relations, "__") || !strings.HasPrefix(ix.Name(), "IX_"+ix.View.Name()+"__") {
		t.Fatalf("names %q, %q", v.Name(), ix.Name())
	}
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		p, _ := tree.PathFromRoot("Works_On")
		chain, _ := d.LockChain("Works_On")
		sink += len(v.Name()) + len(ix.Name()) + len(tree.Edges()) + len(tree.Children("Employee")) + len(p.Edges) + len(chain)
	}); n != 0 {
		t.Errorf("%v allocations per round of lookups, want 0", n)
	}
}
