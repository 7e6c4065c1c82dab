package synergy

import (
	"fmt"
	"strings"
	"testing"

	"synergy/internal/core"
	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
)

// TestBuildViewSemantics pins what joining encoded rows must keep of the
// boxed join it replaced, on a three-relation path A-B-C built by hand (the
// selection pipeline refuses attribute names shared between relations, and
// one is needed here): a row whose foreign key is NULL or dangling is not in
// the view, nor are the rows below it; a child's column shadows a parent's of
// the same name, unless the child's is NULL; a marker cell on a base row is
// not copied; a covered view-index row is its view row; a key-only index
// stores only its key attributes.
func TestBuildViewSemantics(t *testing.T) {
	sch := schema.New()
	sch.AddRelation(&schema.Relation{Name: "A", PK: []string{"a_id"}, Columns: []schema.Column{
		{Name: "a_id", Type: schema.TInt}, {Name: "a_name", Type: schema.TString}, {Name: "note", Type: schema.TString}}})
	sch.AddRelation(&schema.Relation{Name: "B", PK: []string{"b_id"}, Columns: []schema.Column{
		{Name: "b_id", Type: schema.TInt}, {Name: "b_a_id", Type: schema.TInt}, {Name: "b_name", Type: schema.TString}, {Name: "note", Type: schema.TString}},
		FKs: []schema.ForeignKey{{Cols: []string{"b_a_id"}, RefTable: "A"}}})
	sch.AddRelation(&schema.Relation{Name: "C", PK: []string{"c_id"}, Columns: []schema.Column{
		{Name: "c_id", Type: schema.TInt}, {Name: "c_b_id", Type: schema.TInt}, {Name: "c_val", Type: schema.TFloat}},
		FKs: []schema.ForeignKey{{Cols: []string{"c_b_id"}, RefTable: "B"}}})
	sys, err := New(sch, []string{"A"}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for table, rows := range map[string][]schema.Row{
		"A": {
			{"a_id": int64(1), "a_name": "a1", "note": "from-a1"},
			{"a_id": int64(2), "a_name": "a2", "note": "from-a2"},
		},
		"B": {
			{"b_id": int64(10), "b_a_id": int64(1), "b_name": "b10", "note": "from-b10"},
			{"b_id": int64(11), "b_a_id": int64(2), "b_name": "b11"},             // note NULL: A's shows through
			{"b_id": int64(12), "b_a_id": int64(9), "b_name": "dangling"},        // no such A
			{"b_id": int64(13), "b_name": "null-fk", "note": "from-b13"},         // b_a_id NULL
			{"b_id": int64(14), "b_a_id": 1.0, "b_name": "float-fk"},             // 1.0 keys unlike 1
			{"b_id": int64(15), "b_a_id": int64(1), "b_name": "b15", "note": ""}, // empty string is not NULL
		},
		"C": {
			{"c_id": int64(100), "c_b_id": int64(10), "c_val": 1.5},
			{"c_id": int64(101), "c_b_id": int64(11), "c_val": 2.5},
			{"c_id": int64(102), "c_b_id": int64(12), "c_val": 3.5}, // parent dropped for its dangling key
			{"c_id": int64(103), "c_b_id": int64(13), "c_val": 4.5}, // parent dropped for its NULL key
			{"c_id": int64(104), "c_b_id": int64(77), "c_val": 5.5}, // dangling
			{"c_id": int64(105), "c_val": 6.5},                      // NULL
			{"c_id": int64(106), "c_b_id": int64(15)},
			{"c_id": int64(107), "c_b_id": int64(14), "c_val": 7.5}, // parent dropped for its float key
		},
	} {
		if err := sys.LoadBase(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	// A dirty mark left on a base row, and one on the row the view ends in.
	client, ctx := sys.Engine.Client(), sim.NewCtx()
	for table, key := range map[string]string{"B": schema.EncodeKey(int64(10)), "C": schema.EncodeKey(int64(100))} {
		if err := client.Put(ctx, table, key, []hbase.Cell{{Qualifier: phoenix.DirtyQualifier, Value: []byte("1")}}); err != nil {
			t.Fatal(err)
		}
	}

	v := &core.View{
		Relations: []string{"A", "B", "C"},
		Edges: []schema.Edge{
			{Parent: "A", Child: "B", PK: []string{"a_id"}, FK: []string{"b_a_id"}},
			{Parent: "B", Child: "C", PK: []string{"b_id"}, FK: []string{"c_b_id"}},
		},
		Root: "A",
		Key:  []string{"c_id"},
	}
	seen := map[string]bool{}
	for _, rel := range v.Relations {
		for _, c := range sch.Relation(rel).Columns {
			if !seen[c.Name] {
				seen[c.Name] = true
				v.Cols = append(v.Cols, c)
			}
		}
	}
	if _, err := sys.Catalog.RegisterView(v.Name(), v.Cols, v.Key, v.Relations, hbase.TableSpec{}); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []phoenix.IndexInfo{
		{Name: "IX_covered", On: []string{"b_name"}},
		{Name: "IX_keyonly", On: []string{"a_name"}, KeyOnly: true},
	} {
		if err := sys.Catalog.RegisterIndex(v.Name(), idx, hbase.TableSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := sys.Catalog.Table(v.Name())
	if err != nil {
		t.Fatal(err)
	}
	load, err := sys.buildView(v, info, sys.Store.ReserveTS(1+len(info.Indexes)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.attach(load); err != nil {
		t.Fatal(err)
	}

	scan := func(table string) []hbase.RowResult {
		t.Helper()
		sc, err := client.Scan(ctx, table, hbase.ScanSpec{})
		if err != nil {
			t.Fatal(err)
		}
		var rows []hbase.RowResult
		for _, r := range sc.All(ctx) {
			rows = append(rows, r.Clone())
		}
		return rows
	}
	render := func(rows []hbase.RowResult) []string {
		var out []string
		for _, r := range rows {
			line := ""
			for _, c := range r.Cells {
				line += fmt.Sprintf("%s=%v ", c.Qualifier, phoenix.DecodeValue(c.Value))
			}
			out = append(out, line)
		}
		return out
	}
	view := scan(v.Name())
	want := []string{
		"a_id=1 a_name=a1 b_a_id=1 b_id=10 b_name=b10 c_b_id=10 c_id=100 c_val=1.5 note=from-b10 ",
		"a_id=2 a_name=a2 b_a_id=2 b_id=11 b_name=b11 c_b_id=11 c_id=101 c_val=2.5 note=from-a2 ",
		"a_id=1 a_name=a1 b_a_id=1 b_id=15 b_name=b15 c_b_id=15 c_id=106 note= ",
	}
	got := render(view)
	if len(got) != len(want) {
		t.Fatalf("view holds %d rows, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("view row %d:\n got  %s\n want %s", i, got[i], want[i])
		}
		if view[i].Key != schema.EncodeKey(int64(100+[]int{0, 1, 6}[i])) {
			t.Errorf("view row %d is keyed %q", i, view[i].Key)
		}
	}

	covered := scan("IX_covered")
	if len(covered) != len(view) {
		t.Fatalf("covered index holds %d rows, want %d", len(covered), len(view))
	}
	for i, r := range covered { // b10, b11, b15: the view's order
		if r.Key != schema.EncodeKey([]string{"b10", "b11", "b15"}[i], int64(100+[]int{0, 1, 6}[i])) {
			t.Errorf("covered index row %d is keyed %q", i, r.Key)
		}
		if render([]hbase.RowResult{r})[0] != want[i] {
			t.Errorf("covered index row %d stores %s, want its view row %s", i, render([]hbase.RowResult{r})[0], want[i])
		}
	}
	keyOnly := render(scan("IX_keyonly"))
	wantKeyOnly := []string{"a_name=a1 c_id=100 ", "a_name=a1 c_id=106 ", "a_name=a2 c_id=101 "}
	if len(keyOnly) != len(wantKeyOnly) {
		t.Fatalf("key-only index holds %v, want %v", keyOnly, wantKeyOnly)
	}
	for i := range wantKeyOnly {
		if keyOnly[i] != wantKeyOnly[i] {
			t.Errorf("key-only index row %d stores %s, want %s", i, keyOnly[i], wantKeyOnly[i])
		}
	}
}

// TestBuildViewsStopsAtFirstFailure: a view that cannot be prepared fails the
// build with its name, nothing after it in Design.Views is installed, and
// BuildViews returns only once every preparation it started has finished.
func TestBuildViewsStopsAtFirstFailure(t *testing.T) {
	sys := companySystem(t)
	views := sys.Design.Views
	if len(views) < 2 {
		t.Fatalf("the company design selects %d views, want at least 2", len(views))
	}
	before := map[string]int64{}
	for _, table := range sys.Store.Tables() {
		before[table] = sys.Store.TableBytes(table)
	}
	bogus := &core.View{Relations: []string{"Nowhere", "Employee"}}
	sys.Design.Views = append([]*core.View{views[0], bogus}, views[1:]...)
	err := sys.BuildViews()
	if err == nil || !strings.Contains(err.Error(), bogus.DisplayName()) {
		t.Fatalf("BuildViews = %v, want a failure naming %s", err, bogus.DisplayName())
	}
	info, err := sys.Catalog.Table(views[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	reloaded := map[string]bool{info.Name: true}
	for _, idx := range info.Indexes {
		reloaded[idx.Name] = true
	}
	for _, table := range sys.Store.Tables() {
		if grew := sys.Store.TableBytes(table) > before[table]; grew != reloaded[table] {
			t.Errorf("%s: loaded again = %v, want %v (only the view ahead of the failure)", table, grew, reloaded[table])
		}
	}
}
