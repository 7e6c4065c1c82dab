package schema

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCompanySchemaShape(t *testing.T) {
	s := Company()
	if got := len(s.Relations()); got != 7 {
		t.Fatalf("relations = %d, want 7 (Figure 2)", got)
	}
	emp := s.Relation("Employee")
	if emp == nil || len(emp.FKs) != 3 {
		t.Fatalf("Employee FKs = %+v, want 3", emp)
	}
	if !emp.IsPK("EID") || emp.IsPK("EName") {
		t.Fatal("Employee PK misidentified")
	}
	wo := s.Relation("Works_On")
	if len(wo.PK) != 2 {
		t.Fatalf("Works_On PK = %v, want composite", wo.PK)
	}
}

func TestSchemaValidate(t *testing.T) {
	s := New()
	s.AddRelation(&Relation{
		Name:    "A",
		Columns: []Column{{Name: "id", Type: TInt}, {Name: "b_ref", Type: TInt}},
		PK:      []string{"id"},
		FKs:     []ForeignKey{{Cols: []string{"b_ref"}, RefTable: "B"}},
	})
	if err := s.Validate(); err == nil {
		t.Fatal("dangling FK should fail validation")
	}
	s.AddRelation(&Relation{
		Name:    "B",
		Columns: []Column{{Name: "x", Type: TInt}, {Name: "y", Type: TInt}},
		PK:      []string{"x", "y"},
	})
	if err := s.Validate(); err == nil {
		t.Fatal("FK/PK arity mismatch should fail validation")
	}
}

func TestAddRelationPanics(t *testing.T) {
	cases := []func(){
		func() { // duplicate
			s := New()
			r := &Relation{Name: "A", Columns: []Column{{Name: "id"}}, PK: []string{"id"}}
			s.AddRelation(r)
			s.AddRelation(r)
		},
		func() { // PK not declared
			New().AddRelation(&Relation{Name: "A", Columns: []Column{{Name: "x"}}, PK: []string{"id"}})
		},
		func() { // index on unknown table
			New().AddIndex(&Index{Name: "i", Table: "missing"})
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCompanyGraphEdges(t *testing.T) {
	g := BuildGraph(Company())
	// Figure 4(a): 9 key/foreign-key edges (Employee references Address
	// twice: home and office).
	if got := len(g.Edges()); got != 9 {
		t.Fatalf("edges = %d, want 9", got)
	}
	addrOut := g.OutEdges("Address")
	if len(addrOut) != 3 { // EHome, EOffice, DPHome
		t.Fatalf("Address out-edges = %d, want 3", len(addrOut))
	}
	if len(g.InEdges("Works_On")) != 2 {
		t.Fatalf("Works_On in-edges = %d, want 2", len(g.InEdges("Works_On")))
	}
}

func TestTopoSortCompany(t *testing.T) {
	g := BuildGraph(Company())
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, e := range g.Edges() {
		if pos[e.Parent] >= pos[e.Child] {
			t.Fatalf("topological violation: %s at %d, %s at %d", e.Parent, pos[e.Parent], e.Child, pos[e.Child])
		}
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := BuildGraph(Company())
	a, _ := g.TopoSort()
	b, _ := g.TopoSort()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("non-deterministic topo order: %v vs %v", a, b)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := NewGraph([]string{"A", "B"}, []Edge{
		{Parent: "A", Child: "B"},
		{Parent: "B", Child: "A"},
	})
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("cycle should fail topo sort")
	}
}

func TestPathsEnumeration(t *testing.T) {
	g := BuildGraph(Company())
	// Address -> Employee: two parallel edges (home, office).
	paths := g.Paths("Address", "Employee")
	if len(paths) != 2 {
		t.Fatalf("Address->Employee paths = %d, want 2", len(paths))
	}
	// Address -> Works_On: via Employee (either FK edge).
	paths = g.Paths("Address", "Works_On")
	if len(paths) != 2 {
		t.Fatalf("Address->Works_On paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if p.Start() != "Address" || p.End() != "Works_On" {
			t.Fatalf("bad endpoints: %v", p)
		}
		if len(p.Edges) != len(p.Relations)-1 {
			t.Fatalf("malformed path: %v", p)
		}
	}
	// Department -> Works_On: via Employee and via Project.
	paths = g.Paths("Department", "Works_On")
	if len(paths) != 2 {
		t.Fatalf("Department->Works_On paths = %d, want 2", len(paths))
	}
	if got := g.Paths("Works_On", "Address"); len(got) != 0 {
		t.Fatalf("reverse paths = %d, want 0", len(got))
	}
}

func TestPathString(t *testing.T) {
	g := BuildGraph(Company())
	paths := g.Paths("Department", "Employee")
	if len(paths) != 1 || paths[0].String() != "Department - Employee" {
		t.Fatalf("paths = %v", paths)
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{float64(1.5), int64(2), -1},
		{int64(2), float64(1.5), 1},
		{"a", "b", -1},
		{nil, int64(0), -1},
		{nil, nil, 0},
		{int64(5), "5", -1}, // numbers before strings
		// Equal across representations.
		{int64(2), float64(2), 0},
		{int(2), int64(2), 0},
		{"true", true, 0}, // other types order by their printed form
		{"", "", 0},
		{"ab", "a", 1},
	}
	// Every ordered pair of types: nil < numbers (numerically, whatever the
	// representation) < everything else by printed form.
	ascending := []Value{nil, int64(2), 2.5, int(3), "b", true}
	for i, a := range ascending {
		for j, b := range ascending {
			want := 0
			switch {
			case i < j:
				want = -1
			case i > j:
				want = 1
			}
			cases = append(cases, struct {
				a, b Value
				want int
			}{a, b, want})
		}
	}
	for _, c := range cases {
		if got := CompareValues(c.a, c.b); got != c.want {
			t.Errorf("CompareValues(%#v, %#v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestCompareStringsNoAlloc pins the string/string fast path: an ORDER BY on
// a string column compares without formatting either side.
func TestCompareStringsNoAlloc(t *testing.T) {
	var a, b Value = "alpha", "beta"
	if n := testing.AllocsPerRun(100, func() { CompareValues(a, b) }); n != 0 {
		t.Fatalf("CompareValues(string, string) allocates %v per call", n)
	}
}

func TestEncodeKeyOrderPreservingInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka, kb := EncodeKey(a), EncodeKey(b)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeKeyOrderPreservingFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if a != a || b != b { // skip NaN
			return true
		}
		ka, kb := EncodeKey(a), EncodeKey(b)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeKeyOrderPreservingStrings(t *testing.T) {
	f := func(a, b string) bool {
		ka, kb := EncodeKey(a), EncodeKey(b)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKeyOrderIsCompareValuesOrder is the property the SQL layer's sort
// elision rests on: for each column type, with NULLs, rows ordered by their
// encoded key are ordered as CompareValues orders the column values — NULL
// first — and ties fall to the next key column, so reading a key range
// forwards or backwards is ORDER BY its columns ASC or DESC. (Integers stay
// within ±2^53: CompareValues compares numbers as float64.)
func TestKeyOrderIsCompareValuesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	alphabet := []byte{0x00, 0x01, 'a', 'b', 0xff}
	gens := map[string]func() Value{
		"int": func() Value {
			if rng.Intn(3) == 0 {
				return int64(rng.Intn(7) - 3)
			}
			return rng.Int63n(1<<54) - 1<<53
		},
		"float": func() Value {
			switch rng.Intn(4) {
			case 0:
				return float64(rng.Intn(7) - 3)
			case 1:
				return math.Inf(rng.Intn(2)*2 - 1)
			}
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		},
		"string": func() Value {
			b := make([]byte, rng.Intn(5))
			for i := range b {
				b[i] = alphabet[rng.Intn(len(alphabet))]
			}
			return string(b)
		},
	}
	for name, gen := range gens {
		value := func() Value {
			if rng.Intn(6) == 0 {
				return nil
			}
			return gen()
		}
		for i := 0; i < 20000; i++ {
			// Two-column keys: the typed column, then a tie-breaker.
			a, b := []Value{value(), int64(rng.Intn(3))}, []Value{value(), int64(rng.Intn(3))}
			if rng.Intn(4) == 0 {
				b[0] = a[0]
			}
			want := CompareValues(a[0], b[0])
			if want == 0 {
				want = CompareValues(a[1], b[1])
			}
			if got := strings.Compare(EncodeKey(a...), EncodeKey(b...)); got != want {
				t.Fatalf("%s: keys of %#v and %#v compare %d, values %d", name, a, b, got, want)
			}
		}
	}
}

func TestCompositeKeyOrdering(t *testing.T) {
	// (1, "b") < (2, "a") and (1, "a") < (1, "b").
	keys := []string{
		EncodeKey(int64(1), "a"),
		EncodeKey(int64(1), "b"),
		EncodeKey(int64(2), "a"),
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	for i := range keys {
		if keys[i] != sorted[i] {
			t.Fatalf("composite key order violated at %d", i)
		}
	}
}

func TestKeyPrefixMatchesOnlyExactLeadingValues(t *testing.T) {
	// Prefix of (10) must match (10, x) but not (100, x) — the classic
	// delimited-key pitfall.
	p := KeyPrefix(int64(10))
	k10 := EncodeKey(int64(10), "x")
	k100 := EncodeKey(int64(100), "x")
	if !strings.HasPrefix(k10, p) {
		t.Fatal("prefix should match key with same leading value")
	}
	if strings.HasPrefix(k100, p) {
		t.Fatal("prefix must not match different leading value")
	}
	// Same for strings: "ab" prefix must not match "abc"'s key.
	ps := KeyPrefix("ab")
	kabc := EncodeKey("abc", int64(1))
	kab := EncodeKey("ab", int64(1))
	if strings.HasPrefix(kabc, ps) {
		t.Fatal(`prefix "ab" must not match "abc"`)
	}
	if !strings.HasPrefix(kab, ps) {
		t.Fatal(`prefix "ab" should match "ab"`)
	}
}

func TestEncodeKeyStringWithNulBytes(t *testing.T) {
	a := EncodeKey("a\x00b", "c")
	b := EncodeKey("a", "b\x00c")
	if a == b {
		t.Fatal("NUL-containing strings must not collide across key parts")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{"a": int64(1)}
	c := r.Clone()
	c["a"] = int64(2)
	if r["a"].(int64) != 1 {
		t.Fatal("clone aliases original")
	}
}

// TestCompanySampleLoadsParentsFirst: every sample table is a Company
// relation, and each foreign key of a row names a row of a table loaded
// before it, so loading in the returned order never references ahead.
func TestCompanySampleLoadsParentsFirst(t *testing.T) {
	s := Company()
	loaded := map[string]map[Value]bool{}
	for _, tr := range CompanySample() {
		rel := s.Relation(tr.Table)
		if rel == nil || len(tr.Rows) == 0 {
			t.Fatalf("%s: not a Company relation, or no rows", tr.Table)
		}
		for _, row := range tr.Rows {
			for _, fk := range rel.FKs {
				if v := row[fk.Cols[0]]; !loaded[fk.RefTable][v] {
					t.Fatalf("%s row %v: %s=%v names no loaded %s row", tr.Table, row, fk.Cols[0], v, fk.RefTable)
				}
			}
		}
		if len(rel.PK) == 1 {
			keys := map[Value]bool{}
			for _, row := range tr.Rows {
				keys[row[rel.PK[0]]] = true
			}
			loaded[tr.Table] = keys
		}
	}
}
