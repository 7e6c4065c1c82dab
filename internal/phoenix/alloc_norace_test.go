//go:build !race

package phoenix

import (
	"fmt"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// TestGroupByAllocsSublinear pins the executor's side of it: a GROUP BY over
// 20,000 scanned rows allocates per scan chunk and slab, not per row — and,
// its groups being ids in a keyTable, not per group either. (The file is not
// built under -race: the race detector makes sync.Pool drop items at random,
// so a share of the scan's pooled chunk buffers would be allocated again.)
func TestGroupByAllocsSublinear(t *testing.T) {
	eng := groupByDB(t)
	sel, err := sqlparser.ParseSelect(groupBySQL)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 20000
	var groups int
	n := testing.AllocsPerRun(2, func() { groups = drainRaw(t, eng, sim.NewCtx(), sel) })
	if groups != 86 {
		t.Fatalf("%d groups, want 86", groups)
	}
	if n >= rows/100 {
		t.Errorf("%v allocations for a %d-row GROUP BY, want fewer than %d", n, rows, rows/100)
	}
	t.Logf("%v allocations over %d rows", n, rows)
}

// TestScanColumnSetAllocs pins what naming a scan's columns may cost: at most
// one set per plan — its qualifiers — and, per store file the set's columns
// first meet, one mask over that file's dictionary, which the file keeps for
// every later scan of the same columns; nothing per row, per chunk or per
// probe. A projected scan of 20,000 rows allocates no more than the same scan
// as SELECT * plus that handful, and 500 index-nested-loop probes of the table
// share one set, so they allocate no more than 500 probes that read whole rows.
func TestScanColumnSetAllocs(t *testing.T) {
	eng := groupByDB(t)
	probe := &schema.Relation{
		Name:    "Probe",
		Columns: []schema.Column{{Name: "p_id", Type: schema.TInt}, {Name: "p_c_id", Type: schema.TInt}},
		PK:      []string{"p_id"},
	}
	info, err := eng.Catalog().RegisterRelation(probe, hbase.TableSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(1); p <= 500; p++ {
		if err := eng.PutRow(sim.NewCtx(), info, schema.Row{"p_id": p, "p_c_id": p * 37}, WriteOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	const perSet = 8 // the set, its qualifiers, a mask per store file of the fixture
	for _, tc := range []struct {
		name, projected, whole string
		rows                   int
	}{
		{"20,000-row scan", `SELECT c_uname, c_balance FROM Customer WHERE c_birthdate > 0`, `SELECT * FROM Customer WHERE c_birthdate > 0`, 20000},
		{"500 probes", `SELECT p.p_id, c.c_uname FROM Probe p, Customer c WHERE p.p_c_id = c.c_id`,
			`SELECT * FROM Probe p, Customer c WHERE p.p_c_id = c.c_id`, 500},
	} {
		allocs := func(sql string) float64 {
			sel, err := sqlparser.ParseSelect(sql)
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(3, func() {
				if n := drainRaw(t, eng, sim.NewCtx(), sel); n != tc.rows {
					t.Fatalf("%s: %d rows, want %d", sql, n, tc.rows)
				}
			})
		}
		with, without := allocs(tc.projected), allocs(tc.whole)
		if with > without+perSet {
			t.Errorf("%s: %v allocations with a column set, %v reading every column: want at most %d more", tc.name, with, without, perSet)
		}
		t.Logf("%s: %v allocations with a column set, %v without", tc.name, with, without)
	}
}

// TestINLJoinAllocsFlat pins what an index nested-loop join allocates per
// outer row: nothing. Every probe of the inner side by key prefix is cut from
// one string of all the probes' ranges and reads through the join's one
// scanner, filter and column set, and each outer row's one match lands in an
// output sized by the outer side's count; so a join of 32 outer rows
// allocates what a join of one does, give or take the one array the outer
// scan sizes from its first chunk. The keys are strings, which a probe keys
// without decoding. At the parent commit an execution of the same join
// allocated 22 at 1 outer row and 186 at 32; here 10 and 11.
func TestINLJoinAllocsFlat(t *testing.T) {
	hc := hbase.NewHCluster(nil, nil)
	cat := NewCatalog(hc)
	for _, r := range []*schema.Relation{
		{Name: "O", PK: []string{"o_id"}, Columns: []schema.Column{{Name: "o_id", Type: schema.TInt}, {Name: "o_k", Type: schema.TString}, {Name: "o_pad", Type: schema.TString}}},
		{Name: "I", PK: []string{"i_k", "i_n"}, Columns: []schema.Column{{Name: "i_k", Type: schema.TString}, {Name: "i_n", Type: schema.TInt}, {Name: "i_v", Type: schema.TInt}, {Name: "i_pad", Type: schema.TString}}},
	} {
		if _, err := cat.RegisterRelation(r, hbase.TableSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(cat)
	ot, _ := cat.Table("O")
	it, _ := cat.Table("I")
	for i := int64(1); i <= 64; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if err := eng.PutRow(sim.NewCtx(), ot, schema.Row{"o_id": i, "o_k": k, "o_pad": "outer"}, WriteOpts{}); err != nil {
			t.Fatal(err)
		}
		// Of the two inner rows under each outer row's key, the pushed
		// filter keeps one.
		for n, pad := range []string{"skip", "keep"} {
			if err := eng.PutRow(sim.NewCtx(), it, schema.Row{"i_k": k, "i_n": int64(n), "i_v": i*10 + int64(n), "i_pad": pad}, WriteOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tbl := range []string{"O", "I"} {
		if err := hc.FlushTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := sqlparser.ParseSelect(`SELECT o.o_id, i.i_v FROM O o, I i WHERE o.o_k = i.i_k AND o.o_id <= ? AND i.i_pad = 'keep'`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Compile(sel)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(outer int64) float64 {
		params := args(outer)
		return testing.AllocsPerRun(20, func() {
			ctx := sim.NewCtx()
			cur, err := plan.Open(ctx, params, QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for cur.Next(ctx) {
				n++
			}
			if err := cur.Close(ctx); err != nil {
				t.Fatal(err)
			}
			if st := ctx.Snapshot(); n != int(outer) || st.RPCs != int64(1+outer) {
				t.Fatalf("%d outer rows: %d rows in %d RPCs, want %d in %d", outer, n, st.RPCs, outer, 1+outer)
			}
		})
	}
	many, one := allocs(32), allocs(1)
	if many > one+1 {
		t.Errorf("an index nested-loop join allocates %v at 1 outer row and %v at 32: want at most one more", one, many)
	}
	t.Logf("%v allocations at 1 outer row, %v at 32", one, many)
}
