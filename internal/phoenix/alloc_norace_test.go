//go:build !race

package phoenix

import (
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

// TestScanColumnSetAllocs pins what naming a scan's columns may cost: one
// set per scan — its qualifiers and, per store file it meets, one mask over
// that file's dictionary — and nothing per row, per chunk or per probe. A
// projected scan of 20,000 rows allocates no more than the same scan as
// SELECT * plus that handful, and 500 index-nested-loop probes of the table
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
