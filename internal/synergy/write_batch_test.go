package synergy

import (
	"fmt"
	"sort"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// fanoutSchema builds a root relation plus n leaf relations, each leaf
// carrying a workload query that materializes the Root-Leaf_i view. An
// update on Root therefore fans out to n multi-row view maintenances — the
// write-amplification scenario the batched mutation pipeline targets.
func fanoutSchema(n int) (*schema.Schema, []string) {
	s := schema.New()
	s.AddRelation(&schema.Relation{
		Name: "Root",
		Columns: []schema.Column{
			{Name: "RID", Type: schema.TInt},
			{Name: "RVal", Type: schema.TString},
		},
		PK: []string{"RID"},
	})
	var workload []string
	for i := 0; i < n; i++ {
		leaf := fmt.Sprintf("Leaf%02d", i)
		s.AddRelation(&schema.Relation{
			Name: leaf,
			Columns: []schema.Column{
				{Name: leaf + "ID", Type: schema.TInt},
				{Name: leaf + "_RID", Type: schema.TInt},
				{Name: leaf + "Val", Type: schema.TString},
			},
			PK:  []string{leaf + "ID"},
			FKs: []schema.ForeignKey{{Cols: []string{leaf + "_RID"}, RefTable: "Root"}},
		})
		workload = append(workload, fmt.Sprintf(
			"SELECT * FROM Root as r, %[1]s as l WHERE r.RID = l.%[1]s_RID and l.%[1]sVal = ?", leaf))
	}
	workload = append(workload, "UPDATE Root SET RVal = ? WHERE RID = ?")
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s, workload
}

// fanoutSystem deploys the fanout schema with rowsPer leaf rows per leaf,
// all referencing root row 1 (so one Root update touches every view row).
func fanoutSystem(tb testing.TB, views, rowsPer int, cfg Config) *System {
	tb.Helper()
	s, workload := fanoutSchema(views)
	sys, err := New(s, []string{"Root"}, workload, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	roots := []schema.Row{
		{"RID": int64(1), "RVal": "one"},
		{"RID": int64(2), "RVal": "two"},
	}
	if err := sys.LoadBase("Root", roots); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < views; i++ {
		leaf := fmt.Sprintf("Leaf%02d", i)
		var rows []schema.Row
		for j := 0; j < rowsPer; j++ {
			rows = append(rows, schema.Row{
				leaf + "ID":   int64(j + 1),
				leaf + "_RID": int64(1),
				leaf + "Val":  fmt.Sprintf("%s-%d", leaf, j),
			})
		}
		if err := sys.LoadBase(leaf, rows); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sys.BuildViews(); err != nil {
		tb.Fatal(err)
	}
	if got := len(sys.Design.Views); got != views {
		tb.Fatalf("design selected %d views, want %d", got, views)
	}
	return sys
}

// dumpState scans every table (views, indexes, lock tables included) and
// renders the visible rows, giving a store-wide fingerprint for parity
// comparison.
func dumpState(t *testing.T, sys *System) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	client := sys.Engine.Client()
	for _, tbl := range sys.Store.Tables() {
		sc, err := client.Scan(sim.NewCtx(), tbl, hbase.ScanSpec{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, r := range sc.All(sim.NewCtx()) {
			rows = append(rows, r.String())
		}
		out[tbl] = rows
	}
	return out
}

func requireSameState(t *testing.T, seq, bat map[string][]string) {
	t.Helper()
	var tables []string
	for tbl := range seq {
		tables = append(tables, tbl)
	}
	sort.Strings(tables)
	if len(seq) != len(bat) {
		t.Fatalf("table sets differ: %d vs %d", len(seq), len(bat))
	}
	for _, tbl := range tables {
		s, b := seq[tbl], bat[tbl]
		if len(s) != len(b) {
			t.Fatalf("%s: row counts differ: sequential=%d batched=%d", tbl, len(s), len(b))
		}
		for i := range s {
			if s[i] != b[i] {
				t.Fatalf("%s row %d:\n  sequential: %s\n  batched:    %s", tbl, i, s[i], b[i])
			}
		}
	}
}

// writeWorkload drives one system through inserts, multi-row updates and
// deletes that exercise view-tuple construction, all three maintenance
// phases and index cleanup.
func writeWorkload(t *testing.T, sys *System) {
	t.Helper()
	exec := func(q string, params ...schema.Value) {
		t.Helper()
		if err := sys.Exec(sim.NewCtx(), sqlparser.MustParse(q), params); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	// Insert: new leaf rows build view tuples (read parent + merged put).
	exec("INSERT INTO Leaf00 (Leaf00ID, Leaf00_RID, Leaf00Val) VALUES (?, ?, ?)",
		int64(100), int64(1), "fresh")
	exec("INSERT INTO Leaf01 (Leaf01ID, Leaf01_RID, Leaf01Val) VALUES (?, ?, ?)",
		int64(101), int64(2), "other-root")
	// Insert a new root row (lock-table entry creation).
	exec("INSERT INTO Root (RID, RVal) VALUES (?, ?)", int64(3), "three")
	// Multi-row update: every view row under root 1 is marked, updated,
	// un-marked — the three batched phases.
	exec("UPDATE Root SET RVal = ? WHERE RID = ?", "one-renamed", int64(1))
	// Leaf update: single-row view update by view key, index key moves.
	exec("UPDATE Leaf02 SET Leaf02Val = ? WHERE Leaf02ID = ?", "moved", int64(2))
	// Deletes: view tuple and index entries removed.
	exec("DELETE FROM Leaf00 WHERE Leaf00ID = ?", int64(100))
	exec("DELETE FROM Leaf03 WHERE Leaf03ID = ?", int64(3))
	// Second multi-row update after the churn.
	exec("UPDATE Root SET RVal = ? WHERE RID = ?", "one-again", int64(1))
}

// TestBatchedSequentialWriteParity is the pipeline's contract: the batched
// write path and the eager per-mutation path leave every table — base,
// views, indexes, lock tables — in an identical visible state, and answer
// the workload queries identically.
func TestBatchedSequentialWriteParity(t *testing.T) {
	const views, rowsPer = 4, 6
	for _, mode := range []struct {
		name string
		cfg  func(sequential bool) Config
	}{
		{"hierarchical", func(seq bool) Config {
			return Config{SequentialWrites: seq}
		}},
		{"mvcc", func(seq bool) Config {
			return Config{Concurrency: MVCC, MaxVersions: 16, SequentialWrites: seq}
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			seqSys := fanoutSystem(t, views, rowsPer, mode.cfg(true))
			batSys := fanoutSystem(t, views, rowsPer, mode.cfg(false))
			writeWorkload(t, seqSys)
			writeWorkload(t, batSys)
			requireSameState(t, dumpState(t, seqSys), dumpState(t, batSys))

			// Read-back parity through the SQL layer, including the
			// view-index path. Row 5 (value suffix -4) is untouched by
			// the write workload, so every query must find it.
			for i, sel := range seqSys.Design.Workload.Selects() {
				params := []schema.Value{fmt.Sprintf("Leaf%02d-%d", i, 4)}
				s, err := seqSys.Query(sim.NewCtx(), sel, params)
				if err != nil {
					t.Fatal(err)
				}
				b, err := batSys.Query(sim.NewCtx(), sel, params)
				if err != nil {
					t.Fatal(err)
				}
				if len(s.Rows) != len(b.Rows) {
					t.Fatalf("query %d: %d vs %d rows", i, len(s.Rows), len(b.Rows))
				}
				if len(s.Rows) == 0 {
					t.Fatalf("query %d returned nothing; fixture broken", i)
				}
				for j := range s.Rows {
					for col, v := range s.Rows[j] {
						if !schema.ValuesEqual(v, b.Rows[j][col]) {
							t.Fatalf("query %d row %d col %s: %v vs %v", i, j, col, v, b.Rows[j][col])
						}
					}
				}
			}
		})
	}
}

// The batched pipeline must log the same durability work, except for the
// one saving it is allowed: a fresh root insert's lock entry rides the
// commit flush as a single conditional create-free write, where the eager
// pipeline logs two lock-table writes (Acquire's create-held checkAndPut,
// Release's free). writeWorkload inserts exactly one fresh root row.
func TestBatchedSequentialWALParity(t *testing.T) {
	const views, rowsPer = 4, 6
	const deferredLockSavings = 1 // one fresh root insert in writeWorkload
	walTotal := func(sys *System) int64 {
		var n int64
		for _, node := range sys.FS.Datanodes() {
			n += sys.Store.WALEdits(node)
		}
		return n
	}
	seqSys := fanoutSystem(t, views, rowsPer, Config{SequentialWrites: true})
	batSys := fanoutSystem(t, views, rowsPer, Config{})
	seqBase, batBase := walTotal(seqSys), walTotal(batSys)
	writeWorkload(t, seqSys)
	writeWorkload(t, batSys)
	if s, b := walTotal(seqSys)-seqBase, walTotal(batSys)-batBase; s != b+deferredLockSavings {
		t.Fatalf("WAL edits diverge: sequential=%d batched=%d (want sequential == batched+%d)",
			s, b, deferredLockSavings)
	}
}

// TestBatchedWriteSimulatedSpeedup pins the acceptance criterion: at 4 and
// 16 views the batched multi-row maintenance write simulates strictly
// faster than the sequential baseline.
func TestBatchedWriteSimulatedSpeedup(t *testing.T) {
	for _, views := range []int{4, 16} {
		seqSys := fanoutSystem(t, views, 8, Config{SequentialWrites: true})
		batSys := fanoutSystem(t, views, 8, Config{})
		up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")
		run := func(sys *System) sim.Micros {
			ctx := sim.NewCtx()
			if err := sys.Exec(ctx, up, []schema.Value{"renamed", int64(1)}); err != nil {
				t.Fatal(err)
			}
			return ctx.Elapsed()
		}
		seq, bat := run(seqSys), run(batSys)
		if bat >= seq {
			t.Fatalf("views=%d: batched %v not below sequential %v", views, bat, seq)
		}
		t.Logf("views=%d: sequential %v, batched %v (%.1fx)", views, seq, bat, float64(seq)/float64(bat))
	}
}
