package synergy_test

import (
	"fmt"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// viewCopy is one stored copy of a written row inside a view: a view row or
// a covered view-index entry, with its dirty mark and the assigned column.
type viewCopy struct {
	table string
	dirty bool
	value schema.Value
}

// viewCopies reads every view row and covered view-index entry whose keyCol
// is key, by table and row key. Key-only maintenance indexes are left out:
// queries never read them, so they carry no marks.
func viewCopies(t *testing.T, sys *synergy.System, keyCol string, key schema.Value, col string) map[string]viewCopy {
	t.Helper()
	ctx, client := sim.NewCtx(), sys.Store.NewClient()
	out := map[string]viewCopy{}
	for _, info := range sys.Catalog.Views() {
		tables := []string{info.Name}
		for _, idx := range info.Indexes {
			if !idx.KeyOnly {
				tables = append(tables, idx.Name)
			}
		}
		for _, table := range tables {
			sc, err := client.Scan(ctx, table, hbase.ScanSpec{})
			if err != nil {
				t.Fatal(err)
			}
			for r, ok := sc.Next(ctx); ok; r, ok = sc.Next(ctx) {
				row := phoenix.CellsToRow(r)
				if schema.ValuesEqual(row[keyCol], key) {
					out[table+"/"+r.Key] = viewCopy{info.Name, phoenix.IsDirty(r), row[col]}
				}
			}
		}
	}
	return out
}

// checkPhaseOrder runs sql (SET col = value WHERE keyCol = key) and holds
// every copy of the row in every view to §VIII-B after each barrier: marked
// with the old value, then marked with the new value, then unmarked with the
// new value. views is how many views must hold a copy.
func checkPhaseOrder(t *testing.T, sys *synergy.System, sql, keyCol string, key schema.Value, col string, value schema.Value, views int) {
	t.Helper()
	before := viewCopies(t, sys, keyCol, key, col)
	inViews := map[string]bool{}
	for k, c := range before {
		if c.dirty {
			t.Fatalf("%s is marked before the update", k)
		}
		if schema.ValuesEqual(c.value, value) {
			t.Fatalf("%s already holds %v; pick another value", k, value)
		}
		inViews[c.table] = true
	}
	if len(inViews) != views {
		t.Fatalf("the row has copies in %d views, want %d", len(inViews), views)
	}

	var phases []int
	sys.SetAfterPhase(func(phase int) error {
		phases = append(phases, phase)
		got := viewCopies(t, sys, keyCol, key, col)
		if len(got) != len(before) {
			t.Errorf("phase %d: %d copies, want %d", phase, len(got), len(before))
		}
		for k, c := range got {
			want := value
			if phase == synergy.PhaseMarked {
				want = before[k].value
			}
			if c.dirty != (phase != synergy.PhaseUnmarked) || !schema.ValuesEqual(c.value, want) {
				t.Errorf("phase %d: %s dirty=%v %s=%v, want dirty=%v %s=%v",
					phase, k, c.dirty, col, c.value, phase != synergy.PhaseUnmarked, col, want)
				return nil
			}
		}
		return nil
	})
	defer sys.SetAfterPhase(nil)
	if err := sys.Exec(sim.NewCtx(), sqlparser.MustParse(sql), []schema.Value{value, key}); err != nil {
		t.Fatal(err)
	}
	if want := []int{synergy.PhaseMarked, synergy.PhaseUpdated, synergy.PhaseUnmarked}; fmt.Sprint(phases) != fmt.Sprint(want) {
		t.Fatalf("barriers reported %v, want %v: one pass for every view", phases, want)
	}
	t.Logf("%d copies in %d views", len(before), len(inViews))
}

// itemInEveryView returns an item with order lines and cart lines, which every
// view of Item holds.
func itemInEveryView(t *testing.T, data *tpcw.Data) int64 {
	t.Helper()
	ordered := map[int64]bool{}
	for _, ol := range data.Tables["Order_line"] {
		ordered[ol["ol_i_id"].(int64)] = true
	}
	for _, scl := range data.Tables["Shopping_cart_line"] {
		if id := scl["scl_i_id"].(int64); ordered[id] {
			return id
		}
	}
	t.Fatal("no item both ordered and in a cart")
	return 0
}

// TestPhaseOrderAcrossViews pins the §VIII-B ordering of an update that
// maintains several views in one pass: every view's marks flush before any
// view is updated, and every update before any un-mark — on TPC-W's W9 (four
// views: one by view key, three through maintenance indexes) and on the
// 16-view fan-out fixture, with the mutator flushing at its barriers and, as
// the paper's client does, at every mutation.
func TestPhaseOrderAcrossViews(t *testing.T) {
	for _, seq := range []bool{false, true} {
		cfg := synergy.Config{SequentialWrites: seq}
		t.Run(fmt.Sprintf("W9/sequential=%v", seq), func(t *testing.T) {
			data := tpcw.Generate(40, 7)
			sys := tpcwSystem(t, data, cfg)
			checkPhaseOrder(t, sys, "UPDATE Item SET i_stock = ? WHERE i_id = ?",
				"i_id", itemInEveryView(t, data), "i_stock", int64(1_000_003), 4)
		})
		t.Run(fmt.Sprintf("fanout16/sequential=%v", seq), func(t *testing.T) {
			sys := synergy.FanoutSystem(t, 16, 4, cfg)
			checkPhaseOrder(t, sys, "UPDATE Root SET RVal = ? WHERE RID = ?",
				"RID", int64(1), "RVal", "phase-checked", 16)
		})
	}
}
