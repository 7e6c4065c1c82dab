package synergy_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// attributeCells renders a table's rows as "key qualifier value" lines in scan
// order, marker cells (the dirty marks maintenance leaves switched off) and
// rows holding nothing else left out.
func attributeCells(t *testing.T, sys *synergy.System, table string) []string {
	t.Helper()
	ctx := sim.NewCtx()
	sc, err := sys.Store.NewClient().Scan(ctx, table, hbase.ScanSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for r, ok := sc.Next(ctx); ok; r, ok = sc.Next(ctx) {
		for _, c := range r.Cells {
			if !strings.HasPrefix(c.Qualifier, "_") {
				out = append(out, fmt.Sprintf("%q %q %q", r.Key, c.Qualifier, c.Value))
			}
		}
	}
	return out
}

// populatedTPCW deploys TPC-W with its base indexes under cfg and populates it
// from tables: LoadBase per table in name order, then BuildViews.
func populatedTPCW(t *testing.T, cfg synergy.Config, tables map[string][]schema.Row) *synergy.System {
	t.Helper()
	cfg.BaseIndexes = tpcw.BaseIndexes()
	sys, err := synergy.New(tpcw.Schema(), tpcw.Roots(), tpcw.WorkloadSQL(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if err := sys.LoadBase(name, tables[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.BuildViews(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestMaintenanceMatchesPopulation holds write-time view maintenance (§VII) to
// population (§IX-D1): after a seeded stream of the TPC-W write statements —
// autocommitted and inside transactions that read their own inserts back, with
// NULL assignments to a plain, an indexed and a view-indexed column, index keys
// that move, inserts whose foreign key is NULL or dangling, and an update
// located by a full view scan — every view and every index holds, key for
// key, qualifier for qualifier, value for value, what BuildViews builds on a
// fresh system from the base tables the stream left behind.
func TestMaintenanceMatchesPopulation(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  synergy.Config
	}{
		{"hierarchical", synergy.Config{Concurrency: synergy.Hierarchical}},
		{"mvcc", synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			data := tpcw.Generate(50, 1)
			sys := populatedTPCW(t, mode.cfg, data.Tables)

			ctx, sess, rng := sim.NewCtx(), sys.NewSession(), sim.NewRNG(7)
			parsed := map[string]sqlparser.Statement{}
			exec := func(sql string, params ...schema.Value) {
				t.Helper()
				if parsed[sql] == nil {
					parsed[sql] = sqlparser.MustParse(sql)
				}
				if err := sess.Exec(ctx, parsed[sql], params); err != nil {
					t.Fatalf("%s %v: %v", sql, params, err)
				}
			}
			unit := func(id string) []schema.Value {
				t.Helper()
				st, _ := tpcw.StatementByID(id)
				params := st.Params(data, rng)
				exec(st.SQL, params...)
				return params
			}
			txn := func(body func()) {
				t.Helper()
				if err := sess.Begin(ctx); err != nil {
					t.Fatal(err)
				}
				body()
				if err := sess.Commit(ctx); err != nil {
					t.Fatal(err)
				}
			}
			w3, _ := tpcw.StatementByID("W3")
			for round := 0; round < 12; round++ {
				for _, id := range []string{"W4", "W5", "W6", "W7", "W7", "W10", "W11", "W12", "W8", "W9", "W13"} {
					unit(id)
				}
				// Buy-confirm: the order lines join the order this transaction
				// inserted, read back through its own buffer.
				txn(func() {
					order := unit("W1")[0]
					for i := 0; i < 3; i++ {
						line := w3.Params(data, rng)
						line[0] = order
						exec(w3.SQL, line...)
					}
					unit("W2")
					unit("W9")
					unit("W13")
				})
			}

			// Index keys that move: a base index and two covered view indexes
			// with the subject, a base and a view index with the user name.
			exec(`UPDATE Item SET i_subject = ? WHERE i_id = ?`, "MOVED", int64(3))
			txn(func() {
				exec(`UPDATE Item SET i_subject = ?, i_stock = ? WHERE i_id = ?`, "MOVED", int64(1), int64(4))
				exec(`UPDATE Customer SET c_uname = ? WHERE c_id = ?`, "renamed", int64(5))
			})
			// NULL assignments: a plain column, an indexed one, a view-indexed
			// one, and one beside a value.
			exec(`UPDATE Customer SET c_phone = ? WHERE c_id = ?`, nil, int64(3))
			exec(`UPDATE Customer SET c_uname = ? WHERE c_id = ?`, nil, int64(3))
			exec(`UPDATE Item SET i_subject = ?, i_stock = ? WHERE i_id = ?`, nil, int64(2), int64(5))
			txn(func() {
				exec(`UPDATE Customer SET c_uname = ?, c_phone = ? WHERE c_id = ?`, nil, "555", int64(6))
				exec(`UPDATE Customer SET c_uname = ? WHERE c_id = ?`, "back", int64(6))
			})
			// No view tuple: a dangling and a NULL foreign key.
			line := w3.Params(data, rng)
			line[2] = int64(1 << 40)
			exec(w3.SQL, line...)
			w1, _ := tpcw.StatementByID("W1")
			order := w1.Params(data, rng)
			order[1] = nil
			exec(w1.SQL, order...)
			// Author is no workload write and has no maintenance index: its
			// view rows are located by scanning the views.
			exec(`UPDATE Author SET a_lname = ? WHERE a_id = ?`, "Scanned", int64(2))

			// The base tables as the stream left them, loaded into a fresh system.
			left := map[string][]schema.Row{}
			for _, table := range data.TableNames() {
				sc, err := sys.Store.NewClient().Scan(ctx, table, hbase.ScanSpec{})
				if err != nil {
					t.Fatal(err)
				}
				for r, ok := sc.Next(ctx); ok; r, ok = sc.Next(ctx) {
					left[table] = append(left[table], phoenix.CellsToRow(r))
				}
			}
			fresh := populatedTPCW(t, mode.cfg, left)

			compared := 0
			for _, info := range sys.Catalog.Tables() {
				tables := []string{}
				if info.IsView {
					tables = append(tables, info.Name)
				}
				for _, idx := range info.Indexes {
					tables = append(tables, idx.Name)
				}
				for _, table := range tables {
					got, want := attributeCells(t, sys, table), attributeCells(t, fresh, table)
					if len(want) == 0 {
						t.Errorf("%s is empty after population: the comparison shows nothing", table)
					}
					for i := 0; i < len(got) || i < len(want); i++ {
						if i >= len(got) || i >= len(want) || got[i] != want[i] {
							t.Errorf("%s: maintained and populated differ at cell %d of %d/%d:\n maintained %s\n populated  %s",
								table, i, len(got), len(want), at(got, i), at(want, i))
							break
						}
					}
					compared++
				}
			}
			if compared != 6+7+6 {
				t.Errorf("compared %d tables, want 6 views, 7 view indexes and 6 base indexes", compared)
			}
		})
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(none)"
}
