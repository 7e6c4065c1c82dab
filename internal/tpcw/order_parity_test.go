package tpcw

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

// scanBlocks collects the plain single-table SELECT blocks of a statement —
// the statement itself and its derived tables, recursively: the shapes whose
// ORDER BY an access path can deliver.
func scanBlocks(sel *sqlparser.SelectStmt, out []*sqlparser.SelectStmt) []*sqlparser.SelectStmt {
	for _, ref := range sel.From {
		if ref.Sub != nil {
			out = scanBlocks(ref.Sub, out)
		}
	}
	if len(sel.From) != 1 || sel.From[0].Sub != nil || len(sel.GroupBy) > 0 {
		return out
	}
	for _, it := range sel.Items {
		if _, agg := it.Expr.(sqlparser.AggExpr); agg {
			return out
		}
	}
	return append(out, sel)
}

// TestOrderedPathMatchesSortedPath is the metamorphic check of sort elision
// over the parity statements, views on and off, outside a transaction and
// through a transaction's read-your-writes overlay. Every single-table block
// is re-ordered by each unique key the table offers (its primary key, and
// each covered index's columns followed by the primary key), ascending and
// descending, with and without a LIMIT. Appending one more, non-key column
// to a unique ORDER BY cannot change the result, but it matches no access
// path, so that variant sorts: the ordered path must return exactly its rows
// in exactly its order.
func TestOrderedPathMatchesSortedPath(t *testing.T) {
	data := Generate(40, 7)
	for _, views := range []bool{true, false} {
		sys := paritySystem(t, data, synergy.Config{Concurrency: synergy.Hierarchical, DisableViews: !views})
		txCtx := sim.NewCtx()
		tx := sys.BeginTx(txCtx)
		for _, w := range parityWrites {
			if err := tx.Exec(txCtx, sqlparser.MustParse(w.sql), w.params); err != nil {
				t.Fatalf("parity write %q: %v", w.sql, err)
			}
		}
		modes := map[string]func(*sqlparser.SelectStmt, []schema.Value) (*phoenix.ResultSet, error){
			"plain": func(sel *sqlparser.SelectStmt, params []schema.Value) (*phoenix.ResultSet, error) {
				return sys.Engine.QueryOpts(sim.NewCtx(), sel, params, phoenix.QueryOpts{})
			},
			"overlay": func(sel *sqlparser.SelectStmt, params []schema.Value) (*phoenix.ResultSet, error) {
				return tx.Query(sim.NewCtx(), sel, params)
			},
		}
		checked := 0
		for _, st := range parityStatements() {
			params := st.Params(data, sim.NewRNG(11).Derive(st.ID))
			sel := rewriteForParity(sys, sqlparser.MustParse(st.SQL).(*sqlparser.SelectStmt), views)
			for _, block := range scanBlocks(sel, nil) {
				info, err := sys.Engine.Catalog().Table(block.From[0].Name)
				if err != nil {
					t.Fatal(err)
				}
				keys := [][]string{info.Key}
				for _, idx := range info.Indexes {
					if !idx.KeyOnly {
						keys = append(keys, append(append([]string(nil), idx.On...), info.Key...))
					}
				}
				var extra string // a column the primary key lacks: with it, ORDER BY is no prefix of any key
				for _, c := range info.ColumnNames() {
					if !slices.Contains(info.Key, c) {
						extra = c
					}
				}
				for _, key := range keys {
					for _, desc := range []bool{false, true} {
						for _, limit := range []int{0, 7} {
							ordered, sorted := *block, *block
							ordered.OrderBy = nil
							for _, c := range key {
								ordered.OrderBy = append(ordered.OrderBy, sqlparser.OrderItem{Col: sqlparser.ColumnRef{Column: c}, Desc: desc})
							}
							sorted.OrderBy = append(append([]sqlparser.OrderItem(nil), ordered.OrderBy...),
								sqlparser.OrderItem{Col: sqlparser.ColumnRef{Column: extra}})
							ordered.Limit, sorted.Limit = limit, limit
							for mode, query := range modes {
								where := fmt.Sprintf("views=%v %s %s: %s", views, mode, st.ID, ordered.String())
								got, err := query(&ordered, params)
								if err != nil {
									t.Fatalf("%s: %v", where, err)
								}
								want, err := query(&sorted, params)
								if err != nil {
									t.Fatalf("%s: sorted variant: %v", where, err)
								}
								if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
									t.Fatalf("%s: ordered path returned\n%v\nthe sorted path\n%v", where, got.Rows, want.Rows)
								}
								checked++
							}
						}
					}
				}
			}
		}
		if err := tx.Abort(txCtx); err != nil {
			t.Fatal(err)
		}
		if checked < 100 {
			t.Fatalf("views=%v: only %d ordered/sorted pairs compared", views, checked)
		}
	}
}
