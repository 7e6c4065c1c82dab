//go:build !race

package synergy_test

import (
	"testing"

	"synergy/internal/sim"
	"synergy/internal/tpcw"
)

// TestPreparedExecuteAllocs bounds what one execution of a prepared Q6, Q2,
// Q10, Q11, Q5 and Q1 allocates through a Session: the rewrite, the plan and
// the result shape are the prepared statement's, and what an execution needs
// beyond its rows — its operators, its bindings' state, its bound conjuncts,
// its scans' scanners and pushed filters — is one block, so an execution pays
// for the block, its derived tables, its key ranges and its rows, sized from
// the counts it has (a derived table's length, a join's output, a LIMIT, a
// scan's first chunk). Q1 is a key-prefix scan of a view, and Q11 probes
// Order_line by key prefix once per outer row. They measure 5, 5, 25, 31, 5
// and 5 allocations, and each bound leaves about 5 % headroom, at least one
// allocation; the parent commit measured 7, 13, 46, 87, 15 and 10 (bounds 8,
// 14, 49 and 92, 16, Q1 unpinned). (Not built under -race, which makes
// sync.Pool drop pooled scan buffers at random.)
func TestPreparedExecuteAllocs(t *testing.T) {
	sys, data := benchSystem(t)
	bound := map[string]float64{"Q6": 6, "Q2": 6, "Q10": 27, "Q11": 33, "Q5": 6, "Q1": 6}
	for _, id := range append(benchQueries, "Q11", "Q5", "Q1") {
		st, _ := tpcw.StatementByID(id)
		sel := parseSelect(t, st.SQL)
		params := st.Params(data, sim.NewRNG(11).Derive(id))
		sess := sys.NewSession()
		p, err := sess.Prepare(sel)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() { runQuery(t, sess, p, sel, params) })
		if n > bound[id] {
			t.Errorf("%s: %v allocations per prepared execution, want at most %v", id, n, bound[id])
		}
		t.Logf("%s: %v allocations per prepared execution", id, n)
	}
}
