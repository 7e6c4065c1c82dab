//go:build !race

package synergy_test

import (
	"testing"

	"synergy/internal/sim"
	"synergy/internal/tpcw"
)

// TestPreparedExecuteAllocs bounds what one execution of a prepared Q6, Q2,
// Q10, Q11 and Q5 allocates through a Session: the rewrite, the plan and the
// result shape are the prepared statement's, and what an execution needs
// beyond its rows — its operators, its bindings' state, its bound conjuncts —
// is one block, so an execution pays for the block, its derived tables, its
// scans and its rows, sized from the counts it has (a derived table's length,
// a join's output, a LIMIT): 7, 13, 46, 87 and 15 allocations, and the
// bounds give each about 5 % headroom. (Not
// built under -race, which makes sync.Pool drop pooled scan buffers at
// random.)
func TestPreparedExecuteAllocs(t *testing.T) {
	sys, data := benchSystem(t)
	bound := map[string]float64{"Q6": 8, "Q2": 14, "Q10": 49, "Q11": 92, "Q5": 16}
	for _, id := range append(benchQueries, "Q11", "Q5") {
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
