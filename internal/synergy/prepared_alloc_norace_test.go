//go:build !race

package synergy_test

import (
	"testing"

	"synergy/internal/sim"
	"synergy/internal/tpcw"
)

// TestPreparedExecuteAllocs bounds what one execution of a prepared Q6, Q2 and
// Q10 allocates through a Session: the rewrite, the plan and the result shape
// are the prepared statement's, so an execution pays for its parameters, its
// derived tables, its scans and its rows: 14, 22 and 105 allocations, and the
// bounds give each about 5 % headroom. A scan reads its regions as a window
// of the table's list and a multi-get forks its region groups as one slice,
// so neither allocates per region. An execution that compiled the statement
// again took 86, 99 and 238 before statements were compiled at prepare.
// (Not built under -race, which makes sync.Pool drop pooled scan buffers at
// random.)
func TestPreparedExecuteAllocs(t *testing.T) {
	sys, data := benchSystem(t)
	bound := map[string]float64{"Q6": 15, "Q2": 23, "Q10": 110}
	for _, id := range benchQueries {
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
