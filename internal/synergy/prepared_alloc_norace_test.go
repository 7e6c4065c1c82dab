//go:build !race

package synergy_test

import (
	"testing"

	"synergy/internal/sim"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// TestPreparedExecuteAllocs bounds what one execution of a prepared Q6, Q2,
// Q10, Q11, Q5 and Q1 allocates through a Session: the rewrite, the plan and
// the result shape are the prepared statement's, and what an execution needs
// beyond its rows — its operators, its bindings' state, its bound conjuncts,
// its scans' scanners and pushed filters — is one block, which reopens the
// block the last execution closed, with the arrays its slab, row lists and
// key tables and its derived tables' blocks kept (phoenix's query), and its
// key ranges and probe keys are cut from the session's string block; so an
// execution pays for what outgrows the last one's arrays or is too large to
// keep. Q1 is a key-prefix scan of a view, and Q11 probes Order_line by key
// prefix once per outer row. They measure 2, 1, 6, 6, 1 and 1 allocations,
// and each bound leaves about 5 % headroom, at least one allocation; with a
// string of their own for each execution's key ranges they measured 3, 2, 7,
// 8, 2 and 2 (bounds 4, 3, 8, 9, 3 and 3), and before the spare block 5, 5,
// 25, 31, 5 and 5. (Not built under -race, which makes sync.Pool drop pooled
// scan buffers at random.)
func TestPreparedExecuteAllocs(t *testing.T) {
	sys, data := benchSystem(t)
	bound := map[string]float64{"Q6": 3, "Q2": 2, "Q10": 7, "Q11": 7, "Q5": 2, "Q1": 2}
	for _, id := range append(benchQueries, "Q11", "Q5", "Q1") {
		st, _ := tpcw.StatementByID(id)
		sel := parseSelect(t, st.SQL)
		args := unbox(t, st.Params(data, sim.NewRNG(11).Derive(id)))
		sess := sys.NewSession()
		p, err := sess.Prepare(sel)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() { runQuery(t, sess, p, sel, nil, args) })
		if n > bound[id] {
			t.Errorf("%s: %v allocations per prepared execution, want at most %v", id, n, bound[id])
		}
		t.Logf("%s: %v allocations per prepared execution", id, n)
	}
}

// TestMVCCPreparedReadAllocs bounds an autocommit prepared Q6 and Q2 on an
// MVCC deployment, each a snapshot transaction its cursor's Close commits.
// The transaction allocates nothing — its storage comes off the server's
// free list and its filter is built once per storage — so they measure what
// the same executions measure under hierarchical locking, 2 and 1, with the
// same bounds. They measured 3 and 2 before their key ranges were cut from
// the session's string block, and 9 and 8 when every Begin made a Tx, three
// maps and a filter closure.
func TestMVCCPreparedReadAllocs(t *testing.T) {
	data := tpcw.Generate(40, 7)
	sys := tpcwSystem(t, data, synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16})
	bound := map[string]float64{"Q6": 3, "Q2": 2}
	for _, id := range []string{"Q6", "Q2"} {
		st, _ := tpcw.StatementByID(id)
		sel := parseSelect(t, st.SQL)
		args := unbox(t, st.Params(data, sim.NewRNG(11).Derive(id)))
		sess := sys.NewSession()
		p, err := sess.Prepare(sel)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() { runQuery(t, sess, p, sel, nil, args) })
		if n > bound[id] {
			t.Errorf("%s: %v allocations per MVCC autocommit execution, want at most %v", id, n, bound[id])
		}
		t.Logf("%s: %v allocations per MVCC autocommit execution", id, n)
	}
}
