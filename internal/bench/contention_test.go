package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestContentionSweepShape: the sweep reports every (hot-row, mode) cell,
// every transaction commits, and the mechanisms behave according to type —
// hierarchical locking never aborts, while under single-hot-row contention
// the MVCC and OCC columns carry latency no lower than their uncontended
// cells (retries and backoff cannot make transactions cheaper).
func TestContentionSweepShape(t *testing.T) {
	res, err := RunContention([]int{1, 8}, 4, 10, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, hr := range []int{1, 8} {
		for _, m := range ContentionModes {
			c, ok := res.Cells[hr][m.Name]
			if !ok {
				t.Fatalf("missing cell %s/%d", m.Name, hr)
			}
			if c.Txns != 4*10 {
				t.Errorf("%s/%d: %d committed txns, want 40", m.Name, hr, c.Txns)
			}
			if m.Name == "Hierarchical" && c.Conflicts != 0 {
				t.Errorf("hierarchical locking reported %d conflicts; it blocks, it does not abort", c.Conflicts)
			}
		}
	}
	// OCC's latency must sit far below MVCC's (no Tephra begin/commit
	// round trips) — the headline of the three-way comparison.
	occ8 := res.Cells[8]["OCC"].Mean.Mean
	mvcc8 := res.Cells[8]["MVCC"].Mean.Mean
	if occ8 >= mvcc8/10 {
		t.Errorf("OCC at 8 hot rows = %.1fms, want far below MVCC's %.1fms", occ8, mvcc8)
	}
	// The optimistic waves overlap by construction: a single hot row must
	// produce validation aborts, and spreading the updates over 8 rows must
	// reduce them. Contention must also cost latency.
	for _, mode := range []string{"MVCC", "OCC"} {
		hot, cool := res.Cells[1][mode], res.Cells[8][mode]
		if hot.Conflicts == 0 {
			t.Errorf("%s at 1 hot row reported no conflicts; waves must overlap", mode)
		}
		if cool.Conflicts >= hot.Conflicts {
			t.Errorf("%s conflicts did not fall with more hot rows: %d -> %d", mode, hot.Conflicts, cool.Conflicts)
		}
		if hot.Mean.Mean <= cool.Mean.Mean {
			t.Errorf("%s mean latency under contention (%.2fms) not above uncontended (%.2fms)",
				mode, hot.Mean.Mean, cool.Mean.Mean)
		}
	}

	// Hierarchical locking pays contention as queueing: latency must rise
	// as the hot set shrinks, with no aborts ever.
	if h1, h8 := res.Cells[1]["Hierarchical"].Mean.Mean, res.Cells[8]["Hierarchical"].Mean.Mean; h1 <= h8 {
		t.Errorf("hierarchical latency under contention (%.2fms) not above uncontended (%.2fms)", h1, h8)
	}

	out := RenderContention(res)
	for _, want := range []string{"Hierarchical", "MVCC", "OCC", "hot rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestContentionMultiStatementSweep pins the -ops dimension: every
// transaction of a long sweep really executes all its statements (latency
// grows with ops in every mode), losers abort-and-retry whole transactions
// (the conflict structure on one hot row is independent of ops — same
// overlap, same losers — but each retry redoes ops statements), and the
// sweep answers the PR-4 crossover question. The answer it measures:
// hierarchical does NOT overtake OCC under deterministic solo-retry waves —
// a lock-queue arrival waits out every predecessor's full (ops-scaled)
// hold, while an optimistic loser re-executes the transaction once — so
// OCC's relative edge widens rather than shrinks as transactions lengthen.
// The assertion pins that direction for the one retry model the system
// runs: ExecuteTxn's loser backs off and re-executes alone.
func TestContentionMultiStatementSweep(t *testing.T) {
	short, err := RunContention([]int{1}, 4, 6, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	long, err := RunContention([]int{1}, 4, 6, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if short.Ops != 1 || long.Ops != 8 {
		t.Fatalf("ops recorded as %d and %d, want 1 and 8", short.Ops, long.Ops)
	}
	for _, m := range ContentionModes {
		s, l := short.Cells[1][m.Name], long.Cells[1][m.Name]
		if s.Txns != 4*6 || l.Txns != 4*6 {
			t.Errorf("%s: committed %d/%d txns, want 24/24", m.Name, s.Txns, l.Txns)
		}
		if l.Mean.Mean <= s.Mean.Mean {
			t.Errorf("%s: 8-statement txns (%.2fms) not costlier than 1-statement (%.2fms)",
				m.Name, l.Mean.Mean, s.Mean.Mean)
		}
	}
	// One hot row: row draws are all row 1, so overlap — and therefore the
	// abort structure — is identical at any ops; only the redo cost grows.
	for _, mode := range []string{"MVCC", "OCC"} {
		s, l := short.Cells[1][mode], long.Cells[1][mode]
		if s.Conflicts == 0 || l.Conflicts != s.Conflicts {
			t.Errorf("%s conflicts: ops=1 %d, ops=8 %d; want equal and nonzero", mode, s.Conflicts, l.Conflicts)
		}
	}
	ratio := func(r *ContentionResult) float64 {
		return r.Cells[1]["OCC"].Mean.Mean / r.Cells[1]["Hierarchical"].Mean.Mean
	}
	if rs, rl := ratio(short), ratio(long); rl >= rs {
		t.Errorf("no crossover expected under solo-retry waves: OCC/hierarchical ratio ops=1 %.3f -> ops=8 %.3f should fall", rs, rl)
	}
}

// TestContentionRejectsBadHotRows: a hot-row count below 1 is an error that
// names it, not a panic in the row draw.
func TestContentionRejectsBadHotRows(t *testing.T) {
	for _, hr := range []int{0, -1} {
		_, err := RunContention([]int{1, hr}, 2, 1, 1, 1, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("hot-row count %d", hr)) {
			t.Errorf("hot rows %d: err %v, want one naming the hot-row count", hr, err)
		}
	}
}
