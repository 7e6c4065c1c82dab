//go:build !race

package phoenix

import (
	"testing"

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
