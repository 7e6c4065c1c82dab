package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestContentionGolden pins the contention and maintenance sweeps cell by
// cell, where TestContentionSweepShape and TestMaintenanceSweepShape only
// check their shape: every contention cell's commits, conflicts, retries and
// exact mean at one and at eight statements per transaction, then every
// maintenance cell, whose OCC wave runs the contention sweep's optimistic
// cell. It prints with %#v, which bypasses Measurement.String's rounding to
// 0.1 ms. Run it at -cpu 1,2,4.
func TestContentionGolden(t *testing.T) {
	var b strings.Builder
	for _, ops := range []int{1, 8} {
		res, err := RunContention([]int{1, 4, 16}, 4, 25, ops, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, hr := range res.HotRows {
			for _, m := range ContentionModes {
				c := res.Cells[hr][m.Name]
				fmt.Fprintf(&b, "ops=%d hot=%d %s txns=%d conflicts=%d retries=%d mean=%#v\n",
					ops, hr, m.Name, c.Txns, c.Conflicts, c.Retries, c.Mean)
			}
		}
	}
	res, err := RunMaintenance([]int{1, 4}, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, vc := range res.ViewCounts {
		for _, lane := range MaintenanceLanes {
			fmt.Fprintf(&b, "%#v\n", res.Cells[vc][lane.Name])
		}
	}

	checkGolden(t, "contention.golden", "the contention and maintenance sweeps", b.String())
}
