package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestMaintenanceSweepShape: the sweep reports every (views, lane) cell and
// the lanes behave according to type — sync is always fresh and defers
// nothing, the async lane takes maintenance off the writer's latency (its
// write is no slower than sync's, which runs one maintenance pass for every
// view and stays within 20 sim-ms at 16), accumulates real staleness, and
// pushes the deferred work into the drain column. The OCC mini-wave must show
// the async lane shrinking what a conflict loser re-executes.
func TestMaintenanceSweepShape(t *testing.T) {
	res, err := RunMaintenance([]int{1, 16}, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, vc := range []int{1, 16} {
		for _, lane := range MaintenanceLanes {
			c, ok := res.Cells[vc][lane.Name]
			if !ok {
				t.Fatalf("missing cell %s/%d views", lane.Name, vc)
			}
			if lane.Name == "Sync" {
				if c.StaleLag != 0 || c.DrainMs != 0 {
					t.Errorf("Sync/%d: stale lag %.1f, drain %.2fms; sync defers nothing", vc, c.StaleLag, c.DrainMs)
				}
				continue
			}
			if c.StaleLag <= 0 {
				t.Errorf("%s/%d: no staleness observed against a paused backlog", lane.Name, vc)
			}
			if c.DrainMs <= 0 {
				t.Errorf("%s/%d: no deferred applier work accounted", lane.Name, vc)
			}
			// A watermark read waits out a queued delta; it must cost more
			// than the sync lane's always-fresh read.
			if syncRead := res.Cells[vc]["Sync"].WatermarkRead.Mean; c.WatermarkRead.Mean <= syncRead {
				t.Errorf("%s/%d: watermark read %.2fms not above fresh sync read %.2fms",
					lane.Name, vc, c.WatermarkRead.Mean, syncRead)
			}
		}
	}
	// At 16 views the async lane must not be slower than sync on
	// writer-visible latency, sync's one maintenance pass must keep it within
	// 20 sim-ms, and the shift must show in what an OCC conflict loser
	// re-executes.
	syncCell, asyncCell := res.Cells[16]["Sync"], res.Cells[16]["Async"]
	if syncCell.Write.Mean > 20 {
		t.Errorf("Sync write at 16 views %.2fms, want at most 20ms", syncCell.Write.Mean)
	}
	if asyncCell.Write.Mean > syncCell.Write.Mean {
		t.Errorf("Async write at 16 views %.2fms slower than sync's %.2fms", asyncCell.Write.Mean, syncCell.Write.Mean)
	}
	if asyncCell.OCCMean.Mean >= syncCell.OCCMean.Mean {
		t.Errorf("Async OCC wave %.2fms not below sync's %.2fms", asyncCell.OCCMean.Mean, syncCell.OCCMean.Mean)
	}
	out := RenderMaintenance(res)
	for _, want := range []string{"Sync", "Async", "views", "drain"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestMaintenanceDeterministic: the sweep is a function of its seed, so two
// runs render byte-identical — the watermark probe included, whose reader
// must be blocked on the paused lane before the lane resumes.
func TestMaintenanceDeterministic(t *testing.T) {
	run := func() string {
		res, err := RunMaintenance([]int{1, 4}, 3, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return RenderMaintenance(res)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two runs at seed 1 differ:\n%s\n---\n%s", a, b)
	}
}

// TestMaintenanceRejectsBadViewCount: a view count below 1 is an error that
// names it, not a panic in the sweep's read probes.
func TestMaintenanceRejectsBadViewCount(t *testing.T) {
	for _, vc := range []int{0, -1} {
		_, err := RunMaintenance([]int{1, vc}, 1, 1, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("view count %d", vc)) {
			t.Errorf("views %d: err %v, want one naming the view count", vc, err)
		}
	}
}
