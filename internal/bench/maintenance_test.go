package bench

import (
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

// TestHerdRetriesIntensifyContention pins the -herd flag's contract: herd
// waves re-contend, so on one hot row the optimistic modes must abort more
// and pay more latency than the calibrated solo-retry waves — while the
// solo cells themselves (the pinned baseline) and the hierarchical lock
// queue (which blocks instead of retrying) are untouched by the flag.
func TestHerdRetriesIntensifyContention(t *testing.T) {
	solo, err := RunContention([]int{1}, 4, 10, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	herd, err := RunContentionOpts([]int{1}, 4, 10, 1, 1, nil, ContentionOpts{Herd: true})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Herd || !herd.Herd {
		t.Fatalf("Herd recorded as %v/%v, want false/true", solo.Herd, herd.Herd)
	}
	for _, mode := range []string{"MVCC", "OCC"} {
		s, h := solo.Cells[1][mode], herd.Cells[1][mode]
		if s.Txns != 40 || h.Txns != 40 {
			t.Errorf("%s: committed %d/%d txns, want 40/40 (no transaction lost to the herd)", mode, s.Txns, h.Txns)
		}
		if h.Conflicts <= s.Conflicts {
			t.Errorf("%s: herd conflicts %d not above solo %d; losers must re-collide", mode, h.Conflicts, s.Conflicts)
		}
		if h.Mean.Mean <= s.Mean.Mean {
			t.Errorf("%s: herd latency %.2fms not above solo %.2fms", mode, h.Mean.Mean, s.Mean.Mean)
		}
	}
	sh, hh := solo.Cells[1]["Hierarchical"], herd.Cells[1]["Hierarchical"]
	if sh.Mean != hh.Mean || hh.Conflicts != 0 {
		t.Errorf("hierarchical cell changed under -herd (%.2fms vs %.2fms, %d conflicts); locking has no retry storm",
			sh.Mean.Mean, hh.Mean.Mean, hh.Conflicts)
	}
}
