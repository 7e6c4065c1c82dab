package bench

import "testing"

// TestFigure10Golden pins Figure 10 as synergy-bench renders it at 500
// customers (seed 1, one repetition), where TestFigure10ShapeAtSmallScale only
// checks its shape: each view scan, each join and the speedup between them.
// The file moves whenever a scan or join charge does, so a change that bends
// the paper's central comparison shows in review.
func TestFigure10Golden(t *testing.T) {
	rows, err := RunFigure10([]int{500}, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig10.golden", "Figure 10", RenderFigure10(rows))
}
