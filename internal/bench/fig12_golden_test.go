package bench

import (
	"fmt"
	"strings"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/tpcw"
)

// TestFigure12Golden pins Figure 12, the paper's headline figure, cell by
// cell where TestFigure12Orderings only orders means: for every system and
// each of Q1-Q11, the summed simulated response time and RPCs over three
// parameter draws every system shares (X where the system cannot run the
// query), and each system's database size. It deploys its own systems — the
// set systems(t) shares carries whatever writes earlier tests ran. Run it at
// -cpu 1,2,4.
func TestFigure12Golden(t *testing.T) {
	set, err := BuildSystems(100, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	const reps = 3
	var b strings.Builder
	rng := sim.NewRNG(12)
	for _, st := range tpcw.JoinQueries() {
		params := make([][]schema.Value, reps)
		for r := range params {
			params[r] = st.Params(set.Data, rng)
		}
		for _, sys := range set.All() {
			if !sys.Supported(st) {
				fmt.Fprintf(&b, "%s %s X\n", st.ID, sys.Name())
				continue
			}
			var elapsed sim.Micros
			var rpcs int64
			for _, p := range params {
				ctx := sim.NewCtx()
				if err := sys.Run(ctx, st, p); err != nil {
					t.Fatalf("%s on %s: %v", st.ID, sys.Name(), err)
				}
				elapsed += ctx.Elapsed()
				rpcs += ctx.Snapshot().RPCs
			}
			fmt.Fprintf(&b, "%s %s sim-us=%d rpcs=%d\n", st.ID, sys.Name(), int64(elapsed), rpcs)
		}
	}
	for _, sys := range set.All() {
		fmt.Fprintf(&b, "%s bytes=%d\n", sys.Name(), sys.DatabaseBytes())
	}

	checkGolden(t, "fig12.golden", "Figure 12", b.String())
}
