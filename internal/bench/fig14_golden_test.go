package bench

import (
	"fmt"
	"strings"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/tpcw"
)

// TestFigure14Golden pins Figure 14 cell by cell where TestFigure14Orderings
// only orders means: for every system and each of W1-W13, the mean simulated
// response time, RPCs and store WAL syncs over three parameter draws every
// system shares, and each system's database size after them. It deploys its
// own systems — the set systems(t) shares carries whatever writes earlier
// tests ran. The figure is a statement about the paper's client (one RPC and
// one WAL sync per mutation, commit per statement), so the file moves only
// when what that client is charged moves; run it at -cpu 1,2,4.
func TestFigure14Golden(t *testing.T) {
	set, err := BuildSystems(100, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	const reps = 3
	walSyncs := func(sys EvalSystem) int64 {
		switch s := sys.(type) {
		case *synergySys:
			return s.sys.Store.WALSyncs()
		case *uaSys:
			return s.base.sys.Store.WALSyncs()
		}
		return 0 // VoltDB keeps a command log, not a store WAL
	}
	var b strings.Builder
	rng := sim.NewRNG(14)
	for _, st := range tpcw.WriteStatements() {
		params := make([][]schema.Value, reps)
		for r := range params {
			params[r] = st.Params(set.Data, rng)
		}
		for _, sys := range set.All() {
			var elapsed sim.Micros
			var rpcs int64
			wal := walSyncs(sys)
			for _, p := range params {
				ctx := sim.NewCtx()
				if err := sys.Run(ctx, st, p); err != nil {
					t.Fatalf("%s on %s: %v", st.ID, sys.Name(), err)
				}
				elapsed += ctx.Elapsed()
				rpcs += ctx.Snapshot().RPCs
			}
			fmt.Fprintf(&b, "%s %s sim-ms=%.4f rpcs=%.2f wal-syncs=%.2f\n", st.ID, sys.Name(),
				elapsed.Milliseconds()/reps, float64(rpcs)/reps, float64(walSyncs(sys)-wal)/reps)
		}
	}
	for _, sys := range set.All() {
		fmt.Fprintf(&b, "%s bytes=%d\n", sys.Name(), sys.DatabaseBytes())
	}

	checkGolden(t, "fig14.golden", "Figure 14", b.String())
}
