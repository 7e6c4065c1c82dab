package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/tpcw"
)

var updateFig14 = flag.Bool("update", false, "rewrite testdata/fig14.golden from the current write path")

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

	path := filepath.Join("testdata", "fig14.golden")
	if *updateFig14 {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("Figure 14 differs from %s at line %d:\n got  %s\n want %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("Figure 14 differs from %s: got %d lines, want %d", path, len(g), len(w))
	}
}
