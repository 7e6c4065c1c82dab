package main

import (
	"strings"
	"testing"

	"synergy/internal/bench"
)

// TestExperimentSmokes drives the maintenance, server and skew experiments
// through run at small sizes (arguments none of them reads are zero) and
// wants each report's header in the output.
func TestExperimentSmokes(t *testing.T) {
	for _, tc := range []struct {
		experiment string
		want       []string
	}{
		{"maintenance", []string{
			"View maintenance lanes: write cost vs staleness (3 reps; ms simulated)\n",
		}},
		{"server", []string{
			"Wire server: 8 connections x 4 transactions per mode,",
			"\nadmission: ",
			", 1 rejected at the bound\n",
		}},
		{"skew", []string{
			"Hot-region load under Zipf skew (10000 keys, 32 ops/wave, 10 waves,",
		}},
	} {
		t.Run(tc.experiment, func(t *testing.T) {
			var out strings.Builder
			err := run(&out, tc.experiment, 0, 3, 1, nil, nil, nil, 0, 0, 0, false,
				[]int{1, 4, 16}, []float64{0, 0.99, 1.2},
				bench.SkewOpts{Keys: 10000, WaveOps: 32, Waves: 10},
				bench.ServerOpts{Conns: 8, Txns: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output lacks %q:\n%s", w, out.String())
				}
			}
		})
	}
}
