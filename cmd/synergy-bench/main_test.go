package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"synergy/internal/bench"
)

// TestExperimentSmokes drives the maintenance and server experiments
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
	} {
		t.Run(tc.experiment, func(t *testing.T) {
			var out strings.Builder
			err := run(&out, tc.experiment, 0, 3, 1, nil, nil, nil, 0, 0, 0, false,
				[]int{1, 4, 16}, bench.ServerOpts{Conns: 8, Txns: 4})
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

// TestUnknownExperimentExits2 runs the command with -experiment names it does
// not know, "skew" among them, and wants exit status 2, no output and an
// error that names every valid experiment.
func TestUnknownExperimentExits2(t *testing.T) {
	if name := os.Getenv("SYNERGY_BENCH_EXPERIMENT"); name != "" {
		os.Args = []string{"synergy-bench", "-experiment", name}
		main()
		os.Exit(0)
	}
	for _, name := range []string{"bogus", "skew"} {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExperimentExits2$")
			cmd.Env = append(os.Environ(), "SYNERGY_BENCH_EXPERIMENT="+name)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("-experiment %s: exit %v, want status 2 (stderr %q)", name, err, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("-experiment %s printed %q", name, stdout.String())
			}
			for _, want := range append([]string{name}, experiments...) {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("-experiment %s: stderr %q does not name %q", name, stderr.String(), want)
				}
			}
		})
	}
}
