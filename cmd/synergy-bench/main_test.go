package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestExperimentSmokes drives the contention and maintenance experiments
// through run at small sizes (arguments neither reads are zero) and wants
// each report's header in the output.
func TestExperimentSmokes(t *testing.T) {
	for _, tc := range []struct {
		experiment string
		want       []string
	}{
		{"contention", []string{
			"Contention sweep: 3 rounds x 2 overlapping transactions x 2 root updates each, solo retries (",
		}},
		{"maintenance", []string{
			"View maintenance lanes: write cost vs staleness (3 reps; ms simulated)\n",
		}},
	} {
		t.Run(tc.experiment, func(t *testing.T) {
			var out strings.Builder
			err := run(&out, tc.experiment, 0, 3, 1, nil, nil, []int{1, 4}, 2, 3, 2, []int{1, 4, 16})
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
// not know, the removed "skew" and "server" among them, and wants exit status
// 2, no output and an error that names every valid experiment.
func TestUnknownExperimentExits2(t *testing.T) {
	if name := os.Getenv("SYNERGY_BENCH_EXPERIMENT"); name != "" {
		os.Args = []string{"synergy-bench", "-experiment", name}
		main()
		os.Exit(0)
	}
	for _, name := range []string{"bogus", "skew", "server"} {
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
