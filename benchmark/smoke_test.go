package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs all four workloads end to end at a toy scale — 20
// customers, a fifth of a second on the clock, one deck of warm-up and one
// under the simulated clock, traced pass included — through the budgets the
// command uses, and holds the command to BENCHMARK.json: every workload and
// metric named there is emitted with a finite value, and nothing undeclared
// is.
func TestSmoke(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	out := t.TempDir()
	for _, wl := range spec.Workloads {
		w, ok := workloadByName(wl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the command does not have", wl.Name)
		}
		w.warmDecks, w.simDecks = 1, 1
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(runConfig{spec: w, scale: scale{numCust: 20, scanRows: 500, contendedTxns: 10}, seed: 1,
				trace: traced, seconds: 0.2, setups: 1, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			// The measured phase starts every connection on a deck boundary
			// and holds the decks of the simulated clock whole, however short
			// the wall clock.
			if !traced && rep.Samples["sim_decks"] != conns*w.simDecks {
				t.Errorf("%s: %d whole decks under the simulated clock, want %d per connection",
					w.name, rep.Samples["sim_decks"], w.simDecks)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d checks=%v errors=%v",
					w.name, traced, rep.Result.Correct, rep.Result.Failed, rep.Checks, rep.Errors)
			}
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			want := map[string]string{}
			for _, m := range declared {
				want[m.Name] = m.Unit
			}
			for name, m := range rep.Result.Metrics {
				unit, ok := want[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v emits %s, which BENCHMARK.json does not declare", w.name, traced, name)
				case unit != m.Unit:
					t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s %s is not finite", w.name, name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s trace=%v does not emit %s", w.name, traced, name)
			}
		}
		checkTraceFile(t, filepath.Join(out, "trace-"+w.name+".jsonl"))
	}
}

// checkTraceFile holds every span to the trace contract: a trace id, a
// parent that is 0 or an earlier span of the same trace, and start <= end.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traceOf := map[int64]int64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.TraceID == 0 || s.ID == 0 || s.Name == "" || s.EndNS < s.StartNS {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		if s.Parent != 0 && traceOf[s.Parent] != s.TraceID {
			t.Fatalf("%s: span %d names parent %d, which is not an earlier span of trace %d", path, s.ID, s.Parent, s.TraceID)
		}
		traceOf[s.ID] = s.TraceID
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(traceOf) == 0 {
		t.Fatalf("%s holds no span", path)
	}
}
