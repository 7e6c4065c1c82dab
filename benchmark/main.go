// Command benchmark is the repo's standing front-door benchmark: TPC-W
// driven over the MySQL wire protocol against a served synergy.System,
// measured on both clocks. See README.md in this directory.
//
//	bash benchmark/run.sh --workload browse --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -seed 1                  # every workload, both passes
//	bash benchmark/run.sh -compare a.json b.json
//
// run.sh builds this package with the checkout's commit linked in; go run
// ./benchmark works too and reports its commit as unknown.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// header identifies what produced a report.
type header struct {
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Conns      int     `json:"conns"`
	NumCust    int     `json:"num_cust"`
	ScanRows   int     `json:"scan_rows"`
	Seconds    float64 `json:"seconds"`
	// Decks holds, per workload, the frozen deck counts of the warm-up and of
	// sim_ms_per_stmt.
	Decks map[string]deckCounts `json:"decks"`
}

type deckCounts struct {
	Warm int `json:"warm"`
	Sim  int `json:"sim"`
}

// report is what the command writes to the out directory: one or more runs
// under one header. -compare reads two of them.
type report struct {
	Header header       `json:"header"`
	Runs   []*runReport `json:"runs"`
}

// buildCommit is the commit the binary was built from; run.sh sets it at
// link time (the driver's checkout is not a git repository, and Go's own VCS
// stamping fails the build in a checkout git does not trust).
var buildCommit = "unknown"

// specPath is where -compare finds the bounds, relative to the repo root.
const specPath = "BENCHMARK.json"

func main() {
	var (
		workload = flag.String("workload", "all", "browse, order, order-mvcc, scan, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated data and statement streams")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 runs the traced layer-peel pass and prints the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "with -workload all: runs per workload and pass")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for reports and trace files")
		compare  = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		os.Exit(compareReports(specPath, flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	rep := &report{Header: header{
		Seed: *seed, Commit: buildCommit, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Conns: conns, NumCust: frozenScale.numCust, ScanRows: frozenScale.scanRows,
		Seconds: *seconds, Decks: map[string]deckCounts{},
	}}
	for _, w := range workloads {
		rep.Header.Decks[w.name] = deckCounts{Warm: w.warmDecks, Sim: w.simDecks}
	}
	cfg := runConfig{scale: frozenScale, seed: *seed, seconds: *seconds, outDir: *outDir}

	if *workload != "all" {
		w, ok := workloadByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		cfg.spec, cfg.trace = w, *trace == 1
		run, err := runOnce(cfg)
		if err != nil {
			fatal(err)
		}
		rep.Runs = append(rep.Runs, run)
		writeReport(rep, filepath.Join(*outDir, fmt.Sprintf("%s-trace%d.json", w.name, *trace)))
		line, _ := json.Marshal(run.Result)
		fmt.Println(string(line))
		if !run.Result.Correct {
			os.Exit(1)
		}
		return
	}

	correct := true
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			for i := 0; i < *repeat; i++ {
				cfg.spec, cfg.trace = w, traced
				run, err := runOnce(cfg)
				if err != nil {
					fatal(err)
				}
				rep.Runs = append(rep.Runs, run)
				correct = correct && run.Result.Correct
				runtime.GC()
			}
		}
	}
	writeReport(rep, filepath.Join(*outDir, "report.json"))
	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
}

// runOnce runs one workload pass; untraced passes set up three times so
// setup_s is a median.
func runOnce(cfg runConfig) (*runReport, error) {
	cfg.setups = 1
	if !cfg.trace {
		cfg.setups = 3
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s trace=%v seed=%d\n", cfg.spec.name, cfg.trace, cfg.seed)
	run, err := runWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.spec.name, err)
	}
	for name, outcome := range run.Checks {
		if outcome != "ok" {
			fmt.Fprintf(os.Stderr, "benchmark: check %s failed: %s\n", name, outcome)
		}
	}
	return run, nil
}

func writeReport(rep *report, path string) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
