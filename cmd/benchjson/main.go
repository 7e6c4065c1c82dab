// benchjson converts `go test -bench` output on stdin into a machine-
// readable JSON report on stdout, so CI can archive the perf trajectory
// (simulated latency and allocations per benchmark) as a build artifact and
// diff it PR-over-PR:
//
//	go test -bench . -benchtime 1x -run '^$' ./internal/... | go run ./cmd/benchjson > BENCH.json
//
// It also carries the CI regression guard: compare mode diffs two reports'
// sim-ms/op — the deterministic simulated latency, the same on every machine
// and at every GOMAXPROCS — exactly, and exits nonzero when any benchmark's
// moved, up or down, so a change to the simulated clock shows in the diff
// that re-records the baseline, as a golden's does:
//
//	go run ./cmd/benchjson -compare BENCH_baseline.json BENCH.json
//
// allocs/op and B/op are guarded alongside it with a tolerance (default
// 1.25x, override with -alloc-tolerance), so allocation wins — both count
// and bytes — stay pinned too. Neither is reproducible: a -benchtime 1x run
// counts the benchmark's cold start (pools, a memstore's first blocks), which
// moves with what ran before it in the process and with the P its goroutine
// lands on (a sync.Pool's private slot is per P); so a benchmark fails only
// when it is both past the tolerance and more than allocSlack allocations
// (bytesSlack bytes) over its baseline, and a few incidental allocations on a
// small benchmark do not fail it.
//
// Benchmark names are matched with their -<GOMAXPROCS> suffix stripped, so a
// baseline recorded on an 8-core machine guards a 4-core CI runner.
// Benchmarks present only in the new report pass (new coverage); benchmarks
// that disappeared are warned about on stderr but do not fail the build —
// update the committed baseline when renaming or removing one.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name string `json:"name"`
	N    int64  `json:"n"`
	// Metrics maps unit -> value: "ns/op", "sim-ms/op", "B/op", "allocs/op"
	// and any custom b.ReportMetric unit.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the artifact schema.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	// Hand-rolled argument scan so the documented usage works regardless of
	// flag order (`-compare old new -alloc-tolerance 1.25x`).
	var compare []string
	allocTolerance := 1.25
	args := os.Args[1:]
	parseRatio := func(flag, val string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(val, "x"), 64)
		if err != nil || v < 1 {
			fatal(fmt.Sprintf("bad %s %q: want a ratio >= 1 like 1.5x", flag, val))
		}
		return v
	}
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-compare", "--compare":
			if len(args) < i+3 {
				fatal("usage: benchjson -compare old.json new.json [-alloc-tolerance 1.25x]")
			}
			compare = []string{args[i+1], args[i+2]}
			i += 2
		case "-alloc-tolerance", "--alloc-tolerance":
			if len(args) < i+2 {
				fatal("-alloc-tolerance needs a value (e.g. 1.25x)")
			}
			allocTolerance = parseRatio("alloc-tolerance", args[i+1])
			i++
		case "-h", "--help":
			fmt.Fprintln(os.Stderr, "usage: benchjson < bench.txt > BENCH.json")
			fmt.Fprintln(os.Stderr, "       benchjson -compare old.json new.json [-alloc-tolerance 1.25x]")
			return
		default:
			fatal(fmt.Sprintf("unknown argument %q", args[i]))
		}
	}
	if compare != nil {
		os.Exit(runCompare(compare[0], compare[1], allocTolerance))
	}
	runConvert()
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchjson:", msg)
	os.Exit(2)
}

// runConvert is the original stdin -> JSON mode.
func runConvert() {
	var rep Report
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a "Benchmark..." line that is not a result row
		}
		b := Benchmark{Name: fields[0], N: n, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// simMetric is the primary compared unit, compared exactly: simulated
// latency is deterministic for a given tree, so any movement is a real
// code-path change, not machine noise.
const simMetric = "sim-ms/op"

// allocMetric is the secondary guard: allocation counts move run to run by
// their cold start, so only a climb past both the tolerance and allocSlack is
// taken for a hot-path representation change.
const allocMetric = "allocs/op"

// allocSlack is how many allocations over its baseline a benchmark may climb
// past the tolerance: a few incidental allocations on a 20-alloc benchmark
// break the ratio but are no hot-path regression.
const allocSlack = 16

// bytesMetric guards allocated bytes with the same tolerance as allocs/op:
// the arena scan path's wins are mostly byte wins (few large buffers
// replacing many small ones), which a count-only guard would not hold.
const bytesMetric = "B/op"

// bytesSlack is the B/op analogue of allocSlack.
const bytesSlack = 4 << 10

func runCompare(oldPath, newPath string, allocTolerance float64) int {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newByName := map[string]Benchmark{}
	for _, b := range newRep.Benchmarks {
		newByName[normalizeName(b.Name)] = b
	}

	compared, failures := 0, 0
	for _, ob := range oldRep.Benchmarks {
		oldSim, hasSim := ob.Metrics[simMetric]
		oldAllocs, hasAllocs := ob.Metrics[allocMetric]
		if !hasSim && !hasAllocs {
			continue
		}
		name := normalizeName(ob.Name)
		nb, ok := newByName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: warning: %s missing from %s (baseline stale?)\n", name, newPath)
			continue
		}
		counted := false
		if hasSim {
			newSim, ok := nb.Metrics[simMetric]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchjson: warning: %s lost its %s metric\n", name, simMetric)
			} else {
				compared++
				counted = true
				if newSim != oldSim {
					failures++
					fmt.Printf("MOVED      %-60s %10.4g -> %10.4g %s (exact; re-record the baseline if intended)\n",
						name, oldSim, newSim, simMetric)
				}
			}
		}
		if hasAllocs {
			newAllocs, ok := nb.Metrics[allocMetric]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchjson: warning: %s lost its %s metric\n", name, allocMetric)
				continue
			}
			if !counted {
				compared++
				counted = true
			}
			if newAllocs > oldAllocs*allocTolerance && newAllocs > oldAllocs+allocSlack {
				failures++
				fmt.Printf("REGRESSION %-60s %10.0f -> %10.0f %s (%.2fx > %.2fx tolerance)\n",
					name, oldAllocs, newAllocs, allocMetric, newAllocs/oldAllocs, allocTolerance)
			}
		}
		if oldBytes, hasBytes := ob.Metrics[bytesMetric]; hasBytes {
			newBytes, ok := nb.Metrics[bytesMetric]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchjson: warning: %s lost its %s metric\n", name, bytesMetric)
				continue
			}
			if !counted {
				compared++
			}
			if newBytes > oldBytes*allocTolerance && newBytes > oldBytes+bytesSlack {
				failures++
				fmt.Printf("REGRESSION %-60s %10.0f -> %10.0f %s (%.2fx > %.2fx tolerance)\n",
					name, oldBytes, newBytes, bytesMetric, newBytes/oldBytes, allocTolerance)
			}
		}
	}
	fmt.Printf("benchjson: compared %d benchmarks, %s exactly and %s and %s within %.2fx or +%d/+%d: %d failure(s)\n",
		compared, simMetric, allocMetric, bytesMetric, allocTolerance, allocSlack, bytesSlack, failures)
	if failures > 0 {
		return 1
	}
	return 0
}

// normalizeName strips the -<GOMAXPROCS> suffix go test appends, so reports
// from machines with different core counts compare by benchmark identity.
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
