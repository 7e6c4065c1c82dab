package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (the exclusive method), so
// a spread computed here is the spread the driver computes. It needs two
// values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side summarizes one report's values of one metric on one workload.
type side struct {
	n      int
	median float64
	// spread is (q3-q1)/median; known only from four values up.
	spread      float64
	spreadKnown bool
}

func summarize(xs []float64) side {
	s := side{n: len(xs)}
	switch {
	case len(xs) == 0:
	case len(xs) == 1:
		s.median = xs[0]
	default:
		q1, q2, q3 := quartiles(xs)
		s.median = q2
		if len(xs) >= 4 && q2 != 0 {
			s.spread, s.spreadKnown = (q3-q1)/q2, true
		}
	}
	return s
}

// values collects a metric's values over a report's runs of one workload.
func (r *report) values(workload, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload != workload {
			continue
		}
		if m, ok := run.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges b against a for one end-to-end metric. worse is how far b's
// median is on the wrong side of a's, as a share of a's.
func verdict(a, b side, m metricSpec) (worse float64, v string) {
	if a.n == 0 || b.n == 0 || a.median == 0 {
		return 0, "missing"
	}
	worse = (b.median - a.median) / a.median
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case (a.spreadKnown && a.spread > m.Bound) || (b.spreadKnown && b.spread > m.Bound):
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "regressed"
	case worse < -m.Bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

// compareReports prints, for every workload and metric, report b against
// report a, and returns the exit code: 1 when any end-to-end metric
// regressed beyond its bound or more statements failed, else 0. Per-layer
// metrics are listed without a verdict; none of them gates.
func compareReports(specPath, pathA, pathB string, w io.Writer) int {
	var spec benchSpec
	var a, b report
	for _, in := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	fmt.Fprintf(w, "a: %s  commit %s seed %d %s nproc %d\n", pathA, a.Header.Commit, a.Header.Seed, a.Header.GoVersion, a.Header.NProc)
	fmt.Fprintf(w, "b: %s  commit %s seed %d %s nproc %d\n", pathB, b.Header.Commit, b.Header.Seed, b.Header.GoVersion, b.Header.NProc)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tworse by\tbound\tspread a\tspread b\tverdict")
	exit := 0
	pct := func(s side) string {
		if !s.spreadKnown {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*s.spread)
	}
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, sb := summarize(a.values(wl.Name, m.Name)), summarize(b.values(wl.Name, m.Name))
			worse, v := verdict(sa, sb, m)
			if v == "regressed" || v == "missing" {
				exit = 1
			}
			if m.Name == "ok_share" && sb.median < sa.median {
				v, exit = "regressed", 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%s\t%s\t%s\n",
				wl.Name, m.Name, m.Unit, sa.median, sb.median, 100*worse, 100*m.Bound, pct(sa), pct(sb), v)
		}
		for _, m := range spec.PerLayer {
			sa, sb := summarize(a.values(wl.Name, m.Name)), summarize(b.values(wl.Name, m.Name))
			if sa.n == 0 && sb.n == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t\t\t%s\t%s\t\n", wl.Name, m.Name, m.Unit, sa.median, sb.median, pct(sa), pct(sb))
		}
	}
	tw.Flush()
	return exit
}
