package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"synergy/internal/synergy"
)

// conns is the closed-loop client count: one goroutine per connection, each
// sending its next statement only after the previous one completed. It
// equals nproc on the box the bounds were fixed on; GOMAXPROCS is left alone.
const conns = 2

// workloadSpec describes one workload (BENCHMARK.json and the README say why
// each exists): the deployment it runs against, its mix, and three frozen
// sizes.
//
// warmDecks is the unmeasured warm-up, in whole decks per connection: about
// two seconds on the parent tree. simDecks is how many whole decks per
// connection, from the start of the measured phase, sim_ms_per_stmt is taken
// over: about three quarters of what the parent tree completes in the 20
// seconds the driver measures for. Both are counts, not times, so every run of a seed
// measures the simulated clock over the identical statements however fast
// the host is; the measured phase runs past its clock if that is what it
// takes to complete them.
//
// rateCap is the statement rate, per connection and second, the up-front
// stream is sized for — five to eight times what the parent tree reaches, so
// a much faster engine still has stream left when the clock stops, yet the
// stream stays small beside the deployment's heap. A run that does exhaust
// it ends early and reports what it measured.
type workloadSpec struct {
	name      string
	mode      synergy.ConcurrencyMode
	scanOnly  bool
	mix       func() []mixEntry
	warmDecks int
	simDecks  int
	rateCap   int
}

var workloads = []workloadSpec{
	{name: "browse", mode: synergy.Hierarchical, mix: browseMix, warmDecks: 1, simDecks: 7, rateCap: 400},
	{name: "order", mode: synergy.Hierarchical, mix: orderMix, warmDecks: 4, simDecks: 32, rateCap: 2000},
	{name: "order-mvcc", mode: synergy.MVCC, mix: orderMix, warmDecks: 4, simDecks: 30, rateCap: 2000},
	{name: "scan", mode: synergy.Hierarchical, scanOnly: true, mix: scanMix, warmDecks: 3, simDecks: 20, rateCap: 200},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scale is the data size. The paper runs TPC-W at 1M customers on eight EC2
// nodes; the sandbox gets 500 (5,000 items, 5,000 orders) and a 20,000-row
// Customer table for scans, which is what fits the driver's time cap.
// contendedTxns is the length, per connection, of the contention probe. The
// command always runs at frozenScale; only the tests build a smaller one.
type scale struct {
	numCust       int
	scanRows      int
	contendedTxns int
}

var frozenScale = scale{numCust: 500, scanRows: 20000, contendedTxns: 200}

// runConfig is one invocation of one workload.
type runConfig struct {
	spec  workloadSpec
	scale scale
	seed  int64
	trace bool
	// seconds is the measured phase's length on the wall clock.
	seconds float64
	// setups is how many times the deployment is set up; setup_s is the
	// median. Only the last one serves the run.
	setups int
	outDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-facing outcome of one run: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is everything one run learned, written to the out directory and
// consumed by -compare.
type runReport struct {
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Seed     int64             `json:"seed"`
	Result   result            `json:"result"`
	Samples  map[string]int    `json:"samples"`
	Checks   map[string]string `json:"checks"`
	Errors   []string          `json:"errors,omitempty"`
	// DeckWallS lists, per connection, the wall seconds of every deck of the
	// measured phase in execution order: where in a run the host was slow.
	DeckWallS [][]float64 `json:"deck_wall_s,omitempty"`
}

func (r *runReport) emit(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Errors = append(r.Errors, fmt.Sprintf("metric %s is not finite", name))
		r.Result.Correct = false
		v = 0
	}
	r.Result.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records one correctness check's outcome.
func (r *runReport) check(name string, err error) {
	if err != nil {
		r.Checks[name] = err.Error()
		r.Result.Correct = false
		return
	}
	r.Checks[name] = "ok"
}

// quantile is the nearest-rank quantile of xs; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// live is one served deployment with its clients connected and the stream
// generator positioned after the streams it has produced so far.
type live struct {
	d       *deployment
	g       *gen
	clients []*client
}

func (l *live) close() {
	for _, cl := range l.clients {
		cl.c.Close()
	}
	l.d.close()
}

// setUp is the timed set-up: generate the data, build, load and serve the
// system, connect every client and prepare every statement.
func setUp(cfg runConfig) (*live, time.Duration, error) {
	t0 := time.Now()
	d, err := deploy(cfg.spec, cfg.scale, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	l := &live{d: d}
	if cfg.spec.scanOnly {
		l.g, err = newScanGen(d.custRows, conns)
		d.custRows = nil
	} else {
		l.g, err = newTPCWGen(d.data, conns)
		d.data = nil
	}
	if err != nil {
		d.close()
		return nil, 0, err
	}
	for w := 0; w < conns; w++ {
		cl, err := dial(d, l.g.defs, w)
		if err != nil {
			l.close()
			return nil, 0, err
		}
		l.clients = append(l.clients, cl)
	}
	return l, time.Since(t0), nil
}

// runWorkload performs one run and returns its report.
func runWorkload(cfg runConfig) (*runReport, error) {
	rep := &runReport{Workload: cfg.spec.name, Trace: cfg.trace, Seed: cfg.seed,
		Result:  result{Correct: true, Metrics: map[string]metric{}},
		Samples: map[string]int{}, Checks: map[string]string{}}

	var setupS []float64
	var l *live
	for i := 0; i < cfg.setups; i++ {
		if l != nil {
			l.close()
			l = nil
			runtime.GC()
		}
		var took time.Duration
		var err error
		l, took, err = setUp(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, took.Seconds())
	}
	defer func() { l.close() }()

	// The stream is sized for the clock, and never shorter than the decks
	// the warm-up and the simulated clock are counted in.
	spec := cfg.spec
	st := generate(l.g, spec.mix(), cfg.seed, int(1.1*cfg.seconds*float64(spec.rateCap)), spec.warmDecks+spec.simDecks)

	// The warm-up runs whole decks, so the measured phase starts every
	// connection on the same deck boundary in every run.
	clock := time.Duration(cfg.seconds * float64(time.Second))
	warm := func() budget { return budget{decks: spec.warmDecks} }
	measure := func() budget { return budget{deadline: time.Now().Add(clock), decks: spec.simDecks} }
	if cfg.trace {
		// A traced run splits the clock: an untraced reference phase, then
		// the layer peel over the same live deployment.
		measure = func() budget {
			return budget{deadline: time.Now().Add(time.Duration(referenceShare * float64(clock)))}
		}
	}
	recs, ps, err := drive(l.clients, st, warm, measure)
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}

	var all samples // the measured phase, pooled over the connections
	var failed, warmStmts int64
	for _, r := range recs {
		all.add(&r.samples)
		var walls []float64
		for _, d := range r.decks {
			walls = append(walls, d.wall.Seconds())
		}
		rep.DeckWallS = append(rep.DeckWallS, walls)
		failed += r.failed
		warmStmts += r.warmStmts
		rep.Errors = append(rep.Errors, r.firstErrs...)
	}
	rep.Result.Attempted = all.stmts + warmStmts
	rep.Result.Failed = failed
	rep.Samples["measured_stmts"] = int(all.stmts)
	rep.Samples["read"] = len(all.readMS)
	rep.Samples["ttfr"] = len(all.ttfrMS)
	rep.Samples["write_units"] = len(all.writeMS)
	if all.stmts == 0 {
		return nil, fmt.Errorf("measured phase executed no statement")
	}

	// Checks run with the traffic stopped.
	rep.check("fixed_cardinality_and_errors", failedErr(failed, rep.Errors))
	runChecks(rep, l, recs, cfg)

	if cfg.trace {
		if err := tracedRun(rep, l, cfg, &all, ps); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		return rep, nil
	}

	// The simulated clock, unlike the wall clock, is read over a fixed count
	// of decks: the same statements in every run of a seed.
	var simMicros, simStmts int64
	for _, r := range recs {
		for i := 0; i < spec.simDecks && i < len(r.decks) && r.decks[i].complete; i++ {
			simMicros += r.decks[i].simMicros
			simStmts += r.decks[i].stmts
			rep.Samples["sim_decks"]++
		}
	}
	rep.emit("setup_s", "s", median(setupS))
	rep.emit("sim_ms_per_stmt", "sim-ms", float64(simMicros)/1000/float64(simStmts))
	rep.emit("ok_share", "fraction", 1-float64(failed)/float64(rep.Result.Attempted))
	rep.emit("space_amp", "ratio", spaceAmp(l.d))
	rep.emit("allocs_per_stmt", "count", float64(ps.mallocs)/float64(all.stmts))
	// Live heap: what the served system holds with its connections open,
	// without the benchmark's own stream and samples.
	st.conns, recs, all = nil, nil, samples{}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.emit("live_heap_mib", "MiB", float64(m.HeapAlloc)/(1<<20))
	return rep, nil
}

func failedErr(failed int64, errs []string) error {
	if failed == 0 {
		return nil
	}
	return fmt.Errorf("%d failed statements, first: %v", failed, errs)
}

// spaceAmp is the store's total footprint over the bytes of the base tables
// alone: what the views, indexes and lock tables cost (Table III).
func spaceAmp(d *deployment) float64 {
	var base int64
	for _, t := range d.baseTables {
		base += d.sys.Store.TableBytes(t)
	}
	return ratio(float64(d.sys.DatabaseBytes()), float64(base))
}
