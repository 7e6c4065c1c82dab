package bench

import (
	"fmt"
	"runtime"
	"strings"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

// MaintenanceLanes are the view-maintenance modes of the sweep, in row
// order: the paper's synchronous §VIII-B protocol and the deferred lane
// layered on the changefeed.
var MaintenanceLanes = []struct {
	Name string
	Mode synergy.MaintenanceMode
}{
	{"Sync", synergy.SyncMaintenance},
	{"Async", synergy.AsyncMaintenance},
}

// MaintenanceCell is one (lane, view count) measurement.
type MaintenanceCell struct {
	Lane  string
	Views int
	// Write is the simulated latency of one root update — the write that
	// fans out to every view. Sync pays every view's locate and the §VIII-B
	// mark/update/un-mark barriers, once for all views, inline; the async
	// lane pays one changefeed hop.
	Write Measurement
	// StaleLag is the mean freshness gap (store timestamp ticks) a ReadStale
	// query observes while the changefeed backlog from the write burst is
	// still unapplied. Sync is always 0.
	StaleLag float64
	// WatermarkRead is the simulated latency of a ReadWatermark query issued
	// while its view's delta is still queued: the reader is charged the
	// watermark wait plus the applier work it blocked on. Sync pays a plain
	// read.
	WatermarkRead Measurement
	// DrainMs is the total background applier cost (simulated ms) of the
	// write burst — the work the async lane moved off the writer's
	// latency path. Sync is 0: the same work is inside Write.
	DrainMs float64
	// OCCAbortRate and OCCMean report a 1-hot-row OCC contention wave under
	// this lane: deferred maintenance shrinks the transaction a conflict
	// loser must re-execute, so retries get cheaper even when the abort rate
	// (a property of the overlap structure) stays put.
	OCCAbortRate float64
	OCCMean      Measurement
}

// MaintenanceResult is the full sweep: one row per view count, one cell per
// maintenance lane.
type MaintenanceResult struct {
	Reps       int
	ViewCounts []int
	Cells      map[int]map[string]MaintenanceCell // views -> lane -> cell
}

// maintenanceSchema is a Root fanning out to `views` leaf relations, each
// carrying a Root-Leaf materialized view — the shape where one root update
// pays view maintenance `views` times.
func maintenanceSchema(views int) (*schema.Schema, []string) {
	s := schema.New()
	s.AddRelation(&schema.Relation{
		Name: "Root",
		Columns: []schema.Column{
			{Name: "RID", Type: schema.TInt},
			{Name: "RVal", Type: schema.TString},
		},
		PK: []string{"RID"},
	})
	workload := make([]string, 0, views+1)
	for i := 0; i < views; i++ {
		leaf := fmt.Sprintf("Leaf%02d", i)
		s.AddRelation(&schema.Relation{
			Name: leaf,
			Columns: []schema.Column{
				{Name: leaf + "ID", Type: schema.TInt},
				{Name: leaf + "_RID", Type: schema.TInt},
				{Name: leaf + "Val", Type: schema.TString},
			},
			PK:  []string{leaf + "ID"},
			FKs: []schema.ForeignKey{{Cols: []string{leaf + "_RID"}, RefTable: "Root"}},
		})
		workload = append(workload, fmt.Sprintf(
			"SELECT * FROM Root as r, %s as l WHERE r.RID = l.%s_RID and l.%sVal = ?",
			leaf, leaf, leaf))
	}
	workload = append(workload, "UPDATE Root SET RVal = ? WHERE RID = ?")
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s, workload
}

// buildMaintenanceSystem deploys the fanout design under one maintenance
// lane with rowsPer view rows hanging off the hot root row.
func buildMaintenanceSystem(views, rowsPer int, lane synergy.MaintenanceMode, conc synergy.ConcurrencyMode, costs *sim.Costs) (*synergy.System, error) {
	s, workload := maintenanceSchema(views)
	cfg := synergy.Config{Concurrency: conc, Costs: costs, Maintenance: lane}
	if conc != synergy.Hierarchical {
		cfg.MaxVersions = 16
	}
	sys, err := synergy.New(s, []string{"Root"}, workload, cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.LoadBase("Root", []schema.Row{{"RID": int64(1), "RVal": "one"}}); err != nil {
		return nil, err
	}
	for i := 0; i < views; i++ {
		leaf := fmt.Sprintf("Leaf%02d", i)
		rows := make([]schema.Row, 0, rowsPer)
		for j := 0; j < rowsPer; j++ {
			rows = append(rows, schema.Row{
				leaf + "ID": int64(j + 1), leaf + "_RID": int64(1),
				leaf + "Val": fmt.Sprintf("%s-%d", leaf, j),
			})
		}
		if err := sys.LoadBase(leaf, rows); err != nil {
			return nil, err
		}
	}
	if err := sys.BuildViews(); err != nil {
		return nil, err
	}
	if lane != synergy.SyncMaintenance && sys.Feed == nil {
		return nil, fmt.Errorf("bench: %v lane built no changefeed", lane)
	}
	return sys, nil
}

var maintenanceUpdate = sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")

// RunMaintenance runs the view-maintenance sweep: for each view count and
// each lane it measures the root-update write latency, the staleness a
// ReadStale query observes against the resulting backlog, the price a
// ReadWatermark reader pays to wait the backlog out, the background applier
// cost the lane deferred, and an OCC contention mini-wave showing how lane
// choice changes what a conflict loser re-executes.
func RunMaintenance(viewCounts []int, reps int, seed int64, costs *sim.Costs) (*MaintenanceResult, error) {
	if len(viewCounts) == 0 {
		viewCounts = []int{1, 4, 16}
	}
	for _, vc := range viewCounts {
		if vc < 1 {
			return nil, fmt.Errorf("maintenance: view count %d, want at least 1", vc)
		}
	}
	if reps <= 0 {
		reps = 10
	}
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	res := &MaintenanceResult{
		Reps: reps, ViewCounts: viewCounts,
		Cells: map[int]map[string]MaintenanceCell{},
	}
	root := sim.NewRNG(seed)
	for _, vc := range viewCounts {
		res.Cells[vc] = map[string]MaintenanceCell{}
		for _, lane := range MaintenanceLanes {
			rng := root.Derive(fmt.Sprintf("maintenance/%s/%d", lane.Name, vc))
			cell, err := runMaintenanceCell(lane.Name, lane.Mode, vc, reps, seed, rng, costs)
			if err != nil {
				return nil, fmt.Errorf("maintenance %s/%d views: %w", lane.Name, vc, err)
			}
			res.Cells[vc][lane.Name] = cell
		}
	}
	return res, nil
}

func runMaintenanceCell(name string, mode synergy.MaintenanceMode, views, reps int, seed int64, rng *sim.RNG, costs *sim.Costs) (MaintenanceCell, error) {
	const rowsPer = 8
	sys, err := buildMaintenanceSystem(views, rowsPer, mode, synergy.Hierarchical, costs)
	if err != nil {
		return MaintenanceCell{}, err
	}
	cell := MaintenanceCell{Lane: name, Views: views}

	// Write burst. The feed is paused so the backlog survives for the
	// staleness probes; the appliers run on their own contexts either way,
	// so pausing doesn't change what the writer is charged.
	if sys.Feed != nil {
		sys.Feed.Pause()
	}
	cell.Write, err = measure(reps, rng, func(rep int) (sim.Micros, error) {
		ctx := sim.NewCtx()
		err := sys.Exec(ctx, maintenanceUpdate, []schema.Value{fmt.Sprintf("w%d", rep), int64(1)})
		return ctx.Elapsed(), err
	})
	if err != nil {
		return MaintenanceCell{}, err
	}

	// ReadStale probe against the burst's backlog.
	sel := sys.Design.Workload.Selects()[0]
	probe := sim.NewCtx()
	if _, err := sys.Query(probe, sel, []schema.Value{"Leaf00-0"}); err != nil {
		return MaintenanceCell{}, err
	}
	if s := probe.Snapshot(); s.StaleReads > 0 {
		cell.StaleLag = float64(s.StaleLag) / float64(s.StaleReads)
	}

	// Drain the burst's backlog before the watermark probes. Draining at a
	// quiescent point keeps the applier's batch boundaries — and so the
	// per-batch hop charges in the drain column — deterministic: every lane
	// pops its whole backlog in fixed-size batches instead of racing the
	// probe loop's pause/resume cycling.
	if sys.Feed != nil {
		if err := sys.Feed.Drain(); err != nil {
			return MaintenanceCell{}, err
		}
	}

	// ReadWatermark probe: one queued delta per lane, reader blocked on the
	// paused lane; Resume releases the appliers and the reader is charged
	// the wait plus the applier work it blocked on. The per-rep Drain
	// returns every lane to empty so each rep applies exactly one
	// single-delta batch per lane.
	wm := sys.NewSession()
	wm.SetReads(synergy.ReadWatermark)
	wmSamples := make([]sim.Micros, 0, reps)
	for rep := 0; rep < reps; rep++ {
		ctx := sim.NewCtx()
		if sys.Feed == nil {
			if _, err := wm.Query(ctx, sel, []schema.Value{"Leaf00-0"}); err != nil {
				return MaintenanceCell{}, err
			}
			wmSamples = append(wmSamples, rng.Jitter(ctx.Elapsed(), 0.02))
			continue
		}
		sys.Feed.Pause()
		if err := sys.Exec(sim.NewCtx(), maintenanceUpdate,
			[]schema.Value{fmt.Sprintf("wm%d", rep), int64(1)}); err != nil {
			return MaintenanceCell{}, err
		}
		errc := make(chan error, 1)
		go func() {
			_, qerr := wm.Query(ctx, sel, []schema.Value{"Leaf00-0"})
			errc <- qerr
		}()
		// Resume only once the reader is blocked on the paused lane, or has
		// returned. WaitWatermark counts the wait under the lane lock that
		// Resume needs, so Resume cannot overtake a reader counted here.
		for ctx.Snapshot().WatermarkWaits == 0 && len(errc) == 0 {
			runtime.Gosched()
		}
		sys.Feed.Resume()
		if err := <-errc; err != nil {
			return MaintenanceCell{}, err
		}
		if err := sys.Feed.Drain(); err != nil {
			return MaintenanceCell{}, err
		}
		wmSamples = append(wmSamples, rng.Jitter(ctx.Elapsed(), 0.02))
	}
	cell.WatermarkRead = Summarize(wmSamples)

	// Account the deferred applier work (burst + watermark-probe deltas).
	if sys.Feed != nil {
		cell.DrainMs = sys.Feed.AppliedCost().Milliseconds()
	}

	// OCC mini-wave: one hot row, four overlapping single-update
	// transactions per round. The overlap structure fixes the abort rate;
	// the lane fixes how much work each loser re-executes.
	occSys, err := buildMaintenanceSystem(views, rowsPer, mode, synergy.OCC, costs)
	if err != nil {
		return MaintenanceCell{}, err
	}
	occCell, err := runOptimisticCell(occSys, synergy.OCC, 1, 4, reps, 1, seed, costs)
	if err != nil {
		return MaintenanceCell{}, err
	}
	if occSys.Feed != nil {
		if err := occSys.Feed.Drain(); err != nil {
			return MaintenanceCell{}, err
		}
	}
	cell.OCCAbortRate = occCell.AbortRate()
	cell.OCCMean = occCell.Mean
	return cell, nil
}

// RenderMaintenance formats the sweep as a lanes-by-views grid.
func RenderMaintenance(r *MaintenanceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "View maintenance lanes: write cost vs staleness (%d reps; ms simulated)\n", r.Reps)
	fmt.Fprintf(&b, "%-6s %-7s %12s %11s %12s %9s %18s\n",
		"views", "lane", "write ms/op", "stale lag", "wm-read ms", "drain ms", "occ ms (abort%)")
	for _, vc := range r.ViewCounts {
		for _, lane := range MaintenanceLanes {
			c := r.Cells[vc][lane.Name]
			occ := fmt.Sprintf("%s (%.0f%%)", c.OCCMean, 100*c.OCCAbortRate)
			fmt.Fprintf(&b, "%-6d %-7s %12s %11.1f %12s %9.2f %18s\n",
				vc, c.Lane, c.Write.String(), c.StaleLag, c.WatermarkRead.String(), c.DrainMs, occ)
		}
	}
	return b.String()
}
