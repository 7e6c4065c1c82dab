package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"synergy/internal/schema"
	"synergy/internal/server"
	"synergy/internal/sim"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// The large-scan experiment measures the streaming query path end to end: a
// full scan of the TPC-W Customer table (17 mixed-type columns) through the
// MySQL wire server over a real in-process socket, streamed (cursor
// execution, SET synergy_stream=1) versus materialized (the server buffers
// the whole result set before encoding). The client always streams and
// discards rows, so the memory and allocation deltas isolate the server
// side of the path.
//
// Three claims are checked, per row count:
//
//   - simulated time is identical between the two paths (the cost model
//     charges the same scan work and the same response bytes);
//   - the wire bytes are identical (an FNV-64a checksum over every row
//     packet payload matches);
//   - streaming's peak memory is bounded by the scan chunk, not the result
//     (PeakBytes stays near-flat in row count while materialized grows
//     linearly), and its allocations stay near-constant in row count.
//
// Time-to-first-row makes the latency difference visible: a streamed scan
// produces its first row after one region chunk, a materialized one only
// after the whole table was buffered.

// LargeScanOpts parameterizes the large-scan experiment.
type LargeScanOpts struct {
	// Rows lists the Customer-table sizes to sweep (default 10k, 100k).
	Rows []int
	// Seed drives the deterministic data generator.
	Seed int64
}

func (o *LargeScanOpts) defaults() {
	if len(o.Rows) == 0 {
		o.Rows = []int{10000, 100000}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// LargeScanCell is one (rows, path) measurement.
type LargeScanCell struct {
	Rows     int
	Streamed bool
	// SimMS is the scan's simulated latency in milliseconds.
	SimMS float64
	// TTFRMS is the simulated time to the first row packet, milliseconds.
	TTFRMS float64
	// PeakBytes is the peak live heap observed during the scan above the
	// pre-scan baseline (server + discarding client; the server side
	// dominates).
	PeakBytes uint64
	// AllocBytes and Allocs are the total allocation deltas for the scan.
	AllocBytes, Allocs uint64
	// Hash is an FNV-64a checksum over every row packet payload.
	Hash uint64
	// WallMS is wall-clock milliseconds, for orientation only.
	WallMS float64
}

// LargeScanResult is the full experiment output.
type LargeScanResult struct {
	Opts  LargeScanOpts
	Cells []LargeScanCell
}

// largeScanSchema is the Customer relation alone: the experiment wants one
// wide table of controllable size, not the whole TPC-W database.
func largeScanSchema() *schema.Schema {
	s := schema.New()
	full := tpcw.Schema()
	cust := full.Relation("Customer")
	if cust == nil {
		panic("bench: TPC-W schema lost its Customer relation")
	}
	s.AddRelation(&schema.Relation{Name: cust.Name, Columns: cust.Columns, PK: cust.PK})
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// RunLargeScan runs the large-scan experiment.
func RunLargeScan(opts LargeScanOpts, costs *sim.Costs) (*LargeScanResult, error) {
	opts.defaults()
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	res := &LargeScanResult{Opts: opts}
	for _, rows := range opts.Rows {
		cells, err := runLargeScanSize(rows, opts.Seed, costs)
		if err != nil {
			return nil, fmt.Errorf("largescan %d rows: %w", rows, err)
		}
		res.Cells = append(res.Cells, cells...)
	}
	return res, nil
}

func runLargeScanSize(rows int, seed int64, costs *sim.Costs) ([]LargeScanCell, error) {
	sys, err := synergy.New(largeScanSchema(), []string{"Customer"}, nil,
		synergy.Config{Concurrency: synergy.Hierarchical, Costs: costs})
	if err != nil {
		return nil, err
	}
	if err := sys.LoadBase("Customer", tpcw.GenerateCustomers(rows, seed)); err != nil {
		return nil, err
	}
	if err := sys.BuildViews(); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Backends: []server.Backend{{Name: "synergy", System: sys}},
		Costs:    costs,
	})
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("bench-largescan-%d-%d", rows, serverBenchSeq.Add(1))
	l, err := server.ListenInproc(addr)
	if err != nil {
		return nil, err
	}
	go srv.Serve(l)
	defer srv.Close()

	c, err := server.Dial("inproc", addr, "largescan", "")
	if err != nil {
		return nil, err
	}
	defer c.Close()

	var out []LargeScanCell
	for _, streamed := range []bool{true, false} {
		mode := "0"
		if streamed {
			mode = "1"
		}
		if err := c.Exec("SET synergy_stream = " + mode); err != nil {
			return nil, err
		}
		// Warm-up scan: fills the store's chunk and arena pools so the
		// measured pass reflects steady state for both paths.
		if _, _, _, err := largeScanOnce(c); err != nil {
			return nil, err
		}
		cell, err := measureLargeScan(c, rows, streamed)
		if err != nil {
			return nil, err
		}
		out = append(out, *cell)
	}
	// The two paths must be observationally identical; a CI smoke run of
	// this experiment is what pins the equivalence at scale.
	if out[0].Hash != out[1].Hash {
		return nil, fmt.Errorf("wire bytes diverge: streamed fnv64a %016x, materialized %016x",
			out[0].Hash, out[1].Hash)
	}
	if out[0].SimMS != out[1].SimMS {
		return nil, fmt.Errorf("simulated cost diverges: streamed %.3fms, materialized %.3fms",
			out[0].SimMS, out[1].SimMS)
	}
	return out, nil
}

// largeScanOnce runs one full-table scan, streaming and discarding client
// side, returning the row count, wire checksum and wall time.
func largeScanOnce(c *server.Client) (n int, hash uint64, wall time.Duration, err error) {
	h := fnv.New64a()
	start := time.Now()
	rs, err := c.QueryStream("SELECT * FROM Customer")
	if err != nil {
		return 0, 0, 0, err
	}
	for rs.Next() {
		n++
		h.Write(rs.RawBytes())
	}
	if err := rs.Close(); err != nil {
		return 0, 0, 0, err
	}
	return n, h.Sum64(), time.Since(start), nil
}

func measureLargeScan(c *server.Client, rows int, streamed bool) (*LargeScanCell, error) {
	sim0, err := c.SimMicros()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	// Peak sampler: the materialized path's buffered result set is live the
	// whole time the response is being written, so a millisecond sampler
	// can't miss it; the streamed path never accumulates anything to see.
	stop := make(chan struct{})
	peaked := make(chan uint64, 1)
	go func() {
		peak := base.HeapAlloc
		var m runtime.MemStats
		for {
			select {
			case <-stop:
				peaked <- peak
				return
			default:
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	n, hash, wall, err := largeScanOnce(c)
	close(stop)
	peak := <-peaked
	if err != nil {
		return nil, err
	}
	if n != rows {
		return nil, fmt.Errorf("scan returned %d rows, want %d", n, rows)
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)

	sim1, err := c.SimMicros()
	if err != nil {
		return nil, err
	}
	ttfr, err := c.SysVar("synergy_sim_ttfr_micros")
	if err != nil {
		return nil, err
	}
	ttfrMicros, _ := ttfr.(int64)

	cell := &LargeScanCell{
		Rows:       rows,
		Streamed:   streamed,
		SimMS:      float64(sim1-sim0) / 1000,
		TTFRMS:     float64(ttfrMicros) / 1000,
		AllocBytes: end.TotalAlloc - base.TotalAlloc,
		Allocs:     end.Mallocs - base.Mallocs,
		Hash:       hash,
		WallMS:     float64(wall.Microseconds()) / 1000,
	}
	if peak > base.HeapAlloc {
		cell.PeakBytes = peak - base.HeapAlloc
	}
	return cell, nil
}

// RenderLargeScan formats the experiment, pairing each row count's streamed
// and materialized cells.
func RenderLargeScan(r *LargeScanResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Large scans through the wire server: SELECT * FROM Customer, streamed vs materialized (simulated ms; peak/alloc bytes are process deltas)\n")
	fmt.Fprintf(&b, "%-10s %-14s %-10s %-10s %-12s %-12s %-12s %-10s\n",
		"rows", "path", "sim ms", "ttfr ms", "peak MiB", "alloc MiB", "allocs", "wall ms")
	byRows := map[int][]LargeScanCell{}
	var order []int
	for _, c := range r.Cells {
		if _, seen := byRows[c.Rows]; !seen {
			order = append(order, c.Rows)
		}
		byRows[c.Rows] = append(byRows[c.Rows], c)
	}
	mib := func(n uint64) float64 { return float64(n) / (1 << 20) }
	for _, rows := range order {
		var streamed, mat *LargeScanCell
		for i := range byRows[rows] {
			c := &byRows[rows][i]
			if c.Streamed {
				streamed = c
			} else {
				mat = c
			}
		}
		for _, c := range []*LargeScanCell{streamed, mat} {
			if c == nil {
				continue
			}
			path := "materialized"
			if c.Streamed {
				path = "streamed"
			}
			fmt.Fprintf(&b, "%-10d %-14s %-10.1f %-10.1f %-12.1f %-12.1f %-12d %-10.0f\n",
				c.Rows, path, c.SimMS, c.TTFRMS, mib(c.PeakBytes), mib(c.AllocBytes), c.Allocs, c.WallMS)
		}
		if streamed != nil && mat != nil {
			match := "MATCH"
			if streamed.Hash != mat.Hash {
				match = "MISMATCH"
			}
			fmt.Fprintf(&b, "  wire bytes %s (fnv64a %016x), peak ratio %s, alloc ratio %s\n",
				match, streamed.Hash,
				ratio(float64(mat.PeakBytes), float64(streamed.PeakBytes)),
				ratio(float64(mat.AllocBytes), float64(streamed.AllocBytes)))
		}
	}
	return b.String()
}

// ratio formats num/den as "N.Nx"; a zero denominator means the streamed
// side was too small to observe at all, which is the best possible outcome.
func ratio(num, den float64) string {
	if den <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", num/den)
}
