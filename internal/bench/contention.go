package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"synergy/internal/mvcc"
	"synergy/internal/occ"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

// ContentionModes are the three concurrency mechanisms of the sweep, in
// column order: the two the paper compares (Figure 13) plus the optimistic
// third mode.
var ContentionModes = []struct {
	Name string
	Mode synergy.ConcurrencyMode
}{
	{"Hierarchical", synergy.Hierarchical},
	{"MVCC", synergy.MVCC},
	{"OCC", synergy.OCC},
}

// ContentionCell is one (mode, hot-row count) measurement of the sweep.
type ContentionCell struct {
	Mode    string
	HotRows int
	// Txns is the number of committed transactions (every transaction is
	// retried until it commits).
	Txns int
	// Mean is the simulated latency per committed transaction, conflict
	// retries and lock backoff included.
	Mean Measurement
	// Conflicts counts validation aborts (OCC) / commit-time write-write
	// conflicts (MVCC); hierarchical locking blocks instead of aborting, so
	// its cell stays 0 and contention shows up in Mean via lock backoff.
	Conflicts int64
	// Retries counts transaction re-executions after a conflict.
	Retries int64
}

// AbortRate is conflicts per attempted commit.
func (c ContentionCell) AbortRate() float64 {
	attempts := int64(c.Txns) + c.Retries
	if attempts == 0 {
		return 0
	}
	return float64(c.Conflicts) / float64(attempts)
}

// ContentionResult is the full sweep: one row per hot-row count, one cell
// per concurrency mode.
type ContentionResult struct {
	Workers, Rounds int
	// Ops is the number of UPDATE statements each transaction executes.
	// Longer transactions shift the OCC-vs-locking balance: an OCC conflict
	// loser re-executes all Ops statements, while a lock queue amortizes
	// its one-time spin over them — the crossover the PR-4 notes predicted.
	Ops     int
	HotRows []int
	Cells   map[int]map[string]ContentionCell // hotRows -> mode -> cell
}

// contentionSchema is a Root with a materialized Root-Leaf view, the fanout
// shape where a root update pays multi-row view maintenance — the §VIII-B
// write the three mechanisms guard differently.
func contentionSchema() (*schema.Schema, []string) {
	s := schema.New()
	s.AddRelation(&schema.Relation{
		Name: "Root",
		Columns: []schema.Column{
			{Name: "RID", Type: schema.TInt},
			{Name: "RVal", Type: schema.TString},
		},
		PK: []string{"RID"},
	})
	s.AddRelation(&schema.Relation{
		Name: "Leaf",
		Columns: []schema.Column{
			{Name: "LID", Type: schema.TInt},
			{Name: "L_RID", Type: schema.TInt},
			{Name: "LVal", Type: schema.TString},
		},
		PK:  []string{"LID"},
		FKs: []schema.ForeignKey{{Cols: []string{"L_RID"}, RefTable: "Root"}},
	})
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s, []string{
		"SELECT * FROM Root as r, Leaf as l WHERE r.RID = l.L_RID and l.LVal = ?",
		"UPDATE Root SET RVal = ? WHERE RID = ?",
	}
}

// buildContentionSystem deploys one mode over hotRows root rows with four
// view rows under each.
func buildContentionSystem(mode synergy.ConcurrencyMode, hotRows int, costs *sim.Costs) (*synergy.System, error) {
	const leavesPerRoot = 4
	s, workload := contentionSchema()
	cfg := synergy.Config{Concurrency: mode, Costs: costs}
	if mode != synergy.Hierarchical {
		cfg.MaxVersions = 16
	}
	sys, err := synergy.New(s, []string{"Root"}, workload, cfg)
	if err != nil {
		return nil, err
	}
	roots := make([]schema.Row, 0, hotRows)
	for i := 1; i <= hotRows; i++ {
		roots = append(roots, schema.Row{"RID": int64(i), "RVal": fmt.Sprintf("r%d", i)})
	}
	if err := sys.LoadBase("Root", roots); err != nil {
		return nil, err
	}
	var leaves []schema.Row
	for i := 1; i <= hotRows; i++ {
		for j := 0; j < leavesPerRoot; j++ {
			leaves = append(leaves, schema.Row{
				"LID": int64((i-1)*leavesPerRoot + j + 1), "L_RID": int64(i),
				"LVal": fmt.Sprintf("l-%d-%d", i, j),
			})
		}
	}
	if err := sys.LoadBase("Leaf", leaves); err != nil {
		return nil, err
	}
	if err := sys.BuildViews(); err != nil {
		return nil, err
	}
	return sys, nil
}

// RunContention runs the Figure-13-style contention sweep: rounds of
// `workers` transactions, each executing `ops` root updates on rows drawn
// from a shrinking hot set, under each of the three concurrency mechanisms.
// Fewer hot rows mean more same-row overlap: hierarchical locking
// serializes behind the root lock (the losers' latency inflates with
// backoff), while MVCC and OCC abort the overlapped transactions at commit
// and retry them (abort rate climbs). Raising ops lengthens transactions:
// an optimistic loser re-executes every statement on retry while a lock
// queue pays its spin once, which is where the abort-rate/latency
// crossover between OCC and hierarchical lives.
//
// The harness is deterministic: each round is a wave of `workers`
// simultaneous arrivals. The optimistic modes never block, so the wave
// opens every transaction before committing any — maximal overlap through
// the transaction API, with conflict losers re-running solo like a
// backed-off client. Hierarchical lock acquisition blocks instead, so its
// wave charges each same-row arrival the contended-spin schedule until its
// predecessors' hold time elapses (see runLockingCell). OCC cells are
// charged the measured transaction-layer overhead (WAL logging + hop) their
// production write path pays, calibrated per system; MVCC, as in the
// paper's systems, runs client-side against the Tephra-like server with no
// transaction layer.
func RunContention(hotRows []int, workers, rounds, ops int, seed int64, costs *sim.Costs) (*ContentionResult, error) {
	if len(hotRows) == 0 {
		hotRows = []int{1, 4, 16}
	}
	for _, hr := range hotRows {
		if hr < 1 {
			return nil, fmt.Errorf("contention: hot-row count %d, want at least 1", hr)
		}
	}
	if workers <= 0 {
		workers = 4
	}
	if rounds <= 0 {
		rounds = 25
	}
	if ops <= 0 {
		ops = 1
	}
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	res := &ContentionResult{
		Workers: workers, Rounds: rounds, Ops: ops, HotRows: hotRows,
		Cells: map[int]map[string]ContentionCell{},
	}
	for _, hr := range hotRows {
		res.Cells[hr] = map[string]ContentionCell{}
		for _, m := range ContentionModes {
			sys, err := buildContentionSystem(m.Mode, hr, costs)
			if err != nil {
				return nil, err
			}
			var cell ContentionCell
			if m.Mode == synergy.Hierarchical {
				cell, err = runLockingCell(sys, hr, workers, rounds, ops, seed, costs)
			} else {
				cell, err = runOptimisticCell(sys, m.Mode, hr, workers, rounds, ops, seed, costs)
			}
			if err != nil {
				return nil, fmt.Errorf("contention %s/%d hot rows: %w", m.Name, hr, err)
			}
			cell.Mode, cell.HotRows = m.Name, hr
			res.Cells[hr][m.Name] = cell
		}
	}
	return res, nil
}

// drawRows picks a transaction's ops root rows from the hot set.
func drawRows(rng *rand.Rand, hotRows, ops int) []int64 {
	rows := make([]int64, ops)
	for i := range rows {
		rows[i] = int64(rng.Intn(hotRows) + 1)
	}
	return rows
}

var contentionUpdate = sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")

// runLockingCell drives the hierarchical system through the same waves of
// simultaneous arrivals as the optimistic cells, modeling the lock queue
// deterministically: within a wave, transactions on the same root rows
// serialize behind those rows' locks, and an arrival is charged the lock
// manager's exact contended-spin schedule — one failed checkAndPut round
// trip plus capped exponential backoff per attempt — until its most
// contended row's predecessors (whose holds overlap) have committed. The
// transactions then execute uncontended, so the stored state matches a
// serial run while the latency carries the queueing cost a real overlapped
// wave pays. Multi-statement transactions (ops > 1) hold every touched
// row's lock until commit, so each updated row's release time advances to
// the whole transaction's completion.
func runLockingCell(sys *synergy.System, hotRows, workers, rounds, ops int, seed int64, costs *sim.Costs) (ContentionCell, error) {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]sim.Micros, 0, workers*rounds)
	for r := 0; r < rounds; r++ {
		// release[row] is the wave-relative simulated time at which the
		// row's lock frees for the next arrival.
		release := map[int64]sim.Micros{}
		for w := 0; w < workers; w++ {
			rows := drawRows(rng, hotRows, ops)
			// Locks are held to commit, so the arrival queues behind the
			// latest-releasing of its rows; spins on the others overlap it.
			var gate sim.Micros
			for _, row := range rows {
				if release[row] > gate {
					gate = release[row]
				}
			}
			ctx := sim.NewCtx()
			// Spin until the predecessors holding the gating lock commit:
			// the schedule the contended Acquire loop charges.
			var waited sim.Micros
			for attempt := 0; waited < gate; attempt++ {
				ctx.Charge(costs.RPC + costs.CheckAndPut) // failed checkAndPut
				b := costs.LockBackoff(attempt)
				if b <= 0 {
					// Degenerate schedule (zero backoff): wait out the
					// holder directly instead of spinning forever.
					ctx.Charge(gate - waited)
					break
				}
				ctx.Charge(b)
				waited += b
			}
			// Execute uncontended through the full production path: the
			// WAL-logged transaction layer, one transaction, ops statements.
			hold := sim.NewCtx()
			stmts := make([]sqlparser.Statement, len(rows))
			paramsList := make([][]schema.Value, len(rows))
			for i, row := range rows {
				stmts[i] = contentionUpdate
				paramsList[i] = []schema.Value{fmt.Sprintf("r%d-w%d-s%d", r, w, i), row}
			}
			if err := sys.ExecTxn(hold, stmts, paramsList); err != nil {
				return ContentionCell{}, err
			}
			done := gate + hold.Elapsed()
			for _, row := range rows {
				release[row] = done
			}
			ctx.Join(hold)
			samples = append(samples, ctx.Elapsed())
		}
	}
	return ContentionCell{Txns: len(samples), Mean: Summarize(samples)}, nil
}

// runOptimisticCell drives an MVCC or OCC system in deterministic waves:
// all of a round's transactions begin and buffer their ops updates before
// any commits, so every same-row pair overlaps; the first commit wins and
// the rest abort at conflict detection and re-run solo — re-executing
// every statement, which is what makes long transactions expensive to lose.
func runOptimisticCell(sys *synergy.System, mode synergy.ConcurrencyMode, hotRows, workers, rounds, ops int, seed int64, costs *sim.Costs) (ContentionCell, error) {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]sim.Micros, 0, workers*rounds)
	var conflicts, retries int64
	const maxRetries = 100

	layer, err := calibrateTxnLayer(sys, mode)
	if err != nil {
		return ContentionCell{}, err
	}

	execAll := func(ctx *sim.Ctx, tx *synergy.Tx, r, w int, rows []int64) error {
		for i, row := range rows {
			if err := tx.Exec(ctx, contentionUpdate,
				[]schema.Value{fmt.Sprintf("r%d-w%d-s%d", r, w, i), row}); err != nil {
				return err
			}
		}
		return nil
	}

	for r := 0; r < rounds; r++ {
		ctxs := make([]*sim.Ctx, workers)
		txs := make([]*synergy.Tx, workers)
		rows := make([][]int64, workers)
		for w := 0; w < workers; w++ {
			rows[w] = drawRows(rng, hotRows, ops)
			ctxs[w] = sim.NewCtx()
			ctxs[w].Charge(layer) // once per transaction; internal retries re-log nothing
			txs[w] = sys.BeginTx(ctxs[w])
			if err := execAll(ctxs[w], txs[w], r, w, rows[w]); err != nil {
				return ContentionCell{}, err
			}
		}
		for w := 0; w < workers; w++ {
			err := txs[w].Commit(ctxs[w])
			for attempt := 0; err != nil; attempt++ {
				if !isConflict(err) || attempt >= maxRetries {
					return ContentionCell{}, err
				}
				// Conflict loser: back off on the shared capped
				// exponential schedule and re-run the whole transaction —
				// every statement — alone on the same request context,
				// exactly like the synergy transaction layer's
				// bounded-backoff retry.
				conflicts++
				retries++
				ctxs[w].CountOCCRetry()
				ctxs[w].Charge(costs.LockBackoff(attempt))
				tx := sys.BeginTx(ctxs[w])
				if err = execAll(ctxs[w], tx, r, w, rows[w]); err == nil {
					err = tx.Commit(ctxs[w])
				} else if isConflict(err) {
					// A statement-level conflict (MVCC write-write) still
					// needs the buffered work discarded before re-running.
					_ = tx.Abort(ctxs[w])
				}
			}
			samples = append(samples, ctxs[w].Elapsed())
		}
	}
	return ContentionCell{
		Txns: len(samples), Mean: Summarize(samples),
		Conflicts: conflicts, Retries: retries,
	}, nil
}

// calibrateTxnLayer measures the transaction layer's per-transaction
// overhead for the wave harness to charge. OCC production writes route
// through the WAL-logged transaction layer, which the harness bypasses to
// interleave transactions: one uncontended update through the full path
// minus one through the transaction API isolates the layer hop plus the WAL
// statement/outcome appends, so the cells compare concurrency mechanisms,
// not logging. MVCC runs client-side with no transaction layer, as in the
// paper's systems, so its calibration delta is ~0 by construction.
func calibrateTxnLayer(sys *synergy.System, mode synergy.ConcurrencyMode) (sim.Micros, error) {
	if mode != synergy.OCC {
		return 0, nil
	}
	full := sim.NewCtx()
	if err := sys.Exec(full, contentionUpdate, []schema.Value{"calibrate", int64(1)}); err != nil {
		return 0, err
	}
	direct := sim.NewCtx()
	tx := sys.BeginTx(direct)
	if err := tx.Exec(direct, contentionUpdate, []schema.Value{"calibrate", int64(1)}); err != nil {
		return 0, err
	}
	if err := tx.Commit(direct); err != nil {
		return 0, err
	}
	if d := full.Elapsed() - direct.Elapsed(); d > 0 {
		return d, nil
	}
	return 0, nil
}

// isConflict matches both optimistic mechanisms' conflict sentinels.
func isConflict(err error) bool {
	return errors.Is(err, occ.ErrConflict) || errors.Is(err, mvcc.ErrConflict)
}

// RenderContention formats the sweep as a Figure-13-style grid: the
// mechanisms matrix made quantitative along a contention axis.
func RenderContention(r *ContentionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Contention sweep: %d rounds x %d overlapping transactions x %d root updates each, solo retries (ms/txn; abort%% = conflicts per commit attempt)\n",
		r.Rounds, r.Workers, r.Ops)
	fmt.Fprintf(&b, "%-10s", "hot rows")
	for _, m := range ContentionModes {
		fmt.Fprintf(&b, " %30s", m.Name)
	}
	b.WriteByte('\n')
	for _, hr := range r.HotRows {
		fmt.Fprintf(&b, "%-10d", hr)
		for _, m := range ContentionModes {
			c := r.Cells[hr][m.Name]
			cell := fmt.Sprintf("%s (%.0f%%, %d retries)", c.Mean, 100*c.AbortRate(), c.Retries)
			fmt.Fprintf(&b, " %30s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
