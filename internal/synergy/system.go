// Package synergy assembles the full Synergy system of §IV and §VIII: the
// HBase layer (store + distributed FS + coordination), the Phoenix-style SQL
// layer with the selected materialized views and view-indexes registered,
// the hierarchical lock manager, and the transaction layer (master + slaves
// with write-ahead logging) that executes the auto-generated write plans.
//
// Clients reach a System through a Session (System.NewSession): Begin,
// Prepare, Open, Query, QueryStream, Exec, Commit, Rollback — one type,
// identical in every concurrency mode and with or without views. System.Query,
// QueryStream, Exec and ExecTxn are one-shot conveniences over the same paths.
//
// A SELECT is compiled once and run per execution. Prepare does what no
// parameter changes — the view rewrite (rewriteFor: the marking procedure and
// the rebuilt statement), the async views the rewrite reads, and phoenix's
// plan of it (Engine.Compile) — and Open does the rest under the session's
// transaction and freshness contract. Query and QueryStream are Prepare then
// Open, so a one-shot read and a prepared one run the same code and are
// charged alike; planning charges nothing.
//
// Population (§IX-D1: LoadBase per table, then BuildViews) works on encoded
// rows from end to end. A row is its attribute cells in qualifier order — what
// phoenix.RowToCells makes of a generated row and what a store scan returns —
// and it is joined, keyed (phoenix.AppendKeyOfCells) and bulk-loaded in that
// form: a view row is the qualifier-ordered merge of its base rows' cells, the
// child's where both carry a qualifier, marker cells left out, value bytes
// shared with the base files. BuildViews prepares views (scan, join, keys,
// sort) on up to GOMAXPROCS goroutines and installs them from one, in
// Design.Views order and at most GOMAXPROCS views ahead: everything with an
// order to it — load stamps, region splits, the round-robin that places a
// split's daughter — happens at install, so the store comes out the same at
// any width. A freshly loaded region is compact already, so the major
// compaction that ends the procedure rewrites only what split.
//
// The write path (write.go: executeWriteBody and the §VII maintenance
// procedures) is one pass per statement: the base write, then maintain over
// every view the plan names — an update locates the rows of every view (one
// multi-get per maintenance-index probe, the views' locates overlapping) and
// runs the §VIII-B mark, update and un-mark barriers once for all of them —
// and each row is read once, the base row under the root lock. The changefeed
// applier runs the same maintain with a delta's one action.
//
// The write path keeps the population's row model. A statement is bound once
// into its table, row key and cells (phoenix.Write) and the base write and
// every view's maintenance share them; point reads return stored cells
// (phoenix.GetCells);
// a view tuple is built with the merge population uses (phoenix.MergeCells),
// an updated row is the located cells under the assignment's, and every key —
// view key, old and new index key, mark reference, the root key a lock chain
// resolves to — comes from cells (phoenix.AppendKeyOfCells). A NULL
// assignment is a column tombstone on every row and covered index entry that
// carries the column. TestMaintenanceMatchesPopulation holds what maintenance
// leaves to what BuildViews builds from the same base tables.
package synergy

import (
	"sync"

	"synergy/internal/changefeed"
	"synergy/internal/core"
	"synergy/internal/hbase"
	"synergy/internal/mvcc"
	"synergy/internal/occ"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sdfs"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// txnSlaves is the number of transaction-layer slaves a deployment starts.
const txnSlaves = 2

// IndexSpec names a base-table covered index supplied with the input schema
// (§VI-C: "we assume that the input schema has necessary base table
// indexes").
type IndexSpec struct {
	Table string
	Name  string
	On    []string
}

// ConcurrencyMode selects the concurrency control mechanism (Figure 13).
type ConcurrencyMode int

const (
	// Hierarchical is Synergy's single-lock-per-transaction control
	// (§VIII).
	Hierarchical ConcurrencyMode = iota
	// MVCC replaces the Synergy transaction layer with the Tephra-like
	// snapshot transaction server, as the MVCC-A, MVCC-UA and Baseline
	// systems do (§IX-D2).
	MVCC
	// OCC keeps the Synergy transaction layer (WAL-logged slaves) but
	// replaces the hierarchical locks with backward-validation optimistic
	// concurrency control (Larson et al.), whose conflicts ExecuteTxn
	// retries: the third column of the contention comparison.
	OCC
)

// MaintenanceMode selects how a materialized view is kept up to date with
// its base tables.
type MaintenanceMode int

const (
	// SyncMaintenance is the paper's §VIII-B protocol: the writing
	// statement maintains every view before it returns.
	SyncMaintenance MaintenanceMode = iota
	// AsyncMaintenance takes all view upkeep off the critical path: the
	// commit publishes deltas to the changefeed and background appliers
	// replay the maintenance procedures; reads may observe staleness. A
	// view's inserts, updates and deletes share one FIFO lane, so the drained
	// view is the one synchronous maintenance builds.
	AsyncMaintenance
)

// ViewReadMode selects what a read does when it touches an asynchronously
// maintained view.
type ViewReadMode int

const (
	// ReadStale accepts whatever the view holds, recording the observed
	// staleness (lag behind the reader's snapshot) in sim.Stats.
	ReadStale ViewReadMode = iota
	// ReadWatermark blocks before the snapshot is taken until every async
	// view the query touches has applied all deltas up to the read's
	// arrival point, charging the reader the wait.
	ReadWatermark
)

// Config parameterizes system construction.
type Config struct {
	// Costs overrides the latency calibration (nil = defaults).
	Costs *sim.Costs
	// BaseIndexes lists the input schema's base-table indexes.
	BaseIndexes []IndexSpec
	// MaxVersions for created tables (default 1; MVCC deployments use
	// more).
	MaxVersions int
	// DisableViews deploys only the baseline transformation (the Baseline
	// system).
	DisableViews bool
	// SplitThreshold overrides region split size (0 = store default).
	SplitThreshold int
	// Concurrency selects hierarchical locking (Synergy), MVCC
	// (Phoenix-Tephra style) or OCC (backward validation); New reads it once,
	// to pick the mechanism every transaction asks (txnControl).
	Concurrency ConcurrencyMode
	// SequentialWrites makes every transaction's mutator flush at one
	// pending mutation instead of at its barriers: each mutation of the
	// write path is its own RPC and WAL sync, which is what the paper's
	// testbed client did and what §IX's write figures measure — the figure
	// harness (internal/bench) sets it. That client also reads one row per
	// RPC (its view's GetMany is a Get per key) and maintains one view at a
	// time (an update's locates do not overlap). It is the write pipeline's
	// one option, a flush threshold on the one path (BeginTx), which OCC
	// ignores (txnControl.flushesEarly): nothing of an optimistic transaction
	// may reach the store before validation passes.
	SequentialWrites bool
	// Maintenance is the view-maintenance mode of every view
	// (SyncMaintenance, the paper's protocol, by default).
	Maintenance MaintenanceMode
	// AsyncReads selects the read behavior against async-maintained views
	// (default ReadStale).
	AsyncReads ViewReadMode
	// AsyncQueueCap bounds each view's changefeed lane; a full lane blocks
	// the committing writer (default 1024).
	AsyncQueueCap int
}

// System is a deployed Synergy instance.
type System struct {
	FS      *sdfs.FS
	Store   *hbase.HCluster
	Catalog *phoenix.Catalog
	Engine  *phoenix.Engine
	Design  *core.Design
	Locks   *LockManager
	Txn     *TxnLayer
	// MVCCServer is the transaction server when Concurrency == MVCC.
	MVCCServer *mvcc.Server
	// OCC is the commit-time validation service when Concurrency == OCC.
	OCC *occ.Validator
	// Feed is the asynchronous view-maintenance changefeed; nil when every
	// view is synchronously maintained.
	Feed *changefeed.Feed

	// cc is the concurrency control mechanism, chosen once by New.
	cc txnControl
	// postBegin is a test-only fault-injection hook (like the slave's
	// kill-before-exec): when set, it runs after each ExecuteTxn attempt
	// begins, so tests can commit a conflicting write inside the validation
	// window deterministically.
	postBegin func(tx *Tx)
	// afterPhase is a test-only hook of the same kind: when set, a marked
	// update calls it after each of its three barriers (phaseMarked,
	// phaseUpdated, phaseUnmarked), so tests can read the store between
	// §VIII-B phases or fail the statement there.
	afterPhase func(phase int) error

	// scratchMu guards spare, the free list of write units' storage
	// (txScratch): at most maxSpareScratch of them, each reset.
	scratchMu sync.Mutex
	spare     []*txScratch

	cfg Config
}

// New builds and deploys a system for the schema, roots and workload: it
// runs the design pipeline (Figure 3), registers base tables, views and
// indexes, creates the lock tables and starts the transaction layer.
func New(sch *schema.Schema, roots []string, workloadSQL []string, cfg Config) (*System, error) {
	if cfg.Costs == nil {
		cfg.Costs = sim.DefaultCosts()
	}
	if cfg.MaxVersions <= 0 {
		cfg.MaxVersions = 1
	}

	w, err := core.ParseWorkload(workloadSQL)
	if err != nil {
		return nil, err
	}
	design, err := core.BuildDesign(sch, roots, w)
	if err != nil {
		return nil, err
	}

	fs := sdfs.NewFS(cfg.Costs, sdfs.Slaves(), 3)
	store := hbase.NewHCluster(cfg.Costs, fs)
	cat := phoenix.NewCatalog(store)

	sys := &System{
		FS: fs, Store: store, Catalog: cat, Design: design, cfg: cfg,
	}

	spec := hbase.TableSpec{MaxVersions: cfg.MaxVersions, SplitThreshold: cfg.SplitThreshold}

	// Baseline transformation (§II-D): every relation and base index
	// becomes a NoSQL table.
	for _, r := range sch.Relations() {
		if _, err := cat.RegisterRelation(r, spec); err != nil {
			return nil, err
		}
	}
	for _, ix := range cfg.BaseIndexes {
		if err := cat.RegisterIndex(ix.Table, phoenix.IndexInfo{Name: ix.Name, On: ix.On}, spec); err != nil {
			return nil, err
		}
	}

	if !cfg.DisableViews {
		for _, v := range design.Views {
			if _, err := cat.RegisterView(v.Name(), v.Cols, v.Key, v.Relations, spec); err != nil {
				return nil, err
			}
		}
		for _, ix := range design.ViewIndexes {
			// Query-driven view-indexes are covered (§VI-C);
			// maintenance indexes only locate view rows (§VII-C) and
			// store just the keys.
			info := phoenix.IndexInfo{Name: ix.Name(), On: ix.On, KeyOnly: ix.Maintenance}
			if err := cat.RegisterIndex(ix.View.Name(), info, spec); err != nil {
				return nil, err
			}
		}
	}

	sys.Locks = NewLockManager(store)
	if err := sys.Locks.CreateLockTables(roots); err != nil {
		return nil, err
	}
	// The engine's warm client, which every transaction's mutator runs on,
	// knows the lock tables too: a transaction frees its locks through it.
	sys.Engine = phoenix.NewEngine(cat)
	if !cfg.DisableViews && cfg.Maintenance != SyncMaintenance {
		sys.Feed = changefeed.New(changefeed.Config{QueueCap: cfg.AsyncQueueCap, Costs: cfg.Costs})
	}
	// Hierarchical and OCC both route writes through the WAL-logged
	// transaction layer: an OCC commit is durable exactly like a locked one
	// (statements logged under one txid, the outcome as a commit or abort
	// record), only the concurrency mechanism differs. The MVCC transaction
	// server and the validator share the store's timestamp oracle, so
	// snapshots order consistently against every cell stamp, bulk-loaded
	// ones included (a fresh transaction must see the loaded database).
	switch cfg.Concurrency {
	case MVCC:
		sys.MVCCServer = mvcc.NewServerWithOracle(cfg.Costs, store.NextTS)
		sys.cc = &mvccControl{srv: sys.MVCCServer}
	case OCC:
		sys.Txn = NewTxnLayer(sys, txnSlaves)
		sys.OCC = occ.NewValidatorWithOracle(cfg.Costs, store.NextTS)
		sys.cc = &occControl{v: sys.OCC, gate: new(sync.RWMutex)}
	default:
		sys.Txn = NewTxnLayer(sys, txnSlaves)
		sys.cc = lockControl{}
	}
	return sys, nil
}

func (sys *System) isRoot(table string) bool {
	for _, r := range sys.Design.Roots {
		if r == table {
			return true
		}
	}
	return false
}

// rewriteFor returns the view-based rewrite of a query (identity when views
// are disabled or none apply): the marking procedure selects the query's
// views (§VI-A) and the query is rebuilt over the ones the design
// materialized (§VI-B). It is the design's own procedure run on the
// statement as it arrives — the design's Rewritten table, keyed by the ASTs
// it parsed, renders the same for every workload query. A rewritten SELECT *
// is spelled out over the original FROM list (Rewritten.ExpandStar), so it
// returns the columns, names and order Baseline does.
func (sys *System) rewriteFor(sel *sqlparser.SelectStmt) *sqlparser.SelectStmt {
	if sys.cfg.DisableViews {
		return sel
	}
	views := core.SelectViewsForQuery(sys.Design.Schema, sys.Design.Candidates.Trees, sel)
	var mat []*core.View
	for _, v := range views {
		if fv := sys.Design.ViewByName(v.Name()); fv != nil {
			mat = append(mat, fv)
		}
	}
	rw := core.RewriteQuery(sel, mat)
	rw.ExpandStar(sys.Design.Schema)
	return rw.Stmt
}

// Prepared is a SELECT compiled for one System: its view-based rewrite, the
// asynchronously maintained views the rewrite reads, and phoenix's plan of
// it — all a statement's work that no parameter value changes. Session.Prepare
// builds one and Session.Open runs it; a one-shot query is the two in a row.
// It is immutable and holds no transaction state, so it outlives any
// transaction and may be opened by any session on the System.
type Prepared struct {
	sys   *System
	stmt  *sqlparser.SelectStmt
	plan  *phoenix.Plan
	async []string
}

func (sys *System) prepare(sel *sqlparser.SelectStmt) (*Prepared, error) {
	stmt := sys.rewriteFor(sel)
	plan, err := sys.Engine.Compile(stmt)
	if err != nil {
		return nil, err
	}
	return &Prepared{sys: sys, stmt: stmt, plan: plan, async: sys.asyncViewsIn(stmt)}, nil
}

// Stmt is the statement the plan runs: the view-based rewrite of the one
// prepared (itself when no view applies or views are off).
func (p *Prepared) Stmt() *sqlparser.SelectStmt { return p.stmt }

// Columns lists the statement's result column names and Types their types —
// the shape of every result it returns. Do not modify them.
func (p *Prepared) Columns() []string       { return p.plan.Columns() }
func (p *Prepared) Types() []schema.ColType { return p.plan.Types() }

// Concurrency reports the deployment's concurrency control mechanism. The
// mode is baked in at construction (it decides which transaction tier
// exists), so a serving layer fronting several modes holds one System per
// mode and routes by this.
func (sys *System) Concurrency() ConcurrencyMode { return sys.cfg.Concurrency }

// asyncViewsIn lists the asynchronously maintained views a (rewritten)
// query reads, including inside derived tables.
func (sys *System) asyncViewsIn(stmt *sqlparser.SelectStmt) []string {
	if sys.Feed == nil {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	var walk func(s *sqlparser.SelectStmt)
	walk = func(s *sqlparser.SelectStmt) {
		for _, ref := range s.From {
			if ref.Sub != nil {
				walk(ref.Sub)
				continue
			}
			if seen[ref.Name] {
				continue
			}
			seen[ref.Name] = true
			info, err := sys.Catalog.Table(ref.Name)
			if err != nil || !info.IsView {
				continue
			}
			out = append(out, ref.Name)
		}
	}
	walk(stmt)
	return out
}

// countStale records, once per async view a ReadStale statement reads, how far
// the view lags behind the reader's snapshot readTS.
func (sys *System) countStale(ctx *sim.Ctx, p *Prepared, readTS int64, reads ViewReadMode) {
	if reads != ReadStale {
		return
	}
	for _, v := range p.async {
		if lag := sys.Feed.StaleBehind(v, readTS); lag > 0 {
			ctx.CountStaleRead(lag)
		}
	}
}

// Query executes a one-shot read at the deployment's configured freshness
// contract (a Session carries its own). Workload queries run their
// view-based rewrite; reads go directly to the HBase layer (Figure 7), as
// the concurrency mechanism reads (txnControl.read).
//
// Asynchronously maintained views add a freshness gate. In ReadWatermark
// mode the query waits — before its snapshot is taken, so the snapshot
// includes the applied deltas under every concurrency mode — until each
// async view it touches covers the read's arrival point. In ReadStale mode
// the query runs immediately and records the observed lag per view.
func (sys *System) Query(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (*phoenix.ResultSet, error) {
	return sys.NewSession().Query(ctx, sel, params)
}

// QueryStream is Query returning a cursor instead of a materialized result:
// non-blocking single-table shapes stream directly off the region scanner,
// so peak memory is one scan chunk regardless of result size. The caller
// must Close the cursor and check its error.
func (sys *System) QueryStream(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (phoenix.RowCursor, error) {
	return sys.NewSession().QueryStream(ctx, sel, params)
}

// Exec executes a write statement as a transaction of its own (ExecTxn).
func (sys *System) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	args, err := schema.ArgsOf(params)
	if err != nil {
		return err
	}
	return sys.execTxn(ctx, []*PreparedWrite{sys.prepareWrite(stmt)}, [][]schema.Arg{args}, nil)
}

// ExecTxn executes stmts as one multi-statement write transaction: all
// statements share one transaction-scoped mutator, reads see the
// transaction's own buffered writes, and commit flushes + WAL-syncs once.
// A deployment with a transaction layer (hierarchical locking, OCC) routes
// the transaction through it, WAL-logged and recoverable; an MVCC deployment
// has none and runs it here, as the paper's MVCC systems do.
func (sys *System) ExecTxn(ctx *sim.Ctx, stmts []sqlparser.Statement, paramsList [][]schema.Value) error {
	args, err := argLists(paramsList)
	if err != nil {
		return err
	}
	return sys.execTxn(ctx, sys.prepareWrites(stmts), args, nil)
}

// argLists unboxes a transaction's parameter lists, one list each, into one
// block.
func argLists(paramsList [][]schema.Value) ([][]schema.Arg, error) {
	n := 0
	for _, params := range paramsList {
		n += len(params)
	}
	block, out := make([]schema.Arg, 0, n), make([][]schema.Arg, len(paramsList))
	for i, params := range paramsList {
		at := len(block)
		var err error
		if block, err = schema.AppendArgs(block, params); err != nil {
			return nil, err
		}
		out[i] = block[at:len(block):len(block)]
	}
	return out, nil
}

// execTxn is ExecTxn for prepared statements, cutting their transient keys
// from strs (nil allocates them).
func (sys *System) execTxn(ctx *sim.Ctx, writes []*PreparedWrite, paramsList [][]schema.Arg, strs *phoenix.StringBlock) error {
	if sys.Txn == nil {
		_, err := sys.executeTxn(ctx, writes, paramsList, loggedTxn{}, strs)
		return err
	}
	s := sys.Txn.pickSlave()
	if s == nil {
		return ErrNoSlaves
	}
	return s.executeTxn(ctx, writes, paramsList, strs)
}

// DatabaseBytes reports the total storage footprint (tables + indexes +
// views + lock tables), the quantity Table III compares.
func (sys *System) DatabaseBytes() int64 {
	return sys.Store.TotalBytes()
}
