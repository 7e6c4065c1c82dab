package bench

import (
	"fmt"
	"sort"

	"synergy/internal/core"
	"synergy/internal/hbase"
	"synergy/internal/newsql"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
	"synergy/internal/tuning"
)

// EvalSystem is one column of Figures 12/14 and Tables II/III.
type EvalSystem interface {
	Name() string
	// Run executes one workload statement, charging its response time to
	// ctx.
	Run(ctx *sim.Ctx, st tpcw.Stmt, params []schema.Value) error
	// Supported reports whether the system can execute the statement
	// (VoltDB cannot run Q3/Q7/Q9/Q10).
	Supported(st tpcw.Stmt) bool
	// DatabaseBytes reports the storage footprint (Table III).
	DatabaseBytes() int64
}

// parsedCache pre-parses statement SQL once.
type parsedCache map[string]sqlparser.Statement

func (c parsedCache) get(st tpcw.Stmt) sqlparser.Statement {
	if s, ok := c[st.ID]; ok {
		return s
	}
	s := sqlparser.MustParse(st.SQL)
	c[st.ID] = s
	return s
}

// synergySys wraps a synergy.System deployment (used for Synergy, MVCC-A and
// Baseline, which differ only in Config).
type synergySys struct {
	name   string
	sys    *synergy.System
	parsed parsedCache
}

func (s *synergySys) Name() string { return s.name }

func (s *synergySys) Run(ctx *sim.Ctx, st tpcw.Stmt, params []schema.Value) error {
	stmt := s.parsed.get(st)
	if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
		_, err := s.sys.Query(ctx, sel, params)
		return err
	}
	return s.sys.Exec(ctx, stmt, params)
}

func (s *synergySys) Supported(tpcw.Stmt) bool { return true }
func (s *synergySys) DatabaseBytes() int64     { return s.sys.DatabaseBytes() }

// Design exposes the deployed Synergy design for reporting.
func (s *synergySys) Design() *core.Design { return s.sys.Design }

// System exposes the underlying deployment (examples and tests).
func (s *synergySys) System() *synergy.System { return s.sys }

// uaSys is MVCC-UA: the baseline deployment plus the tuning-advisor view
// (the bestseller aggregate) with special-cased Q10 routing and incremental
// maintenance.
type uaSys struct {
	base    *synergySys
	viewSQL *sqlparser.SelectStmt
	eng     *phoenix.Engine
	ua      *phoenix.TableInfo
}

// uaViewName is the materialized tuning-advisor view.
const uaViewName = "UA_BESTSELLER"

func (s *uaSys) Name() string { return "MVCC-UA" }

func (s *uaSys) Run(ctx *sim.Ctx, st tpcw.Stmt, params []schema.Value) error {
	if st.ID == "Q10" {
		// The advisor's view answers the bestseller query directly.
		_, err := s.base.sys.Query(ctx, s.viewSQL, params[:1])
		return err
	}
	if err := s.base.Run(ctx, st, params); err != nil {
		return err
	}
	// Incremental view maintenance on the writes that affect it.
	switch st.ID {
	case "W3": // insert Order_line: qty accrues to the item's row
		iID := params[2].(int64)
		qty := params[3].(int64)
		row, found, err := s.eng.GetRow(ctx, s.ua, hbase.ReadOpts{}, iID)
		if err != nil || !found {
			return err
		}
		row["qty"] = row["qty"].(int64) + qty
		// One RPC per mutation, like every other figure-harness write.
		return s.eng.PutRow(ctx, s.ua, row, phoenix.WriteOpts{Mutator: s.eng.Client().NewBufferedMutator(1)})
	}
	return nil
}

func (s *uaSys) Supported(tpcw.Stmt) bool { return true }
func (s *uaSys) DatabaseBytes() int64     { return s.base.DatabaseBytes() }

// voltSys wraps the VoltDB-like fleet.
type voltSys struct {
	fleet  *newsql.Fleet
	parsed parsedCache
	data   *tpcw.Data
}

func (s *voltSys) Name() string { return "VoltDB" }

func (s *voltSys) Run(ctx *sim.Ctx, st tpcw.Stmt, params []schema.Value) error {
	stmt := s.parsed.get(st)
	if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
		_, err := s.fleet.Query(ctx, sel, params)
		return err
	}
	return s.fleet.Exec(ctx, stmt, params)
}

func (s *voltSys) Supported(st tpcw.Stmt) bool {
	stmt := s.parsed.get(st)
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return true
	}
	params := st.Params(s.data, sim.NewRNG(1))
	return s.fleet.Supported(sel, params)
}

func (s *voltSys) DatabaseBytes() int64 { return s.fleet.DatabaseBytes() }

// SystemSet is the full evaluation deployment over one generated database.
type SystemSet struct {
	Data     *tpcw.Data
	Synergy  *synergySys
	MVCCA    *synergySys
	MVCCUA   *uaSys
	Baseline *synergySys
	VoltDB   *voltSys
}

// All returns the systems in the paper's column order.
func (s *SystemSet) All() []EvalSystem {
	return []EvalSystem{s.VoltDB, s.Synergy, s.MVCCA, s.MVCCUA, s.Baseline}
}

// HBaseSystems returns the four HBase-backed systems (Table II excludes
// VoltDB).
func (s *SystemSet) HBaseSystems() []EvalSystem {
	return []EvalSystem{s.Synergy, s.MVCCA, s.MVCCUA, s.Baseline}
}

// BuildSystems generates the TPC-W database at numCust customers and deploys
// all five systems over it (§IX-D2).
func BuildSystems(numCust int, seed int64, costs *sim.Costs) (*SystemSet, error) {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	data := tpcw.Generate(numCust, seed)
	sch := tpcw.Schema
	set := &SystemSet{Data: data}

	mk := func(name string, cfg synergy.Config) (*synergySys, error) {
		cfg.Costs = costs
		cfg.BaseIndexes = tpcw.BaseIndexes()
		// The paper's testbed client issued one RPC per mutation and
		// committed per statement; the figure reproductions pin the write
		// pipeline's flush threshold at 1 so measured shapes match §IX. The
		// write-path benchmarks in internal/synergy hold the default — flush
		// at the transaction's barriers — against it.
		cfg.SequentialWrites = true
		if cfg.MaxVersions == 0 {
			cfg.MaxVersions = 1
		}
		sys, err := synergy.New(sch(), tpcw.Roots(), tpcw.WorkloadSQL(), cfg)
		if err != nil {
			return nil, err
		}
		for _, table := range data.TableNames() {
			if err := sys.LoadBase(table, data.Tables[table]); err != nil {
				return nil, fmt.Errorf("%s: loading %s: %w", name, table, err)
			}
		}
		if err := sys.BuildViews(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return &synergySys{name: name, sys: sys, parsed: parsedCache{}}, nil
	}

	var err error
	// Synergy: schema-aware views + hierarchical locking.
	if set.Synergy, err = mk("Synergy", synergy.Config{Concurrency: synergy.Hierarchical}); err != nil {
		return nil, err
	}
	// MVCC-A: Synergy's views, Tephra-style MVCC.
	if set.MVCCA, err = mk("MVCC-A", synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16}); err != nil {
		return nil, err
	}
	// Baseline: base tables only, MVCC.
	if set.Baseline, err = mk("Baseline", synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16, DisableViews: true}); err != nil {
		return nil, err
	}
	// MVCC-UA: base tables + the tuning advisor's view, MVCC.
	uaBase, err := mk("MVCC-UA", synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16, DisableViews: true})
	if err != nil {
		return nil, err
	}
	set.MVCCUA, err = buildUA(uaBase, data)
	if err != nil {
		return nil, err
	}

	// VoltDB: three partitioning schemes over packed in-memory tables.
	fleet := newsql.NewFleet(sch(), tpcw.PartitionSchemes(), 5, costs)
	for _, table := range data.TableNames() {
		if err := fleet.Load(table, data.Tables[table]); err != nil {
			return nil, fmt.Errorf("voltdb: loading %s: %w", table, err)
		}
	}
	set.VoltDB = &voltSys{fleet: fleet, parsed: parsedCache{}, data: data}
	return set, nil
}

// buildUA runs the tuning advisor over the workload and materializes its
// recommendation (the bestseller aggregate) on the baseline deployment. The
// view below is Q10's aggregate, so any other recommendation is an error.
func buildUA(base *synergySys, data *tpcw.Data) (*uaSys, error) {
	// Advisor pass: workload joins + database stats -> recommendations.
	queries := map[string]*sqlparser.SelectStmt{}
	for _, st := range tpcw.JoinQueries() {
		queries[st.ID] = sqlparser.MustParse(st.SQL).(*sqlparser.SelectStmt)
	}
	stats := data.Stats()
	recs := tuning.Recommend(tuning.Candidates(queries, stats), stats, 0)
	if len(recs) != 1 || recs[0].QueryName != "Q10" {
		return nil, fmt.Errorf("MVCC-UA materializes Q10's aggregate, but the tuning advisor recommends:\n%s", tuning.Describe(recs))
	}

	ua := &uaSys{base: base, eng: base.sys.Engine}

	// Materialize the bestseller aggregate: qty per item over the order
	// lines, with the filter column (i_subject) and displayed attributes.
	cols := []schema.Column{
		{Name: "i_id", Type: schema.TInt},
		{Name: "i_title", Type: schema.TString},
		{Name: "i_subject", Type: schema.TString},
		{Name: "a_fname", Type: schema.TString},
		{Name: "a_lname", Type: schema.TString},
		{Name: "qty", Type: schema.TInt},
	}
	info, err := base.sys.Catalog.RegisterView(uaViewName, cols, []string{"i_id"}, nil, hbase.TableSpec{MaxVersions: 16})
	if err != nil {
		return nil, err
	}
	if err := base.sys.Catalog.RegisterIndex(uaViewName, phoenix.IndexInfo{Name: "IX_UA_subject", On: []string{"i_subject"}}, hbase.TableSpec{MaxVersions: 16}); err != nil {
		return nil, err
	}
	ua.ua = info

	// Compute contents from the generated data (setup path).
	qty := map[int64]int64{}
	for _, ol := range data.Tables["Order_line"] {
		qty[ol["ol_i_id"].(int64)] += ol["ol_qty"].(int64)
	}
	authors := map[int64]schema.Row{}
	for _, a := range data.Tables["Author"] {
		authors[a["a_id"].(int64)] = a
	}
	var rows []schema.Row
	for _, it := range data.Tables["Item"] {
		id := it["i_id"].(int64)
		q, sold := qty[id]
		if !sold {
			continue
		}
		a := authors[it["i_a_id"].(int64)]
		rows = append(rows, schema.Row{
			"i_id": id, "i_title": it["i_title"], "i_subject": it["i_subject"],
			"a_fname": a["a_fname"], "a_lname": a["a_lname"], "qty": q,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i]["i_id"].(int64) < rows[j]["i_id"].(int64) })
	ctx := sim.NewCtx()
	for _, r := range rows {
		if err := ua.eng.PutRow(ctx, info, r, phoenix.WriteOpts{}); err != nil {
			return nil, err
		}
	}
	base.sys.Store.MajorCompact(uaViewName)
	base.sys.Store.MajorCompact("IX_UA_subject")

	ua.viewSQL = sqlparser.MustParse(fmt.Sprintf(
		`SELECT i_id, i_title, a_fname, a_lname, qty FROM %s WHERE i_subject = ?
		 ORDER BY qty DESC LIMIT 50`, uaViewName)).(*sqlparser.SelectStmt)
	return ua, nil
}
