package bench

import (
	"fmt"

	"synergy/internal/core"
	"synergy/internal/newsql"
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

// synergySys wraps a synergy.System deployment (used for Synergy, MVCC-A,
// MVCC-UA and Baseline, which differ only in Config and workload).
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

// voltSys wraps the VoltDB-like engine.
type voltSys struct {
	eng    *newsql.Engine
	parsed parsedCache
}

func (s *voltSys) Name() string { return "VoltDB" }

func (s *voltSys) Run(ctx *sim.Ctx, st tpcw.Stmt, params []schema.Value) error {
	stmt := s.parsed.get(st)
	if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
		_, err := s.eng.Query(ctx, sel, params)
		return err
	}
	return s.eng.Exec(ctx, stmt, params)
}

func (s *voltSys) Supported(st tpcw.Stmt) bool {
	sel, ok := s.parsed.get(st).(*sqlparser.SelectStmt)
	return !ok || s.eng.Supported(sel)
}

func (s *voltSys) DatabaseBytes() int64 { return s.eng.DatabaseBytes() }

// SystemSet is the full evaluation deployment over one generated database.
type SystemSet struct {
	Data     *tpcw.Data
	Synergy  *synergySys
	MVCCA    *synergySys
	MVCCUA   *synergySys
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

	mk := func(name string, workloadSQL []string, cfg synergy.Config) (*synergySys, error) {
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
		sys, err := synergy.New(sch(), tpcw.Roots(), workloadSQL, cfg)
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
	if set.Synergy, err = mk("Synergy", tpcw.WorkloadSQL(), synergy.Config{Concurrency: synergy.Hierarchical}); err != nil {
		return nil, err
	}
	// MVCC-A: Synergy's views, Tephra-style MVCC.
	if set.MVCCA, err = mk("MVCC-A", tpcw.WorkloadSQL(), synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16}); err != nil {
		return nil, err
	}
	// Baseline: base tables only, MVCC.
	if set.Baseline, err = mk("Baseline", tpcw.WorkloadSQL(), synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16, DisableViews: true}); err != nil {
		return nil, err
	}
	// MVCC-UA: the views of the queries the tuning advisor picks, MVCC.
	uaSQL, err := advisorWorkload(data)
	if err != nil {
		return nil, err
	}
	if set.MVCCUA, err = mk("MVCC-UA", uaSQL, synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16}); err != nil {
		return nil, err
	}

	// VoltDB: three partitioning schemes routing one packed in-memory row
	// store.
	eng := newsql.New(sch(), tpcw.PartitionSchemes(), costs)
	for _, table := range data.TableNames() {
		if err := eng.Load(table, data.Tables[table]); err != nil {
			return nil, fmt.Errorf("voltdb: loading %s: %w", table, err)
		}
	}
	set.VoltDB = &voltSys{eng: eng, parsed: parsedCache{}}
	return set, nil
}

// advisorWorkload is MVCC-UA's design workload: the SQL of each join query
// the tuning advisor picks under its storage budget, plus every write. Design
// selection over it materializes the picked queries' join paths, and every
// write maintains them.
func advisorWorkload(data *tpcw.Data) ([]string, error) {
	queries := map[string]*sqlparser.SelectStmt{}
	for _, st := range tpcw.JoinQueries() {
		queries[st.ID] = sqlparser.MustParse(st.SQL).(*sqlparser.SelectStmt)
	}
	stats := data.Stats()
	recs := tuning.Recommend(tuning.Candidates(queries, stats), stats, 0)
	if len(recs) == 0 {
		return nil, fmt.Errorf("MVCC-UA: the tuning advisor recommends no view")
	}
	var sql []string
	for _, c := range recs {
		st, _ := tpcw.StatementByID(c.QueryName)
		sql = append(sql, st.SQL)
	}
	for _, st := range tpcw.WriteStatements() {
		sql = append(sql, st.SQL)
	}
	return sql, nil
}
