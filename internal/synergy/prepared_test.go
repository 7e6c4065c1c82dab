package synergy_test

import (
	"fmt"
	"sync"
	"testing"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// tpcwSystem deploys TPC-W at a small fixed scale, loaded and with its views
// built.
func tpcwSystem(tb testing.TB, data *tpcw.Data, cfg synergy.Config) *synergy.System {
	tb.Helper()
	cfg.BaseIndexes = tpcw.BaseIndexes()
	sys, err := synergy.New(tpcw.Schema(), tpcw.Roots(), tpcw.WorkloadSQL(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, table := range data.TableNames() {
		if err := sys.LoadBase(table, data.Tables[table]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sys.BuildViews(); err != nil {
		tb.Fatal(err)
	}
	return sys
}

func tpcwSelects() []tpcw.Stmt { return append(tpcw.JoinQueries(), tpcw.PointReads()...) }

func parseSelect(tb testing.TB, sql string) *sqlparser.SelectStmt {
	tb.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		tb.Fatal(err)
	}
	return sel
}

// drain reads a cursor to the end into rows, in order.
func drain(ctx *sim.Ctx, cur phoenix.RowCursor, err error) (*phoenix.ResultSet, error) {
	if err != nil {
		return nil, err
	}
	return phoenix.DrainCursor(ctx, cur)
}

// TestPreparedMatchesOneShot holds a statement compiled once to the same
// statement compiled per execution: each TPC-W SELECT is prepared once per
// concurrency mode and run for 50 parameter draws, between which W1–W13 keep
// changing the tables, the views and (under MVCC) the versions; every draw is
// run again as a one-shot query, and the rows, their order and every field of
// the request's sim.Stats must be the same. Nothing a parameter or the store
// decides may be frozen into the compiled form.
func TestPreparedMatchesOneShot(t *testing.T) {
	const draws = 50
	writes := tpcw.WriteStatements()
	for _, mode := range []synergy.ConcurrencyMode{synergy.Hierarchical, synergy.MVCC, synergy.OCC} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			data := tpcw.Generate(40, 7)
			cfg := synergy.Config{Concurrency: mode}
			if mode == synergy.MVCC {
				cfg.MaxVersions = 16
			}
			sys := tpcwSystem(t, data, cfg)
			sess := sys.NewSession()
			stmts := tpcwSelects()
			prepared := make([]*synergy.Prepared, len(stmts))
			for i, st := range stmts {
				p, err := sess.Prepare(parseSelect(t, st.SQL))
				if err != nil {
					t.Fatalf("%s: %v", st.ID, err)
				}
				prepared[i] = p
			}
			rng := sim.NewRNG(23)
			draw := map[string]*sim.RNG{} // one stream per statement
			for _, st := range append(stmts, writes...) {
				draw[st.ID] = rng.Derive(st.ID)
			}
			for d := 0; d < draws; d++ {
				for i, st := range stmts {
					params := st.Params(data, draw[st.ID])
					pctx, octx := sim.NewCtx(), sim.NewCtx()
					cur, err := sess.Open(pctx, prepared[i], params)
					got, err := drain(pctx, cur, err)
					if err != nil {
						t.Fatalf("draw %d, prepared %s %v: %v", d, st.ID, params, err)
					}
					want, err := sess.Query(octx, parseSelect(t, st.SQL), params)
					if err != nil {
						t.Fatalf("draw %d, one-shot %s %v: %v", d, st.ID, params, err)
					}
					if g, w := fmt.Sprint(got.Columns, got.Rows), fmt.Sprint(want.Columns, want.Rows); g != w {
						t.Fatalf("draw %d, %s %v:\nprepared %s\none-shot %s", d, st.ID, params, g, w)
					}
					if g, w := pctx.Snapshot(), octx.Snapshot(); g != w {
						t.Fatalf("draw %d, %s %v: prepared charged %+v, one-shot %+v", d, st.ID, params, g, w)
					}
					w := writes[(d*len(stmts)+i)%len(writes)]
					if err := sess.Exec(sim.NewCtx(), sqlparser.MustParse(w.SQL), w.Params(data, draw[w.ID])); err != nil {
						t.Fatalf("draw %d, %s: %v", d, w.ID, err)
					}
				}
			}
		})
	}
}

// TestPreparedSharedAcrossSessions: a prepared statement is immutable, so
// sessions on several goroutines may open it at once — each execution keeps
// its own parameter values, derived rows and access choices. Run it under
// -race.
func TestPreparedSharedAcrossSessions(t *testing.T) {
	data := tpcw.Generate(40, 7)
	sys := tpcwSystem(t, data, synergy.Config{})
	stmts := tpcwSelects()
	prepared := make([]*synergy.Prepared, len(stmts))
	params := make([][][]schema.Value, len(stmts))
	want := make([][]string, len(stmts))
	for i, st := range stmts {
		p, err := sys.NewSession().Prepare(parseSelect(t, st.SQL))
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = p
		rng := sim.NewRNG(5).Derive(st.ID)
		for d := 0; d < 4; d++ {
			ps := st.Params(data, rng)
			rs, err := sys.Query(sim.NewCtx(), parseSelect(t, st.SQL), ps)
			if err != nil {
				t.Fatal(err)
			}
			params[i], want[i] = append(params[i], ps), append(want[i], fmt.Sprint(rs.Rows))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := sys.NewSession()
			for round := 0; round < 3; round++ {
				for i := range stmts {
					d := (g + round + i) % len(params[i])
					ctx := sim.NewCtx()
					cur, err := sess.Open(ctx, prepared[i], params[i][d])
					rs, err := drain(ctx, cur, err)
					if err != nil {
						t.Error(err)
						return
					}
					if got := fmt.Sprint(rs.Rows); got != want[i][d] {
						t.Errorf("goroutine %d, %s %v: %s, want %s", g, stmts[i].ID, params[i][d], got, want[i][d])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRewriteMatchesDesign: the rewrite a statement is prepared with is the
// one the design computed for the same workload query — for every SELECT of
// TPC-W and of the Company fixture, views on. The statement is parsed again
// from its source, so nothing about it is the design's AST.
func TestRewriteMatchesDesign(t *testing.T) {
	for name, deploy := range map[string]func() (*synergy.System, error){
		"tpcw": func() (*synergy.System, error) {
			return synergy.New(tpcw.Schema(), tpcw.Roots(), tpcw.WorkloadSQL(), synergy.Config{BaseIndexes: tpcw.BaseIndexes()})
		},
		"company": func() (*synergy.System, error) {
			return synergy.New(schema.Company(), schema.CompanyRoots(), schema.CompanyWorkload(), synergy.Config{})
		},
	} {
		sys, err := deploy()
		if err != nil {
			t.Fatal(err)
		}
		w := sys.Design.Workload
		selects := 0
		for i, stmt := range w.Statements {
			sel, ok := stmt.(*sqlparser.SelectStmt)
			if !ok {
				continue
			}
			selects++
			p, err := sys.NewSession().Prepare(parseSelect(t, w.Sources[i]))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.Stmt().String(), sys.Design.Rewritten[sel].Stmt.String(); got != want {
				t.Errorf("%s %q:\n prepared     %s\n the design's %s", name, w.Sources[i], got, want)
			}
		}
		if selects == 0 {
			t.Fatalf("%s: no SELECT in the workload", name)
		}
	}
}

// benchQueries are what the prepared-statement benchmarks and the allocation
// bound run: a point join (Q6), a join under ORDER BY … LIMIT (Q2) and an
// aggregate over a derived table (Q10).
var benchQueries = []string{"Q6", "Q2", "Q10"}

var bench struct {
	once sync.Once
	sys  *synergy.System
	data *tpcw.Data
}

func benchSystem(tb testing.TB) (*synergy.System, *tpcw.Data) {
	bench.once.Do(func() {
		bench.data = tpcw.Generate(40, 7)
		bench.sys = tpcwSystem(tb, bench.data, synergy.Config{})
	})
	return bench.sys, bench.data
}

// runQuery runs one of benchQueries through sess: opening the prepared p, or
// (p == nil) as a one-shot query that compiles it again.
func runQuery(tb testing.TB, sess *synergy.Session, p *synergy.Prepared, sel *sqlparser.SelectStmt, params []schema.Value) sim.Micros {
	ctx := sim.NewCtx()
	var cur phoenix.RowCursor
	var err error
	if p != nil {
		cur, err = sess.Open(ctx, p, params)
	} else {
		cur, err = sess.QueryStream(ctx, sel, params)
	}
	if err != nil {
		tb.Fatal(err)
	}
	for cur.Next(ctx) {
	}
	if err := cur.Close(ctx); err != nil {
		tb.Fatal(err)
	}
	return ctx.Elapsed()
}

// BenchmarkPreparedQuery and BenchmarkOneShotQuery run Q6, Q2 and Q10 through
// a Session, compiled once and per execution: allocs/op is what a
// COM_STMT_EXECUTE and a COM_QUERY cost the engine, and sim-ms/op must be
// the same for both.
func BenchmarkPreparedQuery(b *testing.B) { benchmarkQuery(b, true) }
func BenchmarkOneShotQuery(b *testing.B)  { benchmarkQuery(b, false) }

func benchmarkQuery(b *testing.B, prepared bool) {
	sys, data := benchSystem(b)
	for _, id := range benchQueries {
		b.Run(id, func(b *testing.B) {
			st, _ := tpcw.StatementByID(id)
			sel := parseSelect(b, st.SQL)
			params := st.Params(data, sim.NewRNG(11).Derive(id))
			sess := sys.NewSession()
			var p *synergy.Prepared
			if prepared {
				var err error
				if p, err = sess.Prepare(sel); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var simTotal sim.Micros
			for i := 0; i < b.N; i++ {
				simTotal += runQuery(b, sess, p, sel, params)
			}
			b.ReportMetric(simTotal.Milliseconds()/float64(b.N), "sim-ms/op")
		})
	}
}
