package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"synergy/internal/core"
	"synergy/internal/phoenix"
	"synergy/internal/server"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

// The traced pass peels the stack one layer at a time, from the benchmark's
// side of each layer's exported API — spans inside the engine are a later
// change. One goroutine replays statements from the same generator against
// the live deployment, entering at three depths:
//
//	wire     server.Client over the socket, exactly as the measured phase
//	session  server.NewSystemSession(sys) with its own sim.Ctx, statements
//	         already parsed: everything below the wire server
//	engine   reads only: the view rewrite, then sys.Engine.QueryStreamOpts
//	         with the mode's read options: everything below synergy's
//	         session/concurrency layer
//
// A read is idempotent, so each one runs at all three depths (the depth that
// goes first rotates) and a layer's self time is the median of the paired
// differences between adjacent depths. Write units cannot be replayed; they
// alternate between wire and session and their self time is the difference
// of the per-kind medians.

// span is one timed call into a layer. Spans of one statement or write unit
// share a trace id; parent is the span id of the enclosing call, 0 at the
// top.
type span struct {
	TraceID int64      `json:"trace_id"`
	ID      int64      `json:"span_id"`
	Parent  int64      `json:"parent"`
	Name    string     `json:"name"`
	Class   string     `json:"class,omitempty"`
	Stmt    string     `json:"stmt,omitempty"`
	StartNS int64      `json:"start_ns"`
	EndNS   int64      `json:"end_ns"`
	Rows    int        `json:"rows"`
	Sim     *sim.Stats `json:"sim,omitempty"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	epoch time.Time
	spans []span
}

// add records a finished span and returns its id.
func (t *tracer) add(s span, start, end time.Time) int64 {
	s.ID = int64(len(t.spans) + 1)
	s.StartNS = start.Sub(t.epoch).Nanoseconds()
	s.EndNS = end.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, s)
	return s.ID
}

// open reserves a parent span so children can name it; close fills it in.
func (t *tracer) open(s span, start time.Time) int64 { return t.add(s, start, start) }

func (t *tracer) close(id int64, end time.Time, rows int, st *sim.Stats) {
	s := &t.spans[id-1]
	s.EndNS, s.Rows, s.Sim = end.Sub(t.epoch).Nanoseconds(), rows, st
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// depths holds one read's wall time at each depth, microseconds.
type depths struct{ wire, session, engine float64 }

// peel is the state of one traced pass.
type peel struct {
	sys    *synergy.System
	tr     *tracer
	cl     *client
	sess   *server.SystemSession
	sctx   *sim.Ctx
	parsed []sqlparser.Statement
	trace  int64

	reads    map[string][]depths // by class
	viewHits int
	// session-depth read counters
	sessReads, restarts int64
	simReadMS, simTTFR  []float64
	// engine-depth read counters
	engReads, engRPCs, engScanned, engReturned int64
	engScanUS                                  float64 // scan class only
	engScanRows                                int64
	// write units: wall by depth and unit kind, and session-depth counters
	wireWrites, sessWrites map[string][]float64
	sessUnits              int64
	locks, rpcs, walSyncs  int64
	commitUS, simWriteMS   []float64
	wireWriteMS            []float64
	failed                 int64
	errs                   []string
}

func (p *peel) fail(where string, err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, where+": "+err.Error())
	}
}

// rewrite is the view rewrite sys.Query applies to a statement the design
// has not seen parsed before — every statement that arrives over the wire.
func rewrite(sys *synergy.System, sel *sqlparser.SelectStmt) *core.Rewritten {
	var mat []*core.View
	for _, v := range core.SelectViewsForQuery(sys.Design.Schema, sys.Design.Candidates.Trees, sel) {
		if fv := sys.Design.ViewByName(v.Name()); fv != nil {
			mat = append(mat, fv)
		}
	}
	return core.RewriteQuery(sel, mat)
}

// drain pulls a cursor to its end without decoding rows, as the wire
// server's raw encoder does, and closes it.
func drain(ctx *sim.Ctx, cur phoenix.RowCursor, onFirst func()) (int, error) {
	n := 0
	for cur.Next(ctx) {
		if n == 0 && onFirst != nil {
			onFirst()
		}
		n++
	}
	err := cur.Err()
	if cerr := cur.Close(ctx); err == nil {
		err = cerr
	}
	return n, err
}

func (p *peel) wireRead(o *op, class, id string) (float64, error) {
	t0 := time.Now()
	rows, ttfr, total, err := p.cl.query(o)
	if err != nil {
		return 0, err
	}
	root := p.tr.add(span{TraceID: p.trace, Name: "wire.read", Class: class, Stmt: id, Rows: rows}, t0, t0.Add(total))
	if rows > 0 {
		p.tr.add(span{TraceID: p.trace, Parent: root, Name: "wire.first_row", Stmt: id}, t0, t0.Add(ttfr))
		p.tr.add(span{TraceID: p.trace, Parent: root, Name: "wire.drain", Stmt: id, Rows: rows}, t0.Add(ttfr), t0.Add(total))
	}
	if o.wantRows >= 0 && rows != o.wantRows {
		p.fail("wire/"+id, fmt.Errorf("%d rows, want %d", rows, o.wantRows))
	}
	return us(total), nil
}

func (p *peel) sessionRead(o *op, class, id string) (float64, error) {
	sel := p.parsed[o.def].(*sqlparser.SelectStmt)
	ctx := p.sctx
	ctx.Reset()
	t0 := time.Now()
	cur, err := p.sess.QueryStream(ctx, sel, o.params)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	rows, err := drain(ctx, cur, ctx.MarkFirstRow)
	t2 := time.Now()
	if err != nil {
		return 0, err
	}
	st := ctx.Snapshot()
	root := p.tr.add(span{TraceID: p.trace, Name: "session.read", Class: class, Stmt: id, Rows: rows, Sim: &st}, t0, t2)
	p.tr.add(span{TraceID: p.trace, Parent: root, Name: "session.open", Stmt: id}, t0, t1)
	p.tr.add(span{TraceID: p.trace, Parent: root, Name: "session.drain", Stmt: id, Rows: rows}, t1, t2)
	p.sessReads++
	p.restarts += st.Restarts
	p.simReadMS = append(p.simReadMS, st.Elapsed.Milliseconds())
	if rows > 0 {
		p.simTTFR = append(p.simTTFR, st.TTFR.Milliseconds())
	}
	return us(t2.Sub(t0)), nil
}

func (p *peel) engineRead(o *op, class, id string) (float64, error) {
	sel := p.parsed[o.def].(*sqlparser.SelectStmt)
	ctx := sim.NewCtx()
	// The snapshot transaction an MVCC read runs in belongs to synergy's
	// layer: it opens before the engine span and settles after it.
	opts, done := modeRead(p.sys, ctx)
	defer done()
	t0 := time.Now()
	rw := rewrite(p.sys, sel)
	t1 := time.Now()
	cur, err := p.sys.Engine.QueryStreamOpts(ctx, rw.Stmt, o.params, opts)
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	rows, err := drain(ctx, cur, nil)
	t3 := time.Now()
	if err != nil {
		return 0, err
	}
	st := ctx.Snapshot()
	root := p.tr.add(span{TraceID: p.trace, Name: "engine.read", Class: class, Stmt: id, Rows: rows, Sim: &st}, t0, t3)
	p.tr.add(span{TraceID: p.trace, Parent: root, Name: "core.rewrite", Stmt: id}, t0, t1)
	p.tr.add(span{TraceID: p.trace, Parent: root, Name: "phoenix.open", Stmt: id}, t1, t2)
	p.tr.add(span{TraceID: p.trace, Parent: root, Name: "phoenix.drain", Stmt: id, Rows: rows}, t2, t3)
	p.engReads++
	if rw.UsesViews() {
		p.viewHits++
	}
	p.engRPCs += st.RPCs
	p.engScanned += st.RowsScanned
	p.engReturned += int64(rows)
	if class == classScan {
		p.engScanUS += us(t3.Sub(t0))
		p.engScanRows += st.RowsScanned
	}
	return us(t3.Sub(t0)), nil
}

// readRounds is how often a traced read visits each depth. What disturbs a
// call from outside — a GC cycle, a wait for a processor — only ever adds
// time, so the fastest of the visits is the cleanest look at the layer.
const readRounds = 2

// read runs one autocommit read at all three depths, readRounds times, the
// first depth rotating with the read's index, and keeps each depth's
// fastest visit.
func (p *peel) read(o *op, n int) {
	def := p.cl.defs[o.def]
	var d depths
	for k := 0; k < 3*readRounds; k++ {
		var err error
		var took float64
		at := &d.wire
		switch (n + k) % 3 {
		case 0:
			took, err = p.wireRead(o, def.class, def.id)
		case 1:
			at = &d.session
			took, err = p.sessionRead(o, def.class, def.id)
		case 2:
			at = &d.engine
			took, err = p.engineRead(o, def.class, def.id)
		}
		if err != nil {
			p.fail("read/"+def.id, err)
			return
		}
		if *at == 0 || took < *at {
			*at = took
		}
	}
	p.reads[def.class] = append(p.reads[def.class], d)
}

// wireUnit runs a write unit through the socket with a span per statement.
func (p *peel) wireUnit(u *unit) error {
	var rec recorder
	t0 := time.Now()
	root := p.tr.open(span{TraceID: p.trace, Name: "wire.write_unit", Class: classWrite, Stmt: u.name}, t0)
	p.cl.onStmt = func(id string, start time.Time) {
		p.tr.add(span{TraceID: p.trace, Parent: root, Name: "wire.stmt", Stmt: id}, start, time.Now())
	}
	err := p.cl.runUnit(u, &rec)
	p.cl.onStmt = nil
	end := time.Now()
	p.tr.close(root, end, 0, nil)
	if err != nil {
		return err
	}
	p.failed += rec.failed
	p.errs = append(p.errs, rec.firstErrs...)
	p.wireWrites[u.name] = append(p.wireWrites[u.name], us(end.Sub(t0)))
	p.wireWriteMS = append(p.wireWriteMS, ms(end.Sub(t0)))
	return nil
}

// sessionUnit runs a write unit on a SystemSession, below the wire server.
func (p *peel) sessionUnit(u *unit) {
	ctx := p.sctx
	ctx.Reset()
	wal0 := p.sys.Store.WALSyncs()
	t0 := time.Now()
	root := p.tr.open(span{TraceID: p.trace, Name: "session.write_unit", Class: classWrite, Stmt: u.name}, t0)
	call := func(name, id string, f func() error) error {
		s := time.Now()
		err := f()
		p.tr.add(span{TraceID: p.trace, Parent: root, Name: name, Stmt: id}, s, time.Now())
		return err
	}
	err := error(nil)
	if u.txn {
		err = call("session.begin", "BEGIN", func() error { return p.sess.Begin(ctx) })
	}
	for i := 0; err == nil && i < len(u.ops); i++ {
		o := &u.ops[i]
		id := p.cl.defs[o.def].id
		if sel, ok := p.parsed[o.def].(*sqlparser.SelectStmt); ok {
			err = call("session.query", id, func() error {
				cur, err := p.sess.QueryStream(ctx, sel, o.params)
				if err != nil {
					return err
				}
				rows, err := drain(ctx, cur, nil)
				if err == nil && o.wantRows >= 0 && rows != o.wantRows {
					err = fmt.Errorf("%d rows, want %d", rows, o.wantRows)
				}
				return err
			})
		} else {
			err = call("session.exec", id, func() error { return p.sess.Exec(ctx, p.parsed[o.def], o.params) })
		}
	}
	if u.txn {
		if err == nil {
			s := time.Now()
			err = call("session.commit", "COMMIT", func() error { return p.sess.Commit(ctx) })
			p.commitUS = append(p.commitUS, us(time.Since(s)))
		} else if rerr := p.sess.Rollback(ctx); rerr != nil {
			p.fail("session/"+u.name+"/ROLLBACK", rerr)
		}
	}
	end := time.Now()
	st := ctx.Snapshot()
	p.tr.close(root, end, 0, &st)
	if err != nil {
		p.fail("session/"+u.name, err)
		return
	}
	p.sessWrites[u.name] = append(p.sessWrites[u.name], us(end.Sub(t0)))
	p.sessUnits++
	p.locks += st.Locks
	p.rpcs += st.RPCs
	p.walSyncs += p.sys.Store.WALSyncs() - wal0
	p.simWriteMS = append(p.simWriteMS, st.Elapsed.Milliseconds())
}

// run replays units until the deadline. A write unit cannot run
// twice, so each one is followed by a sibling — a fresh unit of the same
// kind from the same generator — and the two take one depth each, the
// depth that goes first alternating.
func (p *peel) run(units []unit, deadline time.Time, sibling func(*unit) unit) error {
	reads, writes := 0, 0
	for i := range units {
		if !time.Now().Before(deadline) {
			break
		}
		u := &units[i]
		p.trace++
		if !u.txn && p.cl.defs[u.ops[0].def].class != classWrite {
			p.read(&u.ops[0], reads)
			reads++
			continue
		}
		sib := sibling(u)
		first, second := u, &sib
		if writes%2 == 1 {
			first, second = second, first
		}
		if err := p.wireUnit(first); err != nil {
			return err
		}
		p.trace++
		p.sessionUnit(second)
		writes++
	}
	return nil
}

// pairedSelf is a layer's self time over the traced reads: per class, the
// median of the paired differences between two adjacent depths, weighted by
// the class's share of the reads.
func pairedSelf(reads map[string][]depths, diff func(depths) float64) float64 {
	var total int
	var sum float64
	for _, ds := range reads {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = diff(d)
		}
		sum += median(xs) * float64(len(ds))
		total += len(ds)
	}
	return ratio(sum, float64(total))
}

// unpairedSelf is the same for write units: per unit kind, the difference of
// the medians at two depths, weighted by the kind's share.
func unpairedSelf(upper, lower map[string][]float64) float64 {
	var total int
	var sum float64
	for kind, xs := range upper {
		if len(lower[kind]) == 0 {
			continue
		}
		n := len(xs) + len(lower[kind])
		sum += (median(xs) - median(lower[kind])) * float64(n)
		total += n
	}
	return ratio(sum, float64(total))
}

func wireOf(d depths) float64    { return d.wire }
func sessionOf(d depths) float64 { return d.session }
func engineOf(d depths) float64  { return d.engine }

func depthMedian(reads []depths, pickDepth func(depths) float64) float64 {
	xs := make([]float64, len(reads))
	for i, d := range reads {
		xs[i] = pickDepth(d)
	}
	return median(xs)
}

// A traced run splits the clock: referenceShare of --seconds for the untraced
// reference phase, tracedShare for the peel; probes take the rest.
const (
	referenceShare = 0.3
	tracedShare    = 0.5
)

// traceSalt separates the traced pass's statement stream from the measured
// one: same generator, same mix, its own parameters.
const traceSalt = 0x7ace

// tracedRun is the --trace 1 half of a run: after the untraced reference
// phase it replays the layer peel, runs the unit probes and the contention
// probe on the same live deployment, emits every per-layer metric and writes
// the span file.
func tracedRun(rep *runReport, l *live, cfg runConfig, all *samples, ps phaseStats) error {
	sys := l.d.sys
	p := &peel{
		sys: sys, tr: &tracer{epoch: time.Now()}, cl: l.clients[0],
		sess: server.NewSystemSession(sys), sctx: sim.NewCtx(),
		reads: map[string][]depths{}, wireWrites: map[string][]float64{}, sessWrites: map[string][]float64{},
	}
	for _, def := range l.g.defs {
		stmt, err := sqlparser.Parse(def.sql)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", def.id, err)
		}
		p.parsed = append(p.parsed, stmt)
	}
	deadline := time.Now().Add(time.Duration(tracedShare * cfg.seconds * float64(time.Second)))
	mix := cfg.spec.mix()
	st := generate(l.g, mix, cfg.seed^traceSalt, int(tracedShare*cfg.seconds*float64(cfg.spec.rateCap)), 1)
	rng := sim.NewRNG(cfg.seed ^ traceSalt).Derive("siblings")
	sibling := func(u *unit) unit {
		for _, e := range mix {
			if e.name == u.name {
				return e.make(l.g, 0, rng)
			}
		}
		panic("benchmark: no mix entry makes " + u.name)
	}
	if err := p.run(st.conns[0], deadline, sibling); err != nil {
		return err
	}
	if err := p.sess.Close(p.sctx); err != nil {
		return err
	}
	rep.Errors = append(rep.Errors, p.errs...)
	rep.Result.Attempted += int64(len(p.tr.spans))
	rep.Result.Failed += p.failed
	rep.check("traced_pass", failedErr(p.failed, p.errs))

	var allReads []depths
	for _, ds := range p.reads {
		allReads = append(allReads, ds...)
	}
	rep.Samples["traced_reads"] = len(allReads)
	rep.Samples["traced_write_units"] = len(p.wireWriteMS) + int(p.sessUnits)

	rep.emit("server.self_us_per_read", "us", pairedSelf(p.reads, func(d depths) float64 { return d.wire - d.session }))
	rep.emit("server.self_us_per_write", "us", unpairedSelf(p.wireWrites, p.sessWrites))
	rep.emit("synergy.self_us_per_read", "us", pairedSelf(p.reads, func(d depths) float64 { return d.session - d.engine }))
	rep.emit("synergy.view_hit_share", "fraction", ratio(float64(p.viewHits), float64(p.engReads)))
	rep.emit("synergy.restarts_per_read", "count", ratio(float64(p.restarts), float64(p.sessReads)))
	rep.emit("synergy.locks_per_write_unit", "count", ratio(float64(p.locks), float64(p.sessUnits)))
	rep.emit("synergy.rpcs_per_write_unit", "count", ratio(float64(p.rpcs), float64(p.sessUnits)))
	rep.emit("synergy.wal_syncs_per_write_unit", "count", ratio(float64(p.walSyncs), float64(p.sessUnits)))
	rep.emit("synergy.commit_us_p50", "us", median(p.commitUS))
	rep.emit("phoenix.exec_us_per_join", "us", depthMedian(p.reads[classJoin], engineOf))
	rep.emit("phoenix.exec_us_per_point", "us", depthMedian(p.reads[classPoint], engineOf))
	rep.emit("phoenix.exec_us_per_scan_krow", "us", ratio(p.engScanUS, float64(p.engScanRows)/1000))
	rep.emit("phoenix.rows_scanned_per_row_returned", "ratio", ratio(float64(p.engScanned), float64(p.engReturned)))
	rep.emit("phoenix.rpcs_per_read", "count", ratio(float64(p.engRPCs), float64(p.engReads)))
	rep.emit("sim.read_ms_mean", "sim-ms", mean(p.simReadMS))
	rep.emit("sim.write_ms_mean", "sim-ms", mean(p.simWriteMS))
	rep.emit("sim.ttfr_ms_mean", "sim-ms", mean(p.simTTFR))
	rep.emit("trace.read_us_p50_wire", "us", depthMedian(allReads, wireOf))
	rep.emit("trace.read_us_p50_session", "us", depthMedian(allReads, sessionOf))
	rep.emit("trace.read_us_p50_engine", "us", depthMedian(allReads, engineOf))
	// Tracing overhead: the traced wire depth against the untraced phase.
	// The traced pass runs alone, the untraced one beside a second
	// connection on two cores, so below 1 means the peel saw less queueing
	// for a processor, not that tracing is free.
	rep.emit("trace.wire_p50_ratio_read", "ratio", ratio(depthMedian(allReads, wireOf)/1000, median(all.readMS)))
	rep.emit("trace.wire_p50_ratio_write", "ratio", ratio(median(p.wireWriteMS), median(all.writeMS)))
	rep.emit("trace.spans", "count", float64(len(p.tr.spans)))

	rep.emit("client.error_share", "fraction", ratio(float64(rep.Result.Failed), float64(rep.Result.Attempted)))
	rep.emit("client.read_samples", "count", float64(len(all.readMS)))
	rep.emit("client.write_samples", "count", float64(len(all.writeMS)))
	// The reference phase's wall-clock figures. They were end-to-end metrics
	// in the issue and were demoted: identical runs on the sandbox's host
	// differ by more than a tenth in them (README, "What gates").
	rep.emit("client.stmts_per_s", "1/s", float64(all.stmts)/ps.wall.Seconds())
	rep.emit("client.rows_per_s", "rows/s", float64(all.rows)/ps.wall.Seconds())
	rep.emit("client.read_wall_ms_p50", "ms", median(all.readMS))
	rep.emit("client.read_wall_ms_p90", "ms", quantile(all.readMS, 0.9))
	rep.emit("client.ttfr_wall_ms_p50", "ms", median(all.ttfrMS))
	rep.emit("client.write_wall_ms_p50", "ms", median(all.writeMS))
	rep.emit("client.write_wall_ms_p90", "ms", quantile(all.writeMS, 0.9))
	rep.emit("runtime.gc_cycles", "count", float64(ps.gcCycles))
	rep.emit("runtime.gc_pause_ms_total", "ms", float64(ps.gcPauseNS)/1e6)
	rep.emit("tpcw.generate_ms", "ms", l.d.generateMS)
	rep.emit("synergy.new_ms", "ms", l.d.newMS)
	rep.emit("synergy.load_ms", "ms", l.d.loadMS)
	rep.emit("synergy.build_views_ms", "ms", l.d.buildViewsMS)

	if err := runProbes(rep, l); err != nil {
		return fmt.Errorf("unit probes: %w", err)
	}
	if err := contentionProbe(rep, l, cfg); err != nil {
		return fmt.Errorf("contention probe: %w", err)
	}
	heapPerConn(rep, l)
	return p.tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.spec.name+".jsonl"))
}
