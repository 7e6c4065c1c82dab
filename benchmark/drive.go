package main

import (
	"errors"
	"fmt"
	"hash"
	"runtime"
	"sync"
	"time"

	"synergy/internal/server"
)

// deckRec is what one connection measured over one deck of its stream.
type deckRec struct {
	// complete decks started and ended on a deck boundary inside one phase:
	// they hold the workload's mix exactly.
	complete  bool
	wall      time.Duration
	stmts     int64
	simMicros int64
}

// samples is what the clients saw over one phase.
type samples struct {
	stmts, rows    int64
	readMS, ttfrMS []float64 // one per autocommit SELECT (with a row, for ttfr)
	writeMS        []float64 // one per write unit
}

func (s *samples) add(o *samples) {
	s.stmts += o.stmts
	s.rows += o.rows
	s.readMS = append(s.readMS, o.readMS...)
	s.ttfrMS = append(s.ttfrMS, o.ttfrMS...)
	s.writeMS = append(s.writeMS, o.writeMS...)
}

// recorder collects what one connection measured. Each connection owns one,
// so nothing is shared while the clock runs.
type recorder struct {
	samples
	decks     []deckRec
	cur       deckRec // the deck being executed
	warmStmts int64   // statements of the unmeasured warm-up
	failed    int64
	firstErrs []string // a few failures verbatim, for the report
	committed []*unit  // write units that committed, in order
}

func (r *recorder) fail(u *unit, id string, err error) {
	r.failed++
	if len(r.firstErrs) < 5 {
		r.firstErrs = append(r.firstErrs, fmt.Sprintf("%s/%s: %v", u.name, id, err))
	}
}

// client is one wire connection with every def prepared.
type client struct {
	c         *server.Client
	defs      []stmtDef
	stmts     []*server.ClientStmt
	prepareUS []float64
	// hash, when set, receives every row packet (the scan equality check).
	hash hash.Hash64
	// onStmt, when set, is told about every statement of runUnit as it
	// completes (the traced pass records a span per statement).
	onStmt func(id string, start time.Time)
}

func dial(d *deployment, defs []stmtDef, w int) (*client, error) {
	c, err := server.Dial("tcp", d.addr, fmt.Sprintf("bench-%d", w), "")
	if err != nil {
		return nil, err
	}
	cl := &client{c: c, defs: defs, stmts: make([]*server.ClientStmt, len(defs))}
	for i, def := range defs {
		if def.text {
			continue
		}
		t0 := time.Now()
		cl.stmts[i], err = c.Prepare(def.sql)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("prepare %s: %w", def.id, err)
		}
		cl.prepareUS = append(cl.prepareUS, us(time.Since(t0)))
	}
	return cl, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// engineErr reports whether err is the server's answer to a statement (the
// connection stays usable) rather than a broken connection.
func engineErr(err error) bool {
	var me *server.MySQLError
	return errors.As(err, &me)
}

// query sends one SELECT and drains it, returning the row count, the time to
// the first row packet (0 for an empty result) and the time to the last.
func (cl *client) query(o *op) (rows int, ttfr, total time.Duration, err error) {
	def := cl.defs[o.def]
	t0 := time.Now()
	var rs *server.ClientRows
	if def.text {
		rs, err = cl.c.QueryStream(def.sql)
	} else {
		rs, err = cl.stmts[o.def].QueryStream(o.params...)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	for rs.Next() {
		if rows == 0 {
			ttfr = time.Since(t0)
		}
		rows++
		if cl.hash != nil {
			cl.hash.Write(rs.RawBytes())
		}
	}
	if err = rs.Close(); err != nil {
		return 0, 0, 0, err
	}
	return rows, ttfr, time.Since(t0), nil
}

func (cl *client) exec(o *op) error { return cl.stmts[o.def].Exec(o.params...) }

// runUnit executes one unit. A failed statement is recorded and counted;
// inside a transaction the session has already rolled back, the driver
// sends ROLLBACK to leave the connection in autocommit, skips the rest of
// the unit and carries on. Only a broken connection returns an error.
func (cl *client) runUnit(u *unit, r *recorder) error {
	write := u.txn || cl.defs[u.ops[0].def].class == classWrite
	t0 := time.Now()
	ok := true
	var stmtStart time.Time
	begin := func() {
		if cl.onStmt != nil {
			stmtStart = time.Now()
		}
	}
	step := func(id string, err error) error {
		r.stmts++
		r.cur.stmts++
		if cl.onStmt != nil {
			cl.onStmt(id, stmtStart)
		}
		if err == nil {
			return nil
		}
		if !engineErr(err) {
			return fmt.Errorf("%s/%s: %w", u.name, id, err)
		}
		r.fail(u, id, err)
		ok = false
		return nil
	}
	if u.txn {
		begin()
		if err := step("BEGIN", cl.c.Begin()); err != nil {
			return err
		}
	}
	for i := 0; ok && i < len(u.ops); i++ {
		o := &u.ops[i]
		def := cl.defs[o.def]
		begin()
		if def.class == classWrite {
			if err := step(def.id, cl.exec(o)); err != nil {
				return err
			}
			continue
		}
		rows, ttfr, total, err := cl.query(o)
		if err := step(def.id, err); err != nil {
			return err
		}
		if err != nil {
			continue
		}
		r.rows += int64(rows)
		if o.wantRows >= 0 && rows != o.wantRows {
			r.fail(u, def.id, fmt.Errorf("%d rows, want %d", rows, o.wantRows))
		}
		if !u.txn {
			r.readMS = append(r.readMS, ms(total))
			if rows > 0 {
				r.ttfrMS = append(r.ttfrMS, ms(ttfr))
			}
		}
	}
	if u.txn {
		begin()
		if ok {
			if err := step("COMMIT", cl.c.Commit()); err != nil {
				return err
			}
		} else if err := cl.c.Rollback(); err != nil {
			return fmt.Errorf("%s/ROLLBACK: %w", u.name, err)
		}
	}
	if write {
		r.writeMS = append(r.writeMS, ms(time.Since(t0)))
		if ok {
			r.committed = append(r.committed, u)
		}
	}
	return nil
}

// budget bounds one phase of a connection's loop. A phase first completes
// decks whole decks; without a deadline it stops right there, on the deck
// boundary (the warm-up), with one it carries on to the first unit boundary
// past the deadline (the measured phase: the clock sets its length, yet the
// decks sim_ms_per_stmt is taken over are always inside it). The zero budget
// runs the units to their end.
type budget struct {
	deadline time.Time
	decks    int
}

func (b budget) spent(wholeDecks int) bool {
	if wholeDecks < b.decks {
		return false
	}
	if b.deadline.IsZero() {
		return b.decks > 0
	}
	return !time.Now().Before(b.deadline)
}

// run executes units[from:] within the budget and returns the next index.
// Every deckLen units it closes a deck record; between decks, off the deck's
// clock, it reads the connection's simulated cost.
func (cl *client) run(units []unit, deckLen, from int, b budget, r *recorder) (int, error) {
	simAt, err := cl.c.SimMicros()
	if err != nil {
		return from, err
	}
	whole := 0
	deckFrom, deckStart := from, time.Now()
	closeDeck := func(i int) error {
		r.cur.wall = time.Since(deckStart)
		now, err := cl.c.SimMicros()
		if err != nil {
			return err
		}
		r.cur.simMicros, simAt = now-simAt, now
		r.cur.complete = deckFrom%deckLen == 0 && i == deckFrom+deckLen
		if r.cur.complete {
			whole++
		}
		r.decks = append(r.decks, r.cur)
		r.cur = deckRec{}
		deckFrom, deckStart = i, time.Now()
		return nil
	}
	for i := from; ; i++ {
		if i > deckFrom && i%deckLen == 0 {
			if err := closeDeck(i); err != nil {
				return i, err
			}
		}
		if i >= len(units) || b.spent(whole) {
			if i > deckFrom {
				err = closeDeck(i)
			}
			return i, err
		}
		if err := cl.runUnit(&units[i], r); err != nil {
			return i, err
		}
	}
}

// phaseStats is what the measured phase saw process-wide.
type phaseStats struct {
	wall      time.Duration
	mallocs   uint64
	gcCycles  uint32
	gcPauseNS uint64
}

// drive runs the closed loop: every connection, on its own goroutine,
// executes its stream — first the unmeasured warm-up, then, after a
// barrier, the measured phase. It returns one recorder per connection for
// the measured phase and the process-wide deltas around it.
func drive(clients []*client, st *stream, warm, measure func() budget) ([]*recorder, phaseStats, error) {
	n := len(clients)
	next := make([]int, n)
	errs := make([]error, n)
	phase := func(b budget, recs []*recorder) {
		var wg sync.WaitGroup
		for w := range clients {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				next[w], errs[w] = clients[w].run(st.conns[w], st.deckLen, next[w], b, recs[w])
			}(w)
		}
		wg.Wait()
	}
	newRecs := func() []*recorder {
		recs := make([]*recorder, n)
		for i := range recs {
			recs[i] = &recorder{}
		}
		return recs
	}
	var ps phaseStats
	warmRecs := newRecs()
	phase(warm(), warmRecs)
	if err := errors.Join(errs...); err != nil {
		return nil, ps, err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	recs := newRecs()
	t0 := time.Now()
	phase(measure(), recs)
	ps.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err := errors.Join(errs...); err != nil {
		return nil, ps, err
	}
	ps.mallocs = m1.Mallocs - m0.Mallocs
	ps.gcCycles = m1.NumGC - m0.NumGC
	ps.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	// Warm-up failures count too: an error is an error whenever it happens.
	for w := range recs {
		recs[w].warmStmts = warmRecs[w].stmts
		recs[w].failed += warmRecs[w].failed
		recs[w].firstErrs = append(warmRecs[w].firstErrs, recs[w].firstErrs...)
		recs[w].committed = append(warmRecs[w].committed, recs[w].committed...)
	}
	return recs, ps, nil
}
