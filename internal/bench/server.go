package bench

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"synergy/internal/server"
	"synergy/internal/sim"
	"synergy/internal/synergy"
)

// The server experiment drives the MySQL wire server end to end: N
// concurrent client connections per concurrency mode, each running
// multi-statement transactions over a real net.Conn byte stream (in-process
// loopback for determinism), plus a deterministic admission-control
// demonstration that fills the execution slots and the wait queue exactly
// to their bounds.
//
// Latency is simulated time (sim.Ctx) read back through the charge-free
// @@synergy_sim_micros introspection variable, so the numbers are
// reproducible run to run: connections work disjoint key ranges and
// finish each of a transaction's reads before any starts the next (see
// lockstep), so no cross-connection interaction perturbs a connection's
// accumulated cost.

// ServerOpts parameterizes the server experiment.
type ServerOpts struct {
	// Conns is the concurrent client connections per mode (default 8).
	Conns int
	// Txns is the transactions each connection runs (default 16).
	Txns int
	// Slots is the server's statement execution pool (default 8).
	Slots int
	// Queue is the admission wait-queue bound (default 16).
	Queue int
}

func (o *ServerOpts) defaults() {
	if o.Conns <= 0 {
		o.Conns = 8
	}
	if o.Txns <= 0 {
		o.Txns = 16
	}
	if o.Slots <= 0 {
		o.Slots = 8
	}
	if o.Queue <= 0 {
		o.Queue = 16
	}
}

// ServerModeResult is one concurrency mode's serving measurement.
type ServerModeResult struct {
	Mode string
	// ConnectMicros is the per-connection handshake cost.
	ConnectMicros sim.Micros
	// Txn is the per-transaction simulated latency across all connections
	// (BEGIN + INSERT + UPDATE + SELECT + COMMIT, five round-trips).
	Txn Measurement
	// TPS is the modeled steady-state throughput: min(conns, slots)
	// transactions in flight, each taking the mean latency.
	TPS float64
	// Queued and Rejected are the admission gate's counters for the run.
	// Queued is wall-clock-scheduling dependent (how often a statement
	// found every slot busy), so the render omits it; Rejected is
	// deterministically zero whenever conns-slots fits the queue bound.
	Queued, Rejected int64
}

// ServerAdmission is the deterministic gate demonstration.
type ServerAdmission struct {
	Slots, Queue int
	// Queued statements waited and then completed without error.
	Queued int64
	// Rejected statements failed fast with the server-busy error.
	Rejected int64
	// Completed counts queued statements that finished successfully after
	// the slots freed.
	Completed int
}

// ServerResult is the full server experiment output.
type ServerResult struct {
	Opts      ServerOpts
	Modes     []ServerModeResult
	Admission ServerAdmission
}

// serverBenchSeq disambiguates in-process listener names across runs in one
// process (tests run the experiment repeatedly).
var serverBenchSeq atomic.Int64

var serverModes = []struct {
	Name string
	Mode synergy.ConcurrencyMode
}{
	{"Synergy", synergy.Hierarchical},
	{"MVCC", synergy.MVCC},
	{"OCC", synergy.OCC},
}

// RunServer runs the wire-serving experiment.
func RunServer(opts ServerOpts, costs *sim.Costs) (*ServerResult, error) {
	opts.defaults()
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	res := &ServerResult{Opts: opts}
	for _, m := range serverModes {
		mr, err := runServerMode(m.Name, m.Mode, opts, costs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		res.Modes = append(res.Modes, *mr)
	}
	adm, err := runServerAdmission(opts, costs)
	if err != nil {
		return nil, fmt.Errorf("admission: %w", err)
	}
	res.Admission = *adm
	return res, nil
}

func runServerMode(name string, mode synergy.ConcurrencyMode, opts ServerOpts, costs *sim.Costs) (*ServerModeResult, error) {
	// One root row per connection: disjoint write sets, no lock contention
	// or optimistic conflicts, so every connection's simulated cost is
	// independent of scheduling.
	sys, err := buildContentionSystem(mode, opts.Conns, 2, costs)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Backends: []server.Backend{{Name: "synergy", System: sys}},
		MaxConns: opts.Conns + 1,
		Slots:    opts.Slots,
		Queue:    opts.Queue,
		Costs:    costs,
	})
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("bench-server-%s-%d", name, serverBenchSeq.Add(1))
	l, err := server.ListenInproc(addr)
	if err != nil {
		return nil, err
	}
	go srv.Serve(l)
	defer srv.Close()

	mr := &ServerModeResult{Mode: name, ConnectMicros: costs.WireConnect}
	type connOut struct {
		lats []sim.Micros
		err  error
	}
	outs := make(chan connOut, opts.Conns)
	steps := newLockstep(opts.Conns)
	for w := 0; w < opts.Conns; w++ {
		go func(w int) {
			lats, err := runServerConn(addr, w, opts.Txns, steps)
			if err != nil {
				steps.abandon()
			}
			outs <- connOut{lats, err}
		}(w)
	}
	var all []sim.Micros
	var firstErr error
	for i := 0; i < opts.Conns; i++ {
		out := <-outs
		if out.err != nil && (firstErr == nil || errors.Is(firstErr, errLockstepAbandoned)) {
			firstErr = out.err
		}
		all = append(all, out.lats...)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	mr.Txn = Summarize(all)
	if mr.Txn.Mean > 0 {
		inFlight := opts.Conns
		if opts.Slots < inFlight {
			inFlight = opts.Slots
		}
		// Mean is milliseconds per transaction; inFlight run concurrently.
		mr.TPS = float64(inFlight) * 1000 / mr.Txn.Mean
	}
	st := srv.Stats()
	mr.Queued, mr.Rejected = st.Admission.Queued, st.Admission.Rejected
	return mr, nil
}

// errLockstepAbandoned is what a connection returns when another one failed
// and left the lockstep.
var errLockstepAbandoned = errors.New("another connection failed")

// lockstep lines the connections up between the statements of a
// transaction: every connection finishes its INSERT before any runs its
// UPDATE, and so on. The connections touch disjoint rows, but a prefix scan
// examines, and is charged for, every row up to its region's end — other
// connections' rows included — so without the lockstep a statement's cost
// would depend on how far the others had got. The UPDATEs also take turns,
// in connection order: a Synergy UPDATE's view-maintenance locate scan walks
// the index the other connections' UPDATEs flush their buffered INSERTs
// into. COMMIT and the next BEGIN and INSERT still overlap the other
// connections' commits: none of them scans.
type lockstep struct {
	mu        sync.Mutex
	cond      *sync.Cond
	n         int // connections
	arrived   int
	gen       int
	turn      int // connection whose turn it is
	abandoned bool
}

func newLockstep(n int) *lockstep {
	l := &lockstep{n: n}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// wait blocks until every connection has arrived, or fails once one of them
// has abandoned the lockstep.
func (l *lockstep) wait() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	gen := l.gen
	if l.arrived++; l.arrived == l.n {
		l.arrived = 0
		l.gen++
		l.cond.Broadcast()
	}
	for gen == l.gen && !l.abandoned {
		l.cond.Wait()
	}
	if l.abandoned {
		return errLockstepAbandoned
	}
	return nil
}

// inTurn runs fn once every connection before w has run its own, then
// passes the turn on.
func (l *lockstep) inTurn(w int, fn func() error) error {
	l.mu.Lock()
	for l.turn != w && !l.abandoned {
		l.cond.Wait()
	}
	abandoned := l.abandoned
	l.mu.Unlock()
	if abandoned {
		return errLockstepAbandoned
	}
	err := fn()
	l.mu.Lock()
	l.turn = (l.turn + 1) % l.n
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}

// abandon releases every waiting connection with errLockstepAbandoned.
func (l *lockstep) abandon() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.abandoned = true
	l.cond.Broadcast()
}

// runServerConn is one client connection's workload: txns transactions of
// INSERT + UPDATE + SELECT between BEGIN/COMMIT, all on the connection's own
// root row, in lockstep with the other connections. Returns per-transaction
// simulated durations.
func runServerConn(addr string, w, txns int, steps *lockstep) ([]sim.Micros, error) {
	c, err := server.Dial("inproc", addr, fmt.Sprintf("bench-%d", w), "")
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ins, err := c.Prepare("INSERT INTO Leaf (LID, L_RID, LVal) VALUES (?, ?, ?)")
	if err != nil {
		return nil, err
	}
	upd, err := c.Prepare("UPDATE Root SET RVal = ? WHERE RID = ?")
	if err != nil {
		return nil, err
	}
	sel, err := c.Prepare("SELECT * FROM Root as r, Leaf as l WHERE r.RID = l.L_RID and l.LVal = ?")
	if err != nil {
		return nil, err
	}
	rid := int64(w + 1)
	var lats []sim.Micros
	last, err := c.SimMicros()
	if err != nil {
		return nil, err
	}
	for i := 0; i < txns; i++ {
		val := fmt.Sprintf("w%d-t%d", w, i)
		if err := c.Begin(); err != nil {
			return nil, err
		}
		if err := ins.Exec(int64(1000+w*txns+i), rid, val); err != nil {
			return nil, err
		}
		if err := steps.wait(); err != nil {
			return nil, err
		}
		if err := steps.inTurn(w, func() error { return upd.Exec(val, rid) }); err != nil {
			return nil, err
		}
		if err := steps.wait(); err != nil {
			return nil, err
		}
		rs, err := sel.Query(val)
		if err != nil {
			return nil, err
		}
		if len(rs.Rows) != 1 {
			return nil, fmt.Errorf("conn %d txn %d: %d rows, want 1", w, i, len(rs.Rows))
		}
		if err := steps.wait(); err != nil {
			return nil, err
		}
		if err := c.Commit(); err != nil {
			return nil, err
		}
		now, err := c.SimMicros()
		if err != nil {
			return nil, err
		}
		lats = append(lats, sim.Micros(now-last))
		last = now
	}
	return lats, nil
}

// runServerAdmission demonstrates the gate deterministically: every slot is
// occupied, exactly Queue statements queue (none error), and one more is
// rejected fast with the server-busy error; freeing the slots completes
// every queued statement.
func runServerAdmission(opts ServerOpts, costs *sim.Costs) (*ServerAdmission, error) {
	sys, err := buildContentionSystem(synergy.Hierarchical, 1, 1, costs)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Backends: []server.Backend{{Name: "synergy", System: sys}},
		MaxConns: opts.Queue + 2,
		Slots:    opts.Slots,
		Queue:    opts.Queue,
		Costs:    costs,
	})
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("bench-server-admission-%d", serverBenchSeq.Add(1))
	l, err := server.ListenInproc(addr)
	if err != nil {
		return nil, err
	}
	go srv.Serve(l)
	defer srv.Close()

	gate := srv.Gate()
	held := 0
	for gate.TryAcquire() {
		held++
	}

	done := make(chan error, opts.Queue)
	conns := make([]*server.Client, 0, opts.Queue)
	for i := 0; i < opts.Queue; i++ {
		c, err := server.Dial("inproc", addr, "adm", "")
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
		go func(c *server.Client) {
			_, err := c.Query("SELECT RVal FROM Root WHERE RID = 1")
			done <- err
		}(c)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	// Wait until all of them are queued behind the occupied slots.
	for gate.Waiting() < opts.Queue {
		time.Sleep(time.Millisecond)
	}

	// The queue is at its bound: one more statement must fail fast.
	over, err := server.Dial("inproc", addr, "adm-over", "")
	if err != nil {
		return nil, err
	}
	defer over.Close()
	if _, err := over.Query("SELECT RVal FROM Root WHERE RID = 1"); err == nil {
		return nil, fmt.Errorf("expected a server-busy rejection past the queue bound")
	}

	for i := 0; i < held; i++ {
		gate.Release()
	}
	adm := &ServerAdmission{Slots: opts.Slots, Queue: opts.Queue}
	for i := 0; i < opts.Queue; i++ {
		if err := <-done; err != nil {
			return nil, fmt.Errorf("queued statement failed: %w", err)
		}
		adm.Completed++
	}
	st := srv.Stats().Admission
	adm.Queued, adm.Rejected = st.Queued, st.Rejected
	return adm, nil
}

// RenderServer formats the server experiment.
func RenderServer(r *ServerResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Wire server: %d connections x %d transactions per mode, %d execution slots, queue bound %d (ms/txn simulated)\n",
		r.Opts.Conns, r.Opts.Txns, r.Opts.Slots, r.Opts.Queue)
	fmt.Fprintf(&b, "%-10s %-22s %-12s %s\n", "mode", "txn latency", "modeled tps", "rejected")
	for _, m := range r.Modes {
		fmt.Fprintf(&b, "%-10s %-22s %-12.0f %d\n", m.Mode, m.Txn.String(), m.TPS, m.Rejected)
	}
	a := r.Admission
	fmt.Fprintf(&b, "admission: %d slots held, %d statements queued (all %d completed after release), %d rejected at the bound\n",
		a.Slots, a.Queued, a.Completed, a.Rejected)
	return b.String()
}
