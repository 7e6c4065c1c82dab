package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

// testSchema is the Root/Leaf shape with a materialized join view (the same
// fanout the contention bench uses).
func testSchema() (*schema.Schema, []string) {
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
		"INSERT INTO Leaf (LID, L_RID, LVal) VALUES (?, ?, ?)",
		"UPDATE Root SET RVal = ? WHERE RID = ?",
	}
}

const testSelect = "SELECT * FROM Root as r, Leaf as l WHERE r.RID = l.L_RID and l.LVal = ?"

func deploySystem(t *testing.T, cfg synergy.Config) *synergy.System {
	t.Helper()
	s, workload := testSchema()
	if cfg.Concurrency != synergy.Hierarchical {
		cfg.MaxVersions = 16
	}
	sys, err := synergy.New(s, []string{"Root"}, workload, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var roots, leaves []schema.Row
	for i := int64(1); i <= 4; i++ {
		roots = append(roots, schema.Row{"RID": i, "RVal": fmt.Sprintf("r%d", i)})
		leaves = append(leaves, schema.Row{"LID": i, "L_RID": i, "LVal": fmt.Sprintf("l%d", i)})
	}
	if err := sys.LoadBase("Root", roots); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadBase("Leaf", leaves); err != nil {
		t.Fatal(err)
	}
	if err := sys.BuildViews(); err != nil {
		t.Fatal(err)
	}
	return sys
}

type testEnv struct {
	srv     *Server
	addr    string
	systems map[string]*synergy.System
}

// startServer deploys one system per concurrency mode and serves them as
// backends hier/mvcc/occ over an in-process listener.
func startServer(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	return startServerOn(t, cfg, synergy.Config{})
}

// startServerOn is startServer with every backend deployed from base (its
// Concurrency set per backend).
func startServerOn(t *testing.T, cfg Config, base synergy.Config) *testEnv {
	t.Helper()
	env := &testEnv{addr: t.Name(), systems: map[string]*synergy.System{}}
	for name, mode := range map[string]synergy.ConcurrencyMode{
		"hier": synergy.Hierarchical, "mvcc": synergy.MVCC, "occ": synergy.OCC,
	} {
		base.Concurrency = mode
		env.systems[name] = deploySystem(t, base)
		cfg.Backends = append(cfg.Backends, Backend{Name: name, System: env.systems[name]})
	}
	cfg.Default = "hier"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ListenInproc(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	env.srv = srv
	return env
}

func (e *testEnv) dial(t *testing.T, db string) *Client {
	t.Helper()
	c, err := Dial("inproc", e.addr, "test", db)
	if err != nil {
		t.Fatalf("dial %s: %v", db, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func sortRows(rows []schema.Row) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j])
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWireParity drives BEGIN/INSERT/SELECT/COMMIT through the wire in every
// concurrency mode and checks the rows the wire returns are identical to the
// in-process API's (the acceptance parity criterion).
func TestWireParity(t *testing.T) {
	env := startServer(t, Config{})
	for i, mode := range []string{"hier", "mvcc", "occ"} {
		t.Run(mode, func(t *testing.T) {
			c := env.dial(t, mode)
			base := int64(100 + 10*i)
			val := fmt.Sprintf("wire-%s-a", mode)

			// Autocommit write over the text protocol (literals).
			if err := c.Exec(fmt.Sprintf(
				"INSERT INTO Leaf (LID, L_RID, LVal) VALUES (%d, 1, '%s')", base, val)); err != nil {
				t.Fatalf("autocommit insert: %v", err)
			}

			// Multi-statement transaction with a prepared read that must see
			// the transaction's own buffered write.
			if err := c.Begin(); err != nil {
				t.Fatal(err)
			}
			txVal := fmt.Sprintf("wire-%s-b", mode)
			if err := c.Exec(fmt.Sprintf(
				"INSERT INTO Leaf (LID, L_RID, LVal) VALUES (%d, 2, '%s')", base+1, txVal)); err != nil {
				t.Fatalf("in-txn insert: %v", err)
			}
			st, err := c.Prepare(testSelect)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			rs, err := st.Query(txVal)
			if err != nil {
				t.Fatalf("in-txn select: %v", err)
			}
			if len(rs.Rows) != 1 {
				t.Fatalf("in-txn select saw %d rows, want 1 (own write)", len(rs.Rows))
			}
			if err := c.Commit(); err != nil {
				t.Fatal(err)
			}

			// Parity: the committed rows over the wire (binary protocol)
			// must equal the in-process API's result exactly.
			sel := sqlparser.MustParse(testSelect).(*sqlparser.SelectStmt)
			for _, v := range []string{val, txVal} {
				wire, err := st.Query(v)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := env.systems[mode].Query(sim.NewCtx(), sel, []schema.Value{v})
				if err != nil {
					t.Fatal(err)
				}
				sortRows(wire.Rows)
				sortRows(direct.Rows)
				if !reflect.DeepEqual(wire.Columns, direct.Columns) {
					t.Fatalf("columns diverge: wire %v direct %v", wire.Columns, direct.Columns)
				}
				if !reflect.DeepEqual(wire.Rows, direct.Rows) {
					t.Fatalf("rows diverge for %q:\nwire   %v\ndirect %v", v, wire.Rows, direct.Rows)
				}
			}
		})
	}
}

// TestRollbackDiscards checks explicit ROLLBACK leaves no trace.
func TestRollbackDiscards(t *testing.T) {
	env := startServer(t, Config{})
	for _, mode := range []string{"hier", "mvcc", "occ"} {
		c := env.dial(t, mode)
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := c.Exec("INSERT INTO Leaf (LID, L_RID, LVal) VALUES (500, 1, 'doomed')"); err != nil {
			t.Fatal(err)
		}
		if err := c.Rollback(); err != nil {
			t.Fatal(err)
		}
		st, err := c.Prepare(testSelect)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := st.Query("doomed")
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 0 {
			t.Fatalf("%s: rolled-back insert visible: %v", mode, rs.Rows)
		}
		st.Close()
	}
}

// TestStatementErrorAbortsTxn checks the MySQL-deadlock-style contract: a
// statement error inside an open transaction rolls the whole transaction
// back and the error says so.
func TestStatementErrorAbortsTxn(t *testing.T) {
	env := startServer(t, Config{})
	c := env.dial(t, "hier")
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec("INSERT INTO Leaf (LID, L_RID, LVal) VALUES (600, 1, 'pre-error')"); err != nil {
		t.Fatal(err)
	}
	err := c.Exec("INSERT INTO Nonexistent (X) VALUES (1)")
	var me *MySQLError
	if !errors.As(err, &me) || me.Code != errUnknownTable {
		t.Fatalf("want error %d, got %v", errUnknownTable, err)
	}
	// COMMIT after the implicit rollback is a no-op OK, and the pre-error
	// write is gone.
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare(testSelect)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := st.Query("pre-error")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Fatalf("aborted transaction's write visible: %v", rs.Rows)
	}
}

// TestMidTxnDisconnect kills connections mid-transaction and checks the
// teardown path rolls back: hierarchical locks release (a second session can
// write the same row), and MVCC/OCC snapshots unpin (ActiveTxns drains).
func TestMidTxnDisconnect(t *testing.T) {
	env := startServer(t, Config{})

	t.Run("hier-lock-release", func(t *testing.T) {
		a := env.dial(t, "hier")
		if err := a.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := a.Exec("UPDATE Root SET RVal = 'dirty' WHERE RID = 1"); err != nil {
			t.Fatal(err)
		}
		live := env.srv.Stats().LiveConns
		a.nc.Close() // vanish without COM_QUIT
		waitFor(t, "teardown", func() bool { return env.srv.Stats().LiveConns < live })

		b := env.dial(t, "hier")
		if err := b.Exec("UPDATE Root SET RVal = 'after' WHERE RID = 1"); err != nil {
			t.Fatalf("lock not released after disconnect: %v", err)
		}
		rs, err := b.Query("SELECT RVal FROM Root WHERE RID = 1")
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 || rs.Rows[0]["RVal"] != "after" {
			t.Fatalf("want rolled-back then rewritten row, got %v", rs.Rows)
		}
	})

	t.Run("mvcc-snapshot-release", func(t *testing.T) {
		c := env.dial(t, "mvcc")
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := c.Exec("UPDATE Root SET RVal = 'dirty' WHERE RID = 2"); err != nil {
			t.Fatal(err)
		}
		if n := env.systems["mvcc"].MVCCServer.ActiveTxns(); n == 0 {
			t.Fatal("expected an active MVCC transaction")
		}
		c.nc.Close()
		waitFor(t, "mvcc txn drain", func() bool {
			return env.systems["mvcc"].MVCCServer.ActiveTxns() == 0
		})
	})

	t.Run("occ-txn-release", func(t *testing.T) {
		c := env.dial(t, "occ")
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := c.Exec("UPDATE Root SET RVal = 'dirty' WHERE RID = 4"); err != nil {
			t.Fatal(err)
		}
		if n := env.systems["occ"].OCC.ActiveTxns(); n == 0 {
			t.Fatal("expected an active OCC transaction")
		}
		c.nc.Close()
		waitFor(t, "occ txn drain", func() bool {
			return env.systems["occ"].OCC.ActiveTxns() == 0
		})
	})
}

// TestPreparedStmtLifecycle checks COM_STMT_CLOSE frees server resources and
// the registry cap rejects with 1461.
func TestPreparedStmtLifecycle(t *testing.T) {
	env := startServer(t, Config{})
	c := env.dial(t, "hier")

	count := func() int64 {
		v, err := c.SysVar("synergy_prepared_stmts")
		if err != nil {
			t.Fatal(err)
		}
		return v.(int64)
	}

	st1, err := c.Prepare(testSelect)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Prepare("UPDATE Root SET RVal = ? WHERE RID = ?")
	if err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 2 {
		t.Fatalf("prepared count %d, want 2", got)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	// COM_STMT_CLOSE has no response; the next sysvar round-trip proves it
	// was processed in order.
	if got := count(); got != 1 {
		t.Fatalf("prepared count after close %d, want 1", got)
	}
	if err := st2.Exec("still-works", int64(1)); err != nil {
		t.Fatalf("surviving statement broken: %v", err)
	}

	for i := int64(1); count() < maxPreparedStmts; i++ {
		if _, err := c.Prepare(testSelect); err != nil {
			t.Fatal(err)
		}
	}
	_, err = c.Prepare(testSelect)
	var me *MySQLError
	if !errors.As(err, &me) || me.Code != errTooManyStmts {
		t.Fatalf("want error %d at the cap, got %v", errTooManyStmts, err)
	}
}

// TestAdmissionQueue fills the execution slots, checks overflow queues (not
// errors), and past the queue bound rejects cleanly with 1040.
func TestAdmissionQueue(t *testing.T) {
	env := startServer(t, Config{Slots: 1, Queue: 2})
	gate := env.srv.gate
	if !gate.TryAcquire() {
		t.Fatal("could not occupy the slot")
	}

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		c := env.dial(t, "hier")
		go func(c *Client) {
			_, err := c.Query("SELECT RVal FROM Root WHERE RID = 1")
			done <- err
		}(c)
	}
	waitFor(t, "two queued statements", func() bool { return gate.Waiting() == 2 })

	// Queue is at its bound: the next statement is refused, not queued.
	over := env.dial(t, "hier")
	_, err := over.Query("SELECT RVal FROM Root WHERE RID = 1")
	var me *MySQLError
	if !errors.As(err, &me) || me.Code != errConCount {
		t.Fatalf("want rejection %d, got %v", errConCount, err)
	}
	// The rejected connection is still usable (clean rejection, no hangup).
	if err := over.Ping(); err != nil {
		t.Fatalf("connection broken after rejection: %v", err)
	}

	gate.Release()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued statement failed: %v", err)
		}
	}
	st := gate.Stats()
	if st.Queued != 2 || st.Rejected != 1 {
		t.Fatalf("gate stats %+v, want Queued=2 Rejected=1", st)
	}
}

// TestConnCap checks the connection-level cap answers the handshake with
// 1040 instead of accepting.
func TestConnCap(t *testing.T) {
	env := startServer(t, Config{MaxConns: 1})
	env.dial(t, "hier") // occupies the only slot
	_, err := Dial("inproc", env.addr, "test", "hier")
	var me *MySQLError
	if !errors.As(err, &me) || me.Code != errConCount {
		t.Fatalf("want connect rejection %d, got %v", errConCount, err)
	}
	if got := env.srv.Stats().RejectedConns; got != 1 {
		t.Fatalf("RejectedConns %d, want 1", got)
	}
}

// TestSessionVariables covers mode/reads switching and the sim-cost
// introspection contract.
func TestSessionVariables(t *testing.T) {
	env := startServer(t, Config{})
	c := env.dial(t, "hier")

	if v, _ := c.SysVar("synergy_mode"); v != "hier" {
		t.Fatalf("initial mode %v", v)
	}
	if err := c.Exec("SET synergy_mode = 'occ'"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.SysVar("synergy_mode"); v != "occ" {
		t.Fatalf("mode after switch %v", v)
	}
	if err := c.Exec("SET synergy_mode = 'nope'"); err == nil {
		t.Fatal("unknown mode accepted")
	}
	// Mid-transaction switches are refused.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec("SET synergy_mode = 'hier'"); err == nil {
		t.Fatal("mid-txn mode switch accepted")
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}

	if err := c.Exec("SET synergy_reads = 'watermark'"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.SysVar("synergy_reads"); v != "watermark" {
		t.Fatalf("reads %v", v)
	}
	if err := c.Exec("SET synergy_reads = 'sometimes'"); err == nil {
		t.Fatal("bad reads value accepted")
	}

	// Unknown SETs are tolerated (client handshake chatter)...
	if err := c.Exec("SET NAMES utf8"); err != nil {
		t.Fatal(err)
	}
	// ...but unknown sysvar reads are not.
	if _, err := c.SysVar("no_such_thing"); err == nil {
		t.Fatal("unknown sysvar read accepted")
	}

	// Introspection is charge-free: back-to-back reads return the same
	// accumulated cost, and work strictly grows it.
	a, err := c.SimMicros()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := c.SimMicros()
	if a != b {
		t.Fatalf("sysvar read charged cost: %d then %d", a, b)
	}
	if _, err := c.Query("SELECT RVal FROM Root WHERE RID = 1"); err != nil {
		t.Fatal(err)
	}
	after, _ := c.SimMicros()
	if after <= a {
		t.Fatalf("query did not accrue cost: %d -> %d", a, after)
	}
}

// TestModeSwitchKeepsReadsContract: `SET synergy_reads` survives
// `SET synergy_mode`. After the rebind the session must still wait for the
// watermark — a read against a paused changefeed blocks, comes back fresh and
// is charged the wait — and @@synergy_reads must say what the reads do. (The
// rebind used to open the new session at the backend's default, ReadStale,
// while @@synergy_reads went on answering "watermark".)
func TestModeSwitchKeepsReadsContract(t *testing.T) {
	env := startServerOn(t, Config{}, synergy.Config{Maintenance: synergy.AsyncMaintenance})
	sys := env.systems["mvcc"]
	c := env.dial(t, "hier")
	if err := c.Exec("SET synergy_reads = 'watermark'"); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec("SET synergy_mode = 'mvcc'"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.SysVar("synergy_reads"); v != "watermark" {
		t.Fatalf("@@synergy_reads after the switch = %v, want watermark", v)
	}

	sys.Feed.Pause()
	if err := sys.Exec(sim.NewCtx(), sqlparser.MustParse("UPDATE Root SET RVal = 'pending' WHERE RID = 1"), nil); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT * FROM Root as r, Leaf as l WHERE r.RID = l.L_RID and l.LVal = 'l1'"
	before, _ := c.SimMicros()
	got := make(chan *phoenix.ResultSet, 1)
	go func() {
		rs, err := c.Query(q)
		if err != nil {
			t.Error(err)
		}
		got <- rs
	}()
	select {
	case <-got:
		t.Fatal("read returned while the changefeed was paused: the session reads stale, @@synergy_reads says watermark")
	case <-time.After(50 * time.Millisecond):
	}
	sys.Feed.Resume()
	rs := <-got
	if rs == nil || len(rs.Rows) != 1 || rs.Rows[0]["RVal"] != "pending" {
		t.Fatalf("watermark read = %v, want the applied update", rs)
	}
	waited, _ := c.SimMicros()
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	again, _ := c.SimMicros()
	if waited-before <= again-waited {
		t.Fatalf("blocked read charged %d sim-us, the same read with nothing to wait for %d: the wait was not charged",
			waited-before, again-waited)
	}

	// A client that never chose gets each backend's own default.
	d := env.dial(t, "hier")
	if err := d.Exec("SET synergy_mode = 'occ'"); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.SysVar("synergy_reads"); v != "default" {
		t.Fatalf("@@synergy_reads without a SET = %v, want default", v)
	}
}

// TestLockTimeoutMapsTo1205: the lock manager's give-up reaches the client as
// 1205, recognised by errors.Is — and an unrelated error whose text merely
// echoes the give-up's old wording does not.
func TestLockTimeoutMapsTo1205(t *testing.T) {
	env := startServer(t, Config{})
	env.systems["hier"].Locks.MaxAttempts = 3
	a, b := env.dial(t, "hier"), env.dial(t, "hier")
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := a.Exec("UPDATE Root SET RVal = 'held' WHERE RID = 1"); err != nil {
		t.Fatal(err)
	}
	err := b.Exec("UPDATE Root SET RVal = 'blocked' WHERE RID = 1")
	var me *MySQLError
	if !errors.As(err, &me) || me.Code != errLockWait {
		t.Fatalf("contended write = %v, want error %d", err, errLockWait)
	}
	if err := a.Rollback(); err != nil {
		t.Fatal(err)
	}

	err = b.Exec("UPDATE Root SET RVal = 'x' WHERE RVal > 'too many attempts'")
	if !errors.As(err, &me) || me.Code != errUnknown {
		t.Fatalf("unsupported WHERE echoing the phrase = %v, want error %d, not a lock timeout", err, errUnknown)
	}
}

// TestAutocommitToggle checks SET autocommit=0 opens implicit transactions
// and =1 commits the open one.
func TestAutocommitToggle(t *testing.T) {
	env := startServer(t, Config{})
	c := env.dial(t, "mvcc")
	if err := c.Exec("SET autocommit = 0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec("INSERT INTO Leaf (LID, L_RID, LVal) VALUES (700, 1, 'implicit')"); err != nil {
		t.Fatal(err)
	}
	// The write is buffered in the implicit transaction; SET autocommit=1
	// commits it (MySQL semantics).
	if err := c.Exec("SET autocommit = 1"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare(testSelect)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := st.Query("implicit")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("implicit transaction not committed: %v", rs.Rows)
	}
}

// TestConflictMapsTo1213 drives two overlapping optimistic transactions and
// checks the loser surfaces as MySQL error 1213 / SQLSTATE 40001.
func TestConflictMapsTo1213(t *testing.T) {
	env := startServer(t, Config{})
	a := env.dial(t, "occ")
	b := env.dial(t, "occ")
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := a.Exec("UPDATE Root SET RVal = 'a' WHERE RID = 1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := b.Exec("UPDATE Root SET RVal = 'b' WHERE RID = 1"); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	err := b.Commit()
	var me *MySQLError
	if !errors.As(err, &me) || me.Code != errDeadlock || me.SQLState != "40001" {
		t.Fatalf("want 1213/40001 conflict, got %v", err)
	}
}

// TestConcurrentSessions hammers every backend from concurrent connections
// on disjoint key ranges; run under -race in CI.
func TestConcurrentSessions(t *testing.T) {
	env := startServer(t, Config{})
	const workers, iters = 8, 5
	modes := []string{"hier", "mvcc", "occ"}
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		mode := modes[w%len(modes)]
		base := int64(1000 + 100*w)
		c := env.dial(t, mode)
		go func(c *Client, base int64) {
			done <- func() error {
				st, err := c.Prepare("INSERT INTO Leaf (LID, L_RID, LVal) VALUES (?, ?, ?)")
				if err != nil {
					return err
				}
				sel, err := c.Prepare(testSelect)
				if err != nil {
					return err
				}
				for i := int64(0); i < iters; i++ {
					if err := c.Begin(); err != nil {
						return err
					}
					val := fmt.Sprintf("cc-%d-%d", base, i)
					if err := st.Exec(base+i, (base+i)%4+1, val); err != nil {
						return err
					}
					if err := c.Commit(); err != nil {
						return err
					}
					rs, err := sel.Query(val)
					if err != nil {
						return err
					}
					if len(rs.Rows) != 1 {
						return fmt.Errorf("want 1 row for %s, got %d", val, len(rs.Rows))
					}
				}
				return nil
			}()
		}(c, base)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// --------------------------------------------------------------------------
// Unit tests

func TestLencRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 250, 251, 65535, 65536, 1 << 24, 1<<24 + 7, 1 << 40} {
		b := appendLencInt(nil, v)
		got, off, err := readLencInt(b, 0)
		if err != nil || got != v || off != len(b) {
			t.Fatalf("lenc %d: got %d off %d err %v", v, got, off, err)
		}
	}
}

func TestParseDSN(t *testing.T) {
	d, err := parseDSN("app@inproc(bench)/synergy?mode=occ&reads=watermark")
	if err != nil {
		t.Fatal(err)
	}
	want := dsn{user: "app", network: "inproc", addr: "bench", db: "synergy", mode: "occ", reads: "watermark"}
	if d != want {
		t.Fatalf("dsn %+v, want %+v", d, want)
	}
	d, err = parseDSN("tcp(localhost:3306)")
	if err != nil {
		t.Fatal(err)
	}
	if d.user != "synergy" || d.network != "tcp" || d.addr != "localhost:3306" || d.db != "" {
		t.Fatalf("dsn %+v", d)
	}
	if _, err := parseDSN("no-parens"); err == nil {
		t.Fatal("bad DSN accepted")
	}
	if _, err := parseDSN("inproc(x)?bogus=1"); err == nil {
		t.Fatal("unknown param accepted")
	}
}

func TestGateBounds(t *testing.T) {
	g := NewGate(2, 1)
	if q, err := g.Acquire(); err != nil || q {
		t.Fatalf("first acquire queued=%v err=%v", q, err)
	}
	if q, err := g.Acquire(); err != nil || q {
		t.Fatalf("second acquire queued=%v err=%v", q, err)
	}
	queued := make(chan struct{})
	go func() {
		if q, err := g.Acquire(); err != nil || !q {
			panic(fmt.Sprintf("queued acquire queued=%v err=%v", q, err))
		}
		close(queued)
	}()
	waitFor(t, "waiter", func() bool { return g.Waiting() == 1 })
	if _, err := g.Acquire(); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("want ErrServerBusy, got %v", err)
	}
	g.Release()
	<-queued
}

// TestGateNeverRefusesWithinCapacity: slots + queue callers can never
// overflow the gate, however the scheduler interleaves them — at most that
// many are ever inside Acquire..Release at once, and every one of them either
// holds a slot or is queued. (The gate used to take a woken waiter off the
// queue count only once it ran again, so a burst of re-acquires saw a full
// queue and four connections drew ERR 1040 from a 2-slot + 3-queue gate.)
// Run with -cpu 1,2,4 -count=20.
func TestGateNeverRefusesWithinCapacity(t *testing.T) {
	const slots, queue, rounds = 2, 3, 4000
	g := NewGate(slots, queue)
	var wg sync.WaitGroup
	var busy, inside atomic.Int64
	for i := 0; i < slots+queue; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				if _, err := g.Acquire(); err != nil {
					busy.Add(1)
					continue
				}
				if now := inside.Add(1); now > slots {
					t.Errorf("%d callers hold a slot, the gate has %d", now, slots)
				}
				inside.Add(-1)
				g.Release()
			}
		}()
	}
	wg.Wait()
	if n := busy.Load(); n != 0 {
		t.Fatalf("%d of %d acquisitions refused with %d callers on a %d-slot + %d-queue gate",
			n, (slots+queue)*rounds, slots+queue, slots, queue)
	}
	if g.Waiting() != 0 || g.Stats().Rejected != 0 {
		t.Fatalf("gate ended with %d waiting, %d rejected", g.Waiting(), g.Stats().Rejected)
	}
	for i := 0; i < slots; i++ {
		if !g.TryAcquire() {
			t.Fatalf("slot %d lost: only %d of %d came back", i, i, slots)
		}
	}
}

func TestResultSetColumnTypes(t *testing.T) {
	rs := &phoenix.ResultSet{
		Columns: []string{"a", "b", "c", "d"},
		Rows: []schema.Row{
			{"a": nil, "b": int64(1), "c": 1.5, "d": nil},
			{"a": "x", "b": int64(2), "c": 2.5, "d": nil},
		},
	}
	got := rs.ColumnTypes()
	want := []schema.ColType{schema.TString, schema.TInt, schema.TFloat, schema.TString}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ColumnTypes %v, want %v", got, want)
	}
}

// TestAggregateOverNoRowsWire: over the wire, in every concurrency mode and
// both protocols, an aggregate without GROUP BY that no row qualifies for is
// one row — COUNT 0, the rest NULL — over a base table and over the view a
// join is rewritten to; a grouped one is no row.
func TestAggregateOverNoRowsWire(t *testing.T) {
	env := startServer(t, Config{})
	for _, db := range []string{"hier", "mvcc", "occ"} {
		c := env.dial(t, db)
		for _, sql := range []string{
			"SELECT COUNT(*) AS n, MAX(RVal) AS hi, SUM(RID) AS s FROM Root WHERE RID > 100",
			"SELECT COUNT(*) AS n, MIN(l.LVal) AS hi FROM Root as r, Leaf as l WHERE r.RID = l.L_RID and l.LVal = 'nobody'",
		} {
			text, err := c.Query(sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", db, sql, err)
			}
			st, err := c.Prepare(sql)
			if err != nil {
				t.Fatalf("%s: prepare %s: %v", db, sql, err)
			}
			bin, err := st.Query()
			st.Close()
			if err != nil {
				t.Fatalf("%s: execute %s: %v", db, sql, err)
			}
			for proto, rs := range map[string]*phoenix.ResultSet{"text": text, "binary": bin} {
				if len(rs.Rows) != 1 || rs.Rows[0]["n"] != int64(0) || rs.Rows[0]["hi"] != nil {
					t.Fatalf("%s %s: %s: rows %v, want one with n=0 and hi NULL", db, proto, sql, rs.Rows)
				}
			}
		}
		rs, err := c.Query("SELECT RVal, COUNT(*) AS n FROM Root WHERE RID > 100 GROUP BY RVal")
		if err != nil || len(rs.Rows) != 0 {
			t.Fatalf("%s: grouped aggregate over no rows: %v, err %v; want no row", db, rs, err)
		}
	}
}

// TestMidHandshakeDisconnect reads the greeting and drops the connection
// before answering; the server must tear the half-connected client down
// without a session to close (regression: the deferred teardown used to call
// Close on a nil Session and panic the process) and keep serving.
func TestMidHandshakeDisconnect(t *testing.T) {
	env := startServer(t, Config{})

	// Health-check-probe shape: connect, read the greeting, hang up.
	nc, err := DialInproc(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	pc := newPacketConn(nc)
	if _, err := pc.readPacket(); err != nil {
		t.Fatalf("greeting: %v", err)
	}
	nc.Close()

	// Malformed-response shape: the handshake parser must error out, not the
	// teardown.
	nc2, err := DialInproc(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	pc2 := newPacketConn(nc2)
	if _, err := pc2.readPacket(); err != nil {
		t.Fatalf("greeting: %v", err)
	}
	if err := pc2.writePacket([]byte{0x01}); err != nil {
		t.Fatal(err)
	}
	if err := pc2.flush(); err != nil {
		t.Fatal(err)
	}
	nc2.Close()

	waitFor(t, "half-open conns to drain", func() bool {
		return env.srv.Stats().LiveConns == 0
	})

	// The server survived both: a real client still gets full service.
	c := env.dial(t, "hier")
	rs, err := c.Query("SELECT * FROM Root as r, Leaf as l WHERE r.RID = l.L_RID and l.LVal = 'l1'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("post-disconnect query saw %d rows, want 1", len(rs.Rows))
	}
}

// TestGateZeroConfigDefaults: a zero Config must yield the documented
// defaults (8 slots, 16 queued), not a no-queue gate that fast-fails the
// ninth concurrent statement.
func TestGateZeroConfigDefaults(t *testing.T) {
	g := NewGate(0, 0)
	for i := 0; i < 8; i++ {
		if !g.TryAcquire() {
			t.Fatalf("slot %d not free, want 8 default slots", i)
		}
	}
	if g.TryAcquire() {
		t.Fatal("ninth slot free, want exactly 8 default slots")
	}
	queued := make(chan struct{})
	go func() {
		if q, err := g.Acquire(); err != nil || !q {
			panic(fmt.Sprintf("overflow acquire queued=%v err=%v", q, err))
		}
		close(queued)
	}()
	waitFor(t, "waiter", func() bool { return g.Waiting() == 1 })
	g.Release()
	<-queued
}

// TestDecodeUnsignedLonglongOverflow: an unsigned BIGINT above MaxInt64 must
// be refused, not silently wrapped to a negative int64.
func TestDecodeUnsignedLonglongOverflow(t *testing.T) {
	buf := binary.LittleEndian.AppendUint64(nil, math.MaxInt64+1)
	if _, _, err := decodeBinaryValue(buf, 0, typeLonglong, true); err == nil {
		t.Fatal("want out-of-range error for unsigned BIGINT > MaxInt64")
	}
	// MaxInt64 itself still decodes, signed interpretation is untouched.
	buf = binary.LittleEndian.AppendUint64(nil, math.MaxInt64)
	v, _, err := decodeBinaryValue(buf, 0, typeLonglong, true)
	if err != nil || v != int64(math.MaxInt64) {
		t.Fatalf("MaxInt64 decode = %v, %v", v, err)
	}
	buf = binary.LittleEndian.AppendUint64(nil, math.MaxUint64) // -1 signed
	v, _, err = decodeBinaryValue(buf, 0, typeLonglong, false)
	if err != nil || v != int64(-1) {
		t.Fatalf("signed -1 decode = %v, %v", v, err)
	}
}

// TestSysVarUncosted: @@var introspection must charge zero simulated cost by
// construction, independent of response size or per-byte rate.
func TestSysVarUncosted(t *testing.T) {
	env := startServer(t, Config{})
	c := env.dial(t, "hier")
	rs, err := c.Query("SELECT @@synergy_sim_micros")
	if err != nil {
		t.Fatal(err)
	}
	before := rs.Rows[0]["@@synergy_sim_micros"].(int64)
	rs, err = c.Query("SELECT @@version")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0]["@@version"] == nil {
		t.Fatal("no @@version row")
	}
	rs, err = c.Query("SELECT @@synergy_sim_micros")
	if err != nil {
		t.Fatal(err)
	}
	after := rs.Rows[0]["@@synergy_sim_micros"].(int64)
	if after != before {
		t.Fatalf("sysvar reads charged %d simulated micros, want 0", after-before)
	}
}

// TestUpdateSetNull sends a NULL execute parameter (the binary protocol's null
// bitmap) to an UPDATE in every mode: the assignment takes the value away in
// the base row and in the view row alike, where it used to be dropped.
func TestUpdateSetNull(t *testing.T) {
	env := startServer(t, Config{})
	for _, db := range []string{"hier", "mvcc", "occ"} {
		c := env.dial(t, db)
		up, err := c.Prepare("UPDATE Root SET RVal = ? WHERE RID = ?")
		if err != nil {
			t.Fatal(err)
		}
		if err := up.Exec(nil, int64(1)); err != nil {
			t.Fatalf("%s: UPDATE with a NULL parameter: %v", db, err)
		}
		base, err := c.Query("SELECT RID, RVal FROM Root WHERE RID = 1")
		if err != nil || len(base.Rows) != 1 || base.Rows[0]["RVal"] != nil || base.Rows[0]["RID"] != int64(1) {
			t.Errorf("%s: base row after SET RVal = NULL: %v, err %v", db, base, err)
		}
		sel, err := c.Prepare(testSelect)
		if err != nil {
			t.Fatal(err)
		}
		view, err := sel.Query("l1")
		if err != nil || len(view.Rows) != 1 || view.Rows[0]["RVal"] != nil || view.Rows[0]["LVal"] != "l1" {
			t.Errorf("%s: view row after SET RVal = NULL: %v, err %v", db, view, err)
		}
		// A value again: the tombstone does not outlive a newer put.
		if err := up.Exec("again", int64(1)); err != nil {
			t.Fatal(err)
		}
		if view, err = sel.Query("l1"); err != nil || len(view.Rows) != 1 || view.Rows[0]["RVal"] != "again" {
			t.Errorf("%s: view row after SET RVal = 'again': %v, err %v", db, view, err)
		}
	}
}

// TestNumericKeyConstants: a client that binds every number as a DOUBLE — the
// binary protocol's MYSQL_TYPE_DOUBLE, what a JavaScript driver sends — reads,
// updates and inserts rows under INT keys as one that binds integers does, in
// every mode, view maintenance included. A fraction names no row of an INT
// key: a read and an update match nothing, an insert is refused.
func TestNumericKeyConstants(t *testing.T) {
	env := startServer(t, Config{})
	for _, db := range []string{"hier", "mvcc", "occ"} {
		c := env.dial(t, db)
		prepare := func(sql string) *ClientStmt {
			t.Helper()
			st, err := c.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		sel := prepare("SELECT RID, RVal FROM Root WHERE RID = ?")
		if rs, err := sel.Query(float64(2)); err != nil || len(rs.Rows) != 1 || rs.Rows[0]["RID"] != int64(2) || rs.Rows[0]["RVal"] != "r2" {
			t.Errorf("%s: SELECT … WHERE RID = DOUBLE 2: %v, err %v", db, rs, err)
		}
		if rs, err := sel.Query(2.5); err != nil || len(rs.Rows) != 0 {
			t.Errorf("%s: SELECT … WHERE RID = DOUBLE 2.5: %v, err %v", db, rs, err)
		}
		up := prepare("UPDATE Root SET RVal = ? WHERE RID = ?")
		if err := up.Exec("by double", float64(2)); err != nil {
			t.Fatalf("%s: UPDATE … WHERE RID = DOUBLE 2: %v", db, err)
		}
		if err := up.Exec("by fraction", 2.5); err != nil {
			t.Errorf("%s: UPDATE … WHERE RID = DOUBLE 2.5 must match no row, not fail: %v", db, err)
		}
		view := prepare(testSelect)
		if rs, err := view.Query("l2"); err != nil || len(rs.Rows) != 1 || rs.Rows[0]["RVal"] != "by double" {
			t.Errorf("%s: view row after the update by a DOUBLE key: %v, err %v", db, rs, err)
		}
		ins := prepare("INSERT INTO Leaf (LID, L_RID, LVal) VALUES (?, ?, ?)")
		if err := ins.Exec(float64(9), float64(2), "l9"); err != nil {
			t.Fatalf("%s: INSERT with DOUBLE keys: %v", db, err)
		}
		if rs, err := c.Query("SELECT LID, L_RID FROM Leaf WHERE LID = 9"); err != nil || len(rs.Rows) != 1 || rs.Rows[0]["LID"] != int64(9) || rs.Rows[0]["L_RID"] != int64(2) {
			t.Errorf("%s: the row inserted as LID 9.0, read by the integer: %v, err %v", db, rs, err)
		}
		if rs, err := view.Query("l9"); err != nil || len(rs.Rows) != 1 || rs.Rows[0]["RVal"] != "by double" || rs.Rows[0]["LID"] != int64(9) {
			t.Errorf("%s: view row of the leaf inserted with DOUBLE keys: %v, err %v", db, rs, err)
		}
		if err := ins.Exec(9.5, float64(2), "l9.5"); err == nil {
			t.Errorf("%s: INSERT of LID 9.5 into an INT key was accepted", db)
		}
	}
}
