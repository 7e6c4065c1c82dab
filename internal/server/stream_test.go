package server

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

// collectStream drains one query through the streaming client API, returning
// the decoded result.
func collectStream(t *testing.T, c *Client, sql string) (cols []string, rows []schema.Row) {
	t.Helper()
	rs, err := c.QueryStream(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	cols = append(cols, rs.Columns()...)
	for rs.Next() {
		row, err := rs.Row()
		if err != nil {
			t.Fatalf("%s: row: %v", sql, err)
		}
		rows = append(rows, row)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("%s: close: %v", sql, err)
	}
	return cols, rows
}

// materialized is the in-process answer to sql on sys: the rows the engine
// returns without a wire in between, fully buffered and decoded.
func materialized(t *testing.T, sys *synergy.System, sql string, params ...schema.Value) *phoenix.ResultSet {
	t.Helper()
	rs, err := sys.Query(sim.NewCtx(), sqlparser.MustParse(sql).(*sqlparser.SelectStmt), params)
	if err != nil {
		t.Fatalf("%s: in-process: %v", sql, err)
	}
	return rs
}

// TestStreamedMaterializedParity runs every result-set shape against every
// backend and requires the streamed wire result to agree exactly with the
// materialized in-process one (System.Query): same columns, same rows in the
// same order. The row packet bytes are pinned by wire_bytes.golden.
func TestStreamedMaterializedParity(t *testing.T) {
	env := startServer(t, Config{})
	shapes := []struct{ name, sql string }{
		{"point", "SELECT * FROM Root WHERE RID = 2"},
		{"scan", "SELECT * FROM Leaf"},
		{"projection", "SELECT LID, LVal FROM Leaf"},
		{"limit", "SELECT * FROM Leaf LIMIT 2"},
		{"order-by", "SELECT LID FROM Leaf ORDER BY LID DESC LIMIT 3"},
		{"group-by", "SELECT L_RID, COUNT(*) AS n FROM Leaf GROUP BY L_RID"},
		{"aggregate", "SELECT COUNT(*) AS n, MAX(LID) AS hi FROM Leaf"},
		{"join", "SELECT * FROM Root as r, Leaf as l WHERE r.RID = l.L_RID and l.LVal = 'l3'"},
	}
	for _, mode := range []string{"hier", "mvcc", "occ"} {
		t.Run(mode, func(t *testing.T) {
			c := env.dial(t, mode)
			for _, shape := range shapes {
				t.Run(shape.name, func(t *testing.T) {
					cols, rows := collectStream(t, c, shape.sql)
					want := materialized(t, env.systems[mode], shape.sql)
					if !reflect.DeepEqual(cols, want.Columns) {
						t.Fatalf("columns diverge: streamed %v, materialized %v", cols, want.Columns)
					}
					if !reflect.DeepEqual(rows, want.Rows) {
						t.Fatalf("rows diverge:\nstreamed     %v\nmaterialized %v", rows, want.Rows)
					}
					if len(rows) == 0 {
						t.Fatal("shape returned no rows; the parity check is vacuous")
					}
				})
			}
		})
	}
}

// TestStreamedBinaryParity repeats the parity check over the binary row
// protocol (prepared statements), where the encoders differ the most.
func TestStreamedBinaryParity(t *testing.T) {
	env := startServer(t, Config{})
	for _, mode := range []string{"hier", "mvcc", "occ"} {
		c := env.dial(t, mode)
		st, err := c.Prepare(testSelect)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := st.QueryStream("l2")
		if err != nil {
			t.Fatal(err)
		}
		var rows []schema.Row
		for rs.Next() {
			row, err := rs.Row()
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
		if err := rs.Close(); err != nil {
			t.Fatal(err)
		}
		want := materialized(t, env.systems[mode], testSelect, "l2")
		if !reflect.DeepEqual(rows, want.Rows) || len(rows) == 0 {
			t.Fatalf("%s: binary rows diverge:\nstreamed     %v\nmaterialized %v", mode, rows, want.Rows)
		}
		st.Close()
	}
}

// TestStreamInTransaction checks a streamed read inside an explicit
// transaction sees the transaction's own buffered write.
func TestStreamInTransaction(t *testing.T) {
	env := startServer(t, Config{})
	for _, mode := range []string{"hier", "mvcc", "occ"} {
		c := env.dial(t, mode)
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		val := "stream-txn-" + mode
		if err := c.Exec(fmt.Sprintf(
			"INSERT INTO Leaf (LID, L_RID, LVal) VALUES (900, 1, '%s')", val)); err != nil {
			t.Fatal(err)
		}
		_, rows := collectStream(t, c,
			fmt.Sprintf("SELECT * FROM Root as r, Leaf as l WHERE r.RID = l.L_RID and l.LVal = '%s'", val))
		if len(rows) != 1 {
			t.Fatalf("%s: streamed in-txn read saw %d rows, want 1 (own write)", mode, len(rows))
		}
		if err := c.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}

// streamScanServer serves one MVCC-mode system with a table big enough that
// the server must block mid-stream on the unbuffered in-process pipe (the
// response far exceeds the 4 KiB write buffer).
func streamScanServer(t *testing.T, rows int) (*testEnv, *synergy.System) {
	t.Helper()
	sys := bigSystem(t, rows, synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16})
	return serveBig(t, sys, t.Name(), nil), sys
}

// bigSystem deploys cfg with one table, Big, of rows rows.
func bigSystem(t *testing.T, rows int, cfg synergy.Config) *synergy.System {
	t.Helper()
	s := schema.New()
	s.AddRelation(&schema.Relation{
		Name: "Big",
		Columns: []schema.Column{
			{Name: "K", Type: schema.TInt},
			{Name: "V", Type: schema.TString},
		},
		PK: []string{"K"},
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	sys, err := synergy.New(s, []string{"Big"}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]schema.Row, 0, rows)
	for i := 1; i <= rows; i++ {
		data = append(data, schema.Row{"K": int64(i), "V": fmt.Sprintf("padding-%06d", i)})
	}
	if err := sys.LoadBase("Big", data); err != nil {
		t.Fatal(err)
	}
	if err := sys.BuildViews(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// serveBig serves sys as backend "big" at the in-process address addr,
// charging the wire at costs (nil: the defaults).
func serveBig(t *testing.T, sys *synergy.System, addr string, costs *sim.Costs) *testEnv {
	t.Helper()
	srv, err := New(Config{Backends: []Backend{{Name: "big", System: sys}}, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	env := &testEnv{srv: srv, addr: addr}
	l, err := ListenInproc(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return env
}

// TestStreamClientDisconnectMidScan hangs up while the server is blocked
// writing row packets. The write error must propagate: the cursor closes
// (releasing the scanner and its pooled chunk), the MVCC autocommit
// transaction unpins, the connection tears down, and no goroutine leaks —
// the -race run is what gives the leak check teeth.
func TestStreamClientDisconnectMidScan(t *testing.T) {
	env, sys := streamScanServer(t, 4000)
	before := runtime.NumGoroutine()

	c, err := Dial("inproc", env.addr, "test", "big")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.QueryStream("SELECT * FROM Big")
	if err != nil {
		t.Fatal(err)
	}
	// Read a few rows to prove streaming started, then vanish. The server is
	// deep in the result set with tens of KiB still unsent: it is blocked in
	// a row packet write, not done and waiting for the next command.
	for i := 0; i < 3; i++ {
		if !rs.Next() {
			t.Fatalf("stream ended after %d rows", i)
		}
	}
	c.nc.Close()

	waitFor(t, "connection teardown", func() bool { return env.srv.Stats().LiveConns == 0 })
	waitFor(t, "mvcc autocommit txn release", func() bool {
		return sys.MVCCServer.ActiveTxns() == 0
	})
	waitFor(t, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= before
	})

	// The server survived: a fresh connection streams the whole table.
	c2, err := Dial("inproc", env.addr, "test", "big")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, rows := collectStream(t, c2, "SELECT * FROM Big")
	if len(rows) != 4000 {
		t.Fatalf("post-disconnect scan saw %d rows, want 4000", len(rows))
	}
}

// TestStreamClientCloseEarlyDrains checks ClientRows.Close after a partial
// read drains the rest of the result set (the protocol has no mid-result
// abort) and leaves the connection synchronized for the next command.
func TestStreamClientCloseEarlyDrains(t *testing.T) {
	env, _ := streamScanServer(t, 1000)
	c, err := Dial("inproc", env.addr, "test", "big")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.QueryStream("SELECT * FROM Big")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !rs.Next() {
			t.Fatal("stream ended early")
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	// The connection is still in sync: the next query sees every row.
	_, rows := collectStream(t, c, "SELECT * FROM Big")
	if len(rows) != 1000 {
		t.Fatalf("post-early-close scan saw %d rows, want 1000", len(rows))
	}
}

// TestStreamTTFR checks the time-to-first-row sysvar: statement-relative,
// measured, and strictly below the statement's whole simulated cost over a
// 4,000-row scan — the first row goes out after one region chunk, not after
// the result was buffered.
func TestStreamTTFR(t *testing.T) {
	env, _ := streamScanServer(t, 4000)
	c, err := Dial("inproc", env.addr, "test", "big")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before, err := c.SimMicros()
	if err != nil {
		t.Fatal(err)
	}
	_, rows := collectStream(t, c, "SELECT * FROM Big")
	if len(rows) != 4000 {
		t.Fatalf("scan saw %d rows", len(rows))
	}
	after, err := c.SimMicros()
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.SysVar("synergy_sim_ttfr_micros")
	if err != nil {
		t.Fatal(err)
	}
	ttfr, total := v.(int64), after-before
	if ttfr <= 0 || ttfr >= total {
		t.Fatalf("ttfr %d sim-µs, statement %d sim-µs: want 0 < ttfr < statement", ttfr, total)
	}
}

// TestConcurrentStreaming hammers the streamed path from 8 connections
// across every backend mode at once; run under -race in CI. Each worker
// interleaves streamed scans with writes so cursors and transactions mix.
func TestConcurrentStreaming(t *testing.T) {
	env := startServer(t, Config{})
	const workers, iters = 8, 5
	modes := []string{"hier", "mvcc", "occ"}
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		mode := modes[w%len(modes)]
		base := int64(2000 + 100*w)
		c := env.dial(t, mode)
		go func(c *Client, base int64) {
			done <- func() error {
				for i := int64(0); i < iters; i++ {
					val := fmt.Sprintf("cs-%d-%d", base, i)
					if err := c.Exec(fmt.Sprintf(
						"INSERT INTO Leaf (LID, L_RID, LVal) VALUES (%d, %d, '%s')",
						base+i, (base+i)%4+1, val)); err != nil {
						return err
					}
					rs, err := c.QueryStream(fmt.Sprintf(
						"SELECT * FROM Root as r, Leaf as l WHERE r.RID = l.L_RID and l.LVal = '%s'", val))
					if err != nil {
						return err
					}
					n := 0
					for rs.Next() {
						n++
					}
					if err := rs.Close(); err != nil {
						return err
					}
					if n != 1 {
						return fmt.Errorf("want 1 row for %s, got %d", val, n)
					}
					// Unlimited streamed scan with rows from every worker in
					// flight.
					rs, err = c.QueryStream("SELECT * FROM Leaf")
					if err != nil {
						return err
					}
					for rs.Next() {
					}
					if err := rs.Close(); err != nil {
						return err
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
