package server

import (
	"errors"
	"io"
	"net"
	"testing"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/synergy"
)

// countingConn counts the bytes a client reads off its connection.
type countingConn struct {
	net.Conn
	read int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += n
	return n, err
}

// wireCharge is one statement's charges as a client sees them.
type wireCharge struct {
	cost  int64 // simulated µs the statement added to the session
	bytes int   // the response's bytes on the wire, packet headers included
	ttfr  int64 // @@synergy_sim_ttfr_micros after it
}

// chargeOf runs sql on a fresh connection to addr twice — the first run warms
// the store client — and reports the second run's charges.
func chargeOf(t *testing.T, addr, sql string) wireCharge {
	t.Helper()
	nc, err := DialInproc(addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c, err := NewClient(cc, "test", "big")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	collectStream(t, c, sql)
	before, err := c.SimMicros()
	if err != nil {
		t.Fatal(err)
	}
	read := cc.read
	collectStream(t, c, sql)
	var w wireCharge
	w.bytes = cc.read - read
	after, err := c.SimMicros()
	if err != nil {
		t.Fatal(err)
	}
	w.cost = after - before
	v, err := c.SysVar("synergy_sim_ttfr_micros")
	if err != nil {
		t.Fatal(err)
	}
	w.ttfr = v.(int64)
	return w
}

// wireTwins serves one hierarchical-mode deployment of TestStreamTTFR's
// table through two servers: priced charges the default costs, free the same
// with a link that costs nothing per byte. Their difference on a statement is
// what its bytes cost on the wire.
func wireTwins(t *testing.T) (priced, free string, perByte sim.PerByteCost) {
	t.Helper()
	sys := bigSystem(t, 4000, synergy.Config{})
	costs := sim.DefaultCosts()
	zero := *costs
	zero.WirePerByte = 0
	serveBig(t, sys, t.Name()+"/priced", costs)
	serveBig(t, sys, t.Name()+"/free", &zero)
	return t.Name() + "/priced", t.Name() + "/free", costs.WirePerByte
}

// TestWholeResultPaysEveryByte: a result the tree reads whole at Open — a
// sort, an aggregate — has nothing left to overlap its transfer, so its bytes
// cost exactly WirePerByte each, as one transfer after the read.
func TestWholeResultPaysEveryByte(t *testing.T) {
	priced, free, perByte := wireTwins(t)
	for _, sql := range []string{
		"SELECT * FROM Big ORDER BY V DESC",
		"SELECT COUNT(*) AS n, MAX(V) AS v FROM Big",
	} {
		p, f := chargeOf(t, priced, sql), chargeOf(t, free, sql)
		if p.bytes != f.bytes {
			t.Fatalf("%s: %d bytes priced, %d free", sql, p.bytes, f.bytes)
		}
		if got, want := p.cost-f.cost, int64(perByte.Mul(p.bytes)); got != want {
			t.Fatalf("%s: the wire cost %d sim-µs for %d bytes, want %d", sql, got, p.bytes, want)
		}
	}
}

// TestStreamedScanOverlapsTransfer: the 4,000-row scan streams, so its rows
// drain over the link while the scan reads on. It costs less than the scan
// followed by the transfer, and no less than either alone.
func TestStreamedScanOverlapsTransfer(t *testing.T) {
	priced, free, perByte := wireTwins(t)
	const sql = "SELECT * FROM Big"
	p, f := chargeOf(t, priced, sql), chargeOf(t, free, sql)
	transfer := int64(perByte.Mul(p.bytes))
	if p.cost >= f.cost+transfer {
		t.Fatalf("streamed scan cost %d sim-µs, want less than scan %d + transfer %d", p.cost, f.cost, transfer)
	}
	if p.cost < max(f.cost, transfer) {
		t.Fatalf("streamed scan cost %d sim-µs, below scan %d or transfer %d alone", p.cost, f.cost, transfer)
	}
}

// TestWireChargeKeepsTTFR: the link charges only after the last row, so
// @@synergy_sim_ttfr_micros is what it is without a per-byte cost at all.
func TestWireChargeKeepsTTFR(t *testing.T) {
	priced, free, _ := wireTwins(t)
	for _, sql := range []string{"SELECT * FROM Big", "SELECT * FROM Big ORDER BY V DESC"} {
		p, f := chargeOf(t, priced, sql), chargeOf(t, free, sql)
		if p.ttfr != f.ttfr || p.ttfr <= 0 || p.ttfr >= p.cost {
			t.Fatalf("%s: ttfr %d sim-µs priced, %d free, statement %d: want equal and inside the statement", sql, p.ttfr, f.ttfr, p.cost)
		}
	}
}

var errCursorFailed = errors.New("cursor failed")

// failingCursor yields rows single-int rows, charging perRow to each, and
// then fails: in its iteration, or when Close settles it.
type failingCursor struct {
	rows, n   int
	perRow    sim.Micros
	failClose bool
	cell      []byte
}

func (c *failingCursor) Columns() []string       { return []string{"K"} }
func (c *failingCursor) Types() []schema.ColType { return []schema.ColType{schema.TInt} }
func (c *failingCursor) RawValue(int) []byte     { return c.cell }

func (c *failingCursor) Next(ctx *sim.Ctx) bool {
	if c.n == c.rows {
		return false
	}
	c.n++
	ctx.Charge(c.perRow)
	c.cell = phoenix.AppendValue(c.cell[:0], int64(c.n))
	return true
}

func (c *failingCursor) Err() error {
	if c.n == c.rows && !c.failClose {
		return errCursorFailed
	}
	return nil
}

func (c *failingCursor) Close(*sim.Ctx) error {
	if c.failClose {
		return errCursorFailed
	}
	return nil
}

// TestFailedStreamPaysNoWire: a response that fails mid-stream — its cursor
// errs, or its Close does — charges no per-byte cost, only the cursor's own
// work.
func TestFailedStreamPaysNoWire(t *testing.T) {
	for _, failClose := range []bool{false, true} {
		server, client := net.Pipe()
		go io.Copy(io.Discard, client)
		c := &conn{srv: &Server{costs: sim.DefaultCosts()}, pc: newPacketConn(server), sctx: sim.NewCtx()}
		cur := &failingCursor{rows: 500, perRow: 3, failClose: failClose}
		if err := c.writeCursor(cur, false); !errors.Is(err, errCursorFailed) {
			t.Fatalf("failClose=%v: writeCursor returned %v, want the cursor's error", failClose, err)
		}
		if got, want := c.sctx.Elapsed(), sim.Micros(500*3); got != want {
			t.Fatalf("failClose=%v: failed response charged %v, want the cursor's %v", failClose, got, want)
		}
		server.Close()
		client.Close()
	}
}
