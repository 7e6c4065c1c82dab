package server

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/synergy"
)

// serveSystem serves sys as the only backend of a server on an in-process
// listener named after the test and returns a client connected to it.
func serveSystem(t *testing.T, sys *synergy.System) *Client {
	t.Helper()
	return serveBackends(t, Backend{Name: "sys", System: sys})
}

// serveBackends is serveSystem over several backends, the first the default.
func serveBackends(t *testing.T, backends ...Backend) *Client {
	t.Helper()
	srv, err := New(Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ListenInproc(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	c, err := Dial("inproc", t.Name(), "test", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestAggregateColumnTypeFromPlan is the regression for result columns typed
// from their first row: SUM over a float column whose first group sums to a
// whole number (an int64 in the executor) and whose second does not used to
// be declared LONGLONG and then carry 2.75 — as text the client could not
// parse, or inside a binary row as a lenc string read as eight integer bytes.
// Column types now come from the plan, a whole sum in a DOUBLE column is sent
// as a double, and a column that is NULL in every row has its declared type,
// as it always had on the streamed single-table path.
func TestAggregateColumnTypeFromPlan(t *testing.T) {
	s := schema.New()
	s.AddRelation(&schema.Relation{
		Name: "P",
		Columns: []schema.Column{
			{Name: "PID", Type: schema.TInt}, {Name: "G", Type: schema.TInt},
			{Name: "Amt", Type: schema.TFloat}, {Name: "Qty", Type: schema.TInt},
			{Name: "Disc", Type: schema.TFloat}, {Name: "Note", Type: schema.TString},
		},
		PK: []string{"PID"},
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT G, SUM(Amt) AS total, MAX(Qty) AS q, AVG(Qty) AS aq, MIN(Disc) AS d, MAX(Note) AS n, COUNT(Note) AS c FROM P GROUP BY G"
	sys, err := synergy.New(s, []string{"P"}, []string{sql}, synergy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Qty, Disc and Note are never set: NULL in every row.
	if err := sys.LoadBase("P", []schema.Row{
		{"PID": int64(1), "G": int64(1), "Amt": 1.5},
		{"PID": int64(2), "G": int64(1), "Amt": 2.5},
		{"PID": int64(3), "G": int64(2), "Amt": 2.75},
	}); err != nil {
		t.Fatal(err)
	}
	c := serveSystem(t, sys)

	wantTypes := []byte{typeLonglong, typeDouble, typeLonglong, typeDouble, typeDouble, typeVarString, typeLonglong}
	wantRows := [][]schema.Value{
		{int64(1), 4.0, nil, nil, nil, nil, int64(0)},
		{int64(2), 2.75, nil, nil, nil, nil, int64(0)},
	}
	for _, proto := range []string{"text", "binary"} {
		var rs *ClientRows
		if proto == "text" {
			rs, err = c.QueryStream(sql)
		} else {
			var st *ClientStmt
			if st, err = c.Prepare(sql); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			rs, err = st.QueryStream()
		}
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !reflect.DeepEqual(rs.types, wantTypes) {
			t.Errorf("%s: column types %x, want %x", proto, rs.types, wantTypes)
		}
		var rows [][]schema.Value
		for rs.Next() {
			vals, err := rs.Values()
			if err != nil {
				t.Fatalf("%s: row %d: %v", proto, len(rows), err)
			}
			rows = append(rows, append([]schema.Value(nil), vals...))
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("%s: rows %#v, want %#v", proto, rows, wantRows)
		}
	}
}

// TestNumericPromotionOnTheWire pins the encoder's rule for a number in a
// numeric column of the other kind — it takes the column's kind — over both
// protocols.
func TestNumericPromotionOnTheWire(t *testing.T) {
	f64 := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
	i64 := func(x int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(x)) }
	for _, tc := range []struct {
		v        schema.Value
		wireType byte
		binary   bool
		want     []byte
	}{
		{int64(4), typeDouble, true, f64(4)},
		{2.75, typeLonglong, true, i64(2)},
		{int64(4000000), typeDouble, false, []byte("\x074000000")}, // digits, not 4e+06: same bytes as in a LONGLONG column
		{-2.75, typeLonglong, false, []byte("\x02-2")},
		{int64(4), typeLonglong, true, i64(4)},
		{2.75, typeDouble, true, f64(2.75)},
		{2.75, typeDouble, false, []byte("\x042.75")},
		{int64(7), typeVarString, true, []byte("\x017")},
		{"x", typeLonglong, true, []byte("\x01x")},
	} {
		if got := appendValue(nil, tc.wireType, tc.binary, phoenix.EncodeValue(tc.v)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("appendValue(%#v, type %#x, binary=%v) = %q, want %q", tc.v, tc.wireType, tc.binary, got, tc.want)
		}
	}
}

// fakeServer accepts one connection on l, handshakes, and answers each
// command with the packets reply returns for it (none = no response).
func fakeServer(t *testing.T, l *InprocListener, reply func(cmd []byte) [][]byte) {
	t.Helper()
	nc, err := l.Accept()
	if err != nil {
		return
	}
	defer nc.Close()
	pc := newPacketConn(nc)
	send := func(pkts ...[]byte) bool {
		for _, p := range pkts {
			if pc.writePacket(p) != nil {
				return false
			}
		}
		return pc.flush() == nil
	}
	if !send([]byte{0x0a, 'f', 'a', 'k', 'e', 0}) {
		return
	}
	if _, err := pc.readPacketInto(nil); err != nil {
		return
	}
	if !send(appendOK(nil, 0, statusAutocommit, "")) {
		return
	}
	for {
		pc.resetSeq()
		cmd, err := pc.readPacketInto(nil)
		if err != nil || cmd[0] == comQuit || !send(reply(cmd)...) {
			return
		}
	}
}

// TestClientRealignsAfterDecodeError hands the client result sets whose
// second row does not decode under the declared column type — what a server
// that mistypes a column sends — and checks every reading API reports the
// error with the rest of the result set consumed: the next statement on the
// same connection gets its own answer. The client used to return with row
// packets unread, parse them as the next response, and hang in Close.
func TestClientRealignsAfterDecodeError(t *testing.T) {
	l, err := ListenInproc(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	eof := appendEOF(nil, statusAutocommit)
	resultSet := func(rows ...[]byte) [][]byte {
		pkts := [][]byte{{1}, appendColumnDef(nil, "n", typeLonglong), eof}
		return append(append(pkts, rows...), eof)
	}
	go fakeServer(t, l, func(cmd []byte) [][]byte {
		switch {
		case cmd[0] == comStmtPrepare:
			return [][]byte{{0x00, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}} // id 1, no columns, no params
		case cmd[0] == comStmtClose:
			return nil
		case cmd[0] == comStmtExecute:
			good := binary.LittleEndian.AppendUint64([]byte{0x00, 0x00}, 1)
			return resultSet(good, []byte{0x01, 0x00, 'b', 'a', 'd'}, good)
		case string(cmd[1:]) == "bad":
			return resultSet([]byte("\x011"), []byte("\x042.75"), []byte("\x013"))
		default:
			return resultSet([]byte("\x017"))
		}
	})
	c, err := Dial("inproc", t.Name(), "test", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare("bad")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	aligned := func(after string) {
		t.Helper()
		rs, err := c.Query("good")
		if err != nil || len(rs.Rows) != 1 || rs.Rows[0]["n"] != int64(7) {
			t.Fatalf("statement after %s: rows %v, err %v; want its own one row n=7", after, rs, err)
		}
	}
	if _, err := c.Query("bad"); err == nil {
		t.Fatal("Client.Query decoded 2.75 as a LONGLONG")
	}
	aligned("Client.Query")
	if _, err := st.Query(); err == nil {
		t.Fatal("ClientStmt.Query decoded a malformed binary row")
	}
	aligned("ClientStmt.Query")

	rows, err := c.QueryStream("bad")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var decodeErr error
	for rows.Next() {
		if _, decodeErr = rows.Values(); decodeErr != nil {
			break
		}
		n++
	}
	if n != 1 || decodeErr == nil || rows.Next() || rows.Err() != decodeErr || rows.Close() != decodeErr {
		t.Fatalf("ClientRows: %d rows before %v, then Err %v; want 1 row, the decode error, and it to stick", n, decodeErr, rows.Err())
	}
	aligned("ClientRows.Values")
}

// TestClientStmtHeaderReuse runs one prepared statement against a server
// whose answer changes shape: an execution whose column definitions equal the
// previous one's shares its names and types, and one whose definitions differ
// — a type alone, then the column count — is parsed afresh and decodes under
// the new header, without disturbing a result set still held from before.
func TestClientStmtHeaderReuse(t *testing.T) {
	l, err := ListenInproc(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	eof := appendEOF(nil, statusAutocommit)
	one := binary.LittleEndian.AppendUint64([]byte{0x00, 0x00}, 1)
	half := binary.LittleEndian.AppendUint64([]byte{0x00, 0x00}, math.Float64bits(0.5))
	execs := 0
	go fakeServer(t, l, func(cmd []byte) [][]byte {
		switch cmd[0] {
		case comStmtPrepare:
			return [][]byte{{0x00, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}
		case comStmtExecute:
			execs++
			switch execs {
			case 1, 2:
				return [][]byte{{1}, appendColumnDef(nil, "n", typeLonglong), eof, one, eof}
			case 3:
				return [][]byte{{1}, appendColumnDef(nil, "n", typeDouble), eof, half, eof}
			default:
				return [][]byte{{2}, appendColumnDef(nil, "n", typeLonglong), appendColumnDef(nil, "m", typeLonglong), eof,
					binary.LittleEndian.AppendUint64(one, 2), eof}
			}
		}
		return nil
	})
	c, err := Dial("inproc", t.Name(), "test", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare("shape")
	if err != nil {
		t.Fatal(err)
	}
	var sets []*phoenix.ResultSet
	for i, want := range []schema.Row{{"n": int64(1)}, {"n": int64(1)}, {"n": 0.5}, {"n": int64(1), "m": int64(2)}} {
		rs, err := st.Query()
		if err != nil || len(rs.Rows) != 1 || !reflect.DeepEqual(rs.Rows[0], want) {
			t.Fatalf("execution %d: %v, err %v; want the row %v", i+1, rs, err, want)
		}
		sets = append(sets, rs)
	}
	if &sets[0].Columns[0] != &sets[1].Columns[0] {
		t.Error("an execution with the previous one's definitions parsed its column names again")
	}
	if &sets[1].Columns[0] == &sets[2].Columns[0] || !reflect.DeepEqual(sets[1].Columns, []string{"n"}) ||
		!reflect.DeepEqual(sets[3].Columns, []string{"n", "m"}) {
		t.Errorf("columns %v, %v, %v across a changed header", sets[1].Columns, sets[2].Columns, sets[3].Columns)
	}
}
