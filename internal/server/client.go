package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"strconv"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
)

// MySQLError is a decoded ERR packet.
type MySQLError struct {
	Code     uint16
	SQLState string
	Message  string
}

func (e *MySQLError) Error() string {
	return fmt.Sprintf("Error %d (%s): %s", e.Code, e.SQLState, e.Message)
}

// Client is a minimal MySQL-protocol client speaking this server's command
// subset. It exists so the benchmark, the examples and the parity tests
// exercise the real byte stream; the database/sql driver wraps it.
type Client struct {
	nc net.Conn
	pc *packetConn
	// pkt is the one packet scratch every response is read through — a
	// response's leading packet, its column definitions, its rows — and defs
	// gathers a result-set header's definitions, each behind its length. One
	// response is in flight per connection, so neither is ever shared.
	pkt, defs []byte
}

// Dial connects and handshakes. Network "inproc" dials a named in-process
// listener; anything else goes through net.Dial. The db name selects the
// backend ("" for the server default).
func Dial(network, addr, user, db string) (*Client, error) {
	var nc net.Conn
	var err error
	if network == "inproc" {
		nc, err = DialInproc(addr)
	} else {
		nc, err = net.Dial(network, addr)
	}
	if err != nil {
		return nil, err
	}
	c, err := NewClient(nc, user, db)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// NewClient handshakes over an established conn.
func NewClient(nc net.Conn, user, db string) (*Client, error) {
	c := &Client{nc: nc, pc: newPacketConn(nc)}
	greeting, err := c.pc.readPacket()
	if err != nil {
		return nil, err
	}
	if len(greeting) == 0 {
		return nil, errShortPacket
	}
	if greeting[0] == 0xff {
		return nil, parseErrPacket(greeting)
	}
	if greeting[0] != 0x0a {
		return nil, fmt.Errorf("server: unexpected handshake version 0x%02x", greeting[0])
	}
	if err := c.pc.writePacket(handshakeResponse(user, db)); err != nil {
		return nil, err
	}
	if err := c.pc.flush(); err != nil {
		return nil, err
	}
	ok, err := c.pc.readPacket()
	if err != nil {
		return nil, err
	}
	if len(ok) > 0 && ok[0] == 0xff {
		return nil, parseErrPacket(ok)
	}
	return c, nil
}

// handshakeResponse builds a protocol-41 client response.
func handshakeResponse(user, db string) []byte {
	caps := uint32(capLongPassword | capProtocol41 | capTransactions | capSecureConn)
	if db != "" {
		caps |= capConnectWithDB
	}
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, caps)
	b = binary.LittleEndian.AppendUint32(b, maxPacketPayload)
	b = append(b, charsetUTF8)
	b = append(b, make([]byte, 23)...)
	b = append(b, user...)
	b = append(b, 0)
	b = append(b, 0) // auth response length (no password)
	if db != "" {
		b = append(b, db...)
		b = append(b, 0)
	}
	return b
}

// Close sends COM_QUIT and closes the conn.
func (c *Client) Close() error {
	c.pc.resetSeq()
	c.pc.writePacket([]byte{comQuit})
	c.pc.flush()
	return c.nc.Close()
}

// Ping round-trips COM_PING.
func (c *Client) Ping() error {
	if err := c.command([]byte{comPing}); err != nil {
		return err
	}
	_, _, err := c.readResult(false, nil)
	return err
}

func (c *Client) command(payload []byte) error {
	c.pc.resetSeq()
	if err := c.pc.writePacket(payload); err != nil {
		return err
	}
	return c.pc.flush()
}

// Exec runs a statement expected to return OK (writes, BEGIN/COMMIT/SET...).
// A result set response is drained and discarded.
func (c *Client) Exec(sql string) error {
	if err := c.command(append([]byte{comQuery}, sql...)); err != nil {
		return err
	}
	_, _, err := c.readResult(false, nil)
	return err
}

// Query runs a SELECT over the text protocol, decoding the rows into typed
// values by column wire type.
func (c *Client) Query(sql string) (*phoenix.ResultSet, error) {
	if err := c.command(append([]byte{comQuery}, sql...)); err != nil {
		return nil, err
	}
	rs, _, err := c.readResult(false, nil)
	if err != nil {
		return nil, err
	}
	if rs == nil {
		return nil, fmt.Errorf("server: statement returned no result set")
	}
	return rs, nil
}

// QueryStream runs a SELECT over the text protocol, returning the rows as an
// incremental reader: each Next consumes one row packet off the wire into a
// reused buffer, so client memory stays constant in the result size and the
// first row is available before the server finished its scan.
func (c *Client) QueryStream(sql string) (*ClientRows, error) {
	if err := c.command(append([]byte{comQuery}, sql...)); err != nil {
		return nil, err
	}
	rows, _, err := c.readResponse(false, nil)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		return nil, fmt.Errorf("server: statement returned no result set")
	}
	return rows, nil
}

// SysVar reads one @@ system variable.
func (c *Client) SysVar(name string) (schema.Value, error) {
	rs, err := c.Query("SELECT @@" + name)
	if err != nil {
		return nil, err
	}
	if len(rs.Rows) != 1 || len(rs.Columns) != 1 {
		return nil, fmt.Errorf("server: malformed sysvar result")
	}
	return rs.Rows[0][rs.Columns[0]], nil
}

// SimMicros reads the session's accumulated simulated cost (charge-free).
func (c *Client) SimMicros() (int64, error) {
	v, err := c.SysVar("synergy_sim_micros")
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("server: non-integer synergy_sim_micros %v", v)
	}
	return n, nil
}

// Begin/Commit/Rollback are conveniences over Exec.
func (c *Client) Begin() error    { return c.Exec("BEGIN") }
func (c *Client) Commit() error   { return c.Exec("COMMIT") }
func (c *Client) Rollback() error { return c.Exec("ROLLBACK") }

// --------------------------------------------------------------------------
// Prepared statements

// ClientStmt is a client-side handle on a server-prepared statement.
type ClientStmt struct {
	c         *Client
	id        uint32
	numParams int
	closed    bool
	// last is the header of the statement's previous result set — before
	// the first, the result shape the prepare response described: the next
	// execution, which nearly always describes the same columns, reuses its
	// names and types instead of parsing them again.
	last header
}

// header is a result set's column names and wire types, with the definition
// packets (as Client.defs gathers them) they were parsed from.
type header struct {
	defs  []byte
	names []string
	types []byte
}

// Prepare sends COM_STMT_PREPARE.
func (c *Client) Prepare(sql string) (*ClientStmt, error) {
	if err := c.command(append([]byte{comStmtPrepare}, sql...)); err != nil {
		return nil, err
	}
	p, err := c.pc.readPacket()
	if err != nil {
		return nil, err
	}
	if len(p) > 0 && p[0] == 0xff {
		return nil, parseErrPacket(p)
	}
	if len(p) < 12 || p[0] != 0x00 {
		return nil, fmt.Errorf("server: malformed prepare response")
	}
	st := &ClientStmt{
		c:         c,
		id:        binary.LittleEndian.Uint32(p[1:5]),
		numParams: int(binary.LittleEndian.Uint16(p[7:9])),
	}
	numCols := int(binary.LittleEndian.Uint16(p[5:7]))
	// The parameter definitions, then the result's column definitions; each
	// block is EOF-terminated.
	if st.numParams > 0 {
		for i := 0; i <= st.numParams; i++ {
			if _, err := c.readPacket(); err != nil {
				return nil, err
			}
		}
	}
	if numCols > 0 {
		if err := c.readDefs(numCols, &st.last); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// NumParams reports the statement's placeholder count.
func (s *ClientStmt) NumParams() int { return s.numParams }

func (s *ClientStmt) execute(args []schema.Value) error {
	if s.closed {
		return fmt.Errorf("server: statement closed")
	}
	if len(args) != s.numParams {
		return fmt.Errorf("server: statement wants %d args, got %d", s.numParams, len(args))
	}
	b := []byte{comStmtExecute}
	b = binary.LittleEndian.AppendUint32(b, s.id)
	b = append(b, 0x00)                        // flags
	b = binary.LittleEndian.AppendUint32(b, 1) // iteration count
	if s.numParams > 0 {
		bitmap := make([]byte, (s.numParams+7)/8)
		for i, a := range args {
			if a == nil {
				bitmap[i/8] |= 1 << (i % 8)
			}
		}
		b = append(b, bitmap...)
		b = append(b, 1) // new params bound
		for _, a := range args {
			switch a.(type) {
			case nil:
				b = append(b, typeNull, 0)
			case int64:
				b = append(b, typeLonglong, 0)
			case float64:
				b = append(b, typeDouble, 0)
			case string:
				b = append(b, typeVarString, 0)
			default:
				return fmt.Errorf("server: unsupported arg type %T", a)
			}
		}
		for _, a := range args {
			switch x := a.(type) {
			case int64:
				b = binary.LittleEndian.AppendUint64(b, uint64(x))
			case float64:
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			case string:
				b = appendLencString(b, x)
			}
		}
	}
	return s.c.command(b)
}

// Exec runs the prepared statement expecting an OK response.
func (s *ClientStmt) Exec(args ...schema.Value) error {
	if err := s.execute(args); err != nil {
		return err
	}
	_, _, err := s.c.readResult(true, &s.last)
	return err
}

// Query runs the prepared statement expecting a binary result set.
func (s *ClientStmt) Query(args ...schema.Value) (*phoenix.ResultSet, error) {
	if err := s.execute(args); err != nil {
		return nil, err
	}
	rs, _, err := s.c.readResult(true, &s.last)
	if err != nil {
		return nil, err
	}
	if rs == nil {
		return nil, fmt.Errorf("server: statement returned no result set")
	}
	return rs, nil
}

// QueryStream runs the prepared statement, reading the binary result set
// incrementally (see Client.QueryStream).
func (s *ClientStmt) QueryStream(args ...schema.Value) (*ClientRows, error) {
	if err := s.execute(args); err != nil {
		return nil, err
	}
	rows, _, err := s.c.readResponse(true, &s.last)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		return nil, fmt.Errorf("server: statement returned no result set")
	}
	return rows, nil
}

// Close frees the server-side statement (COM_STMT_CLOSE, no response).
func (s *ClientStmt) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	b := []byte{comStmtClose}
	b = binary.LittleEndian.AppendUint32(b, s.id)
	return s.c.command(b)
}

// --------------------------------------------------------------------------
// Response decoding

func parseErrPacket(p []byte) error {
	if len(p) < 3 {
		return errShortPacket
	}
	e := &MySQLError{Code: binary.LittleEndian.Uint16(p[1:3]), SQLState: "HY000"}
	off := 3
	if off < len(p) && p[off] == '#' && off+6 <= len(p) {
		e.SQLState = string(p[off+1 : off+6])
		off += 6
	}
	e.Message = string(p[off:])
	return e
}

func isEOFPacket(p []byte) bool { return len(p) > 0 && len(p) < 9 && p[0] == 0xfe }

// readResult consumes one command response: (nil, affected, nil) for OK, a
// fully drained result set for a row response, an error for ERR. It is the
// materialized convenience over readResponse/ClientRows, the way the
// server's Query API drains its own cursor.
func (c *Client) readResult(binaryRows bool, last *header) (*phoenix.ResultSet, uint64, error) {
	rows, affected, err := c.readResponse(binaryRows, last)
	if err != nil || rows == nil {
		return nil, affected, err
	}
	rs := &phoenix.ResultSet{Columns: rows.names}
	for rows.Next() {
		row, err := rows.Row()
		if err != nil {
			return nil, 0, err
		}
		rs.Rows = append(rs.Rows, row)
	}
	if err := rows.Err(); err != nil {
		return nil, 0, err
	}
	return rs, 0, nil
}

// readResponse consumes a command response's leading packets: (nil,
// affected, nil) for OK, an error for ERR, and for a result-set header a
// ClientRows positioned before the first row (column definitions and their
// EOF consumed). Every packet is read through the connection's scratch. A
// prepared statement passes the header of its last result set (readDefs).
func (c *Client) readResponse(binaryRows bool, last *header) (*ClientRows, uint64, error) {
	p, err := c.readPacket()
	if err != nil {
		return nil, 0, err
	}
	if len(p) == 0 {
		return nil, 0, errShortPacket
	}
	switch p[0] {
	case 0x00:
		affected, _, err := readLencInt(p, 1)
		if err != nil {
			return nil, 0, err
		}
		return nil, affected, nil
	case 0xff:
		return nil, 0, parseErrPacket(p)
	case 0xfe:
		return nil, 0, nil // EOF response (COM_FIELD_LIST)
	}
	ncols, _, err := readLencInt(p, 0)
	if err != nil {
		return nil, 0, err
	}
	if last == nil {
		last = &header{}
	}
	if err := c.readDefs(int(ncols), last); err != nil {
		return nil, 0, err
	}
	return &ClientRows{c: c, names: last.names, types: last.types, binary: binaryRows}, 0, nil
}

// readDefs reads ncols column definitions and their EOF into last. When they
// arrive byte for byte as last holds them, its names and types serve again —
// they are shared between the result sets and never written — and when they
// differ they are replaced.
func (c *Client) readDefs(ncols int, last *header) error {
	c.defs = c.defs[:0]
	for i := 0; i <= ncols; i++ { // the definitions, then their EOF
		def, err := c.readPacket()
		if err != nil {
			return err
		}
		if i < ncols {
			c.defs = appendLencBytes(c.defs, def)
		}
	}
	if last.names != nil && bytes.Equal(last.defs, c.defs) {
		return nil
	}
	names, types := make([]string, ncols), make([]byte, ncols)
	for i, off := 0, 0; i < ncols; i++ {
		def, next, err := readLencBytes(c.defs, off)
		if err != nil {
			return err
		}
		if names[i], types[i], err = parseColumnDef(def); err != nil {
			return err
		}
		off = next
	}
	last.defs, last.names, last.types = append(last.defs[:0], c.defs...), names, types
	return nil
}

// readPacket reads one packet into the connection's scratch; the payload is
// valid until the next readPacket.
func (c *Client) readPacket() ([]byte, error) {
	p, err := c.pc.readPacketInto(c.pkt)
	if err == nil {
		c.pkt = p
	}
	return p, err
}

// ClientRows is an in-flight result set read row packet by row packet. The
// caller must Close it (or drain it with Next) before issuing the next
// command on the connection — the protocol has no way to abort a result set
// mid-stream short of closing the connection.
type ClientRows struct {
	c      *Client
	names  []string
	types  []byte
	binary bool
	buf    []byte // the current row packet, in the connection's scratch
	vals   []schema.Value
	err    error
	done   bool
}

// Columns lists the result's column names in order.
func (r *ClientRows) Columns() []string { return r.names }

// Next reads the next row packet into the connection's scratch. It returns
// false at end of set or on error (check Err). A discard loop that never
// calls Row or Values parses nothing and allocates nothing per row.
func (r *ClientRows) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	p, err := r.c.readPacket()
	if err != nil {
		r.err, r.done = err, true
		return false
	}
	r.buf = p
	if isEOFPacket(p) {
		r.done = true
		return false
	}
	if len(p) > 0 && p[0] == 0xff {
		r.err, r.done = parseErrPacket(p), true
		return false
	}
	return true
}

// Values decodes the current row into a reused slice, in column order.
// Valid only until the next Next call. A row that does not decode ends the
// result set — Err reports the decode error from then on — but not the
// connection: the remaining row packets are read off the wire first, so the
// next command starts on a response boundary.
func (r *ClientRows) Values() ([]schema.Value, error) {
	if r.vals == nil {
		r.vals = make([]schema.Value, len(r.names))
	}
	var err error
	if r.binary {
		err = decodeBinaryRowVals(r.buf, r.types, r.vals)
	} else {
		err = decodeTextRowVals(r.buf, r.types, r.vals)
	}
	if err != nil {
		for r.Next() {
		}
		if r.err == nil {
			r.err = err
		}
		return nil, err
	}
	return r.vals, nil
}

// Row decodes the current row into a fresh map.
func (r *ClientRows) Row() (schema.Row, error) {
	vals, err := r.Values()
	if err != nil {
		return nil, err
	}
	row := make(schema.Row, len(vals))
	for i, name := range r.names {
		row[name] = vals[i]
	}
	return row, nil
}

// RawBytes returns the current row packet's undecoded payload, valid until
// the next Next call. Benchmarks checksum the wire bytes with it, without
// decoding or allocating per row.
func (r *ClientRows) RawBytes() []byte { return r.buf }

// Err reports the error that terminated iteration, if any.
func (r *ClientRows) Err() error { return r.err }

// Close drains any unread row packets so the connection is command-aligned,
// and reports the terminal error, if any.
func (r *ClientRows) Close() error {
	for r.Next() {
	}
	return r.err
}

// parseColumnDef extracts the name and wire type of a column definition.
func parseColumnDef(p []byte) (string, byte, error) {
	off := 0
	var err error
	for i := 0; i < 4; i++ { // catalog, schema, table, org table
		if _, off, err = readLencBytes(p, off); err != nil {
			return "", 0, err
		}
	}
	nameB, off, err := readLencBytes(p, off)
	if err != nil {
		return "", 0, err
	}
	if _, off, err = readLencBytes(p, off); err != nil { // org name
		return "", 0, err
	}
	if _, off, err = readLencInt(p, off); err != nil { // fixed-length marker
		return "", 0, err
	}
	off += 2 + 4 // charset, column length
	if off >= len(p) {
		return "", 0, errShortPacket
	}
	return string(nameB), p[off], nil
}

// textValue decodes one text-protocol cell by its column wire type.
func textValue(s []byte, wireType byte) (schema.Value, error) {
	switch wireType {
	case typeTiny, typeShort, typeLong, typeInt24, typeLonglong:
		return strconv.ParseInt(string(s), 10, 64)
	case typeFloat, typeDouble, typeNewDecimal:
		return strconv.ParseFloat(string(s), 64)
	default:
		return string(s), nil
	}
}

// decodeTextRowVals decodes a text-protocol row packet into vals, in column
// order.
func decodeTextRowVals(p []byte, types []byte, vals []schema.Value) error {
	off := 0
	for i := range vals {
		if off < len(p) && p[off] == 0xfb {
			vals[i] = nil
			off++
			continue
		}
		cell, next, err := readLencBytes(p, off)
		if err != nil {
			return err
		}
		v, err := textValue(cell, types[i])
		if err != nil {
			return err
		}
		vals[i], off = v, next
	}
	return nil
}

// decodeBinaryRowVals decodes a binary-protocol row packet into vals, in
// column order.
func decodeBinaryRowVals(p []byte, types []byte, vals []schema.Value) error {
	if len(p) == 0 || p[0] != 0x00 {
		return fmt.Errorf("server: malformed binary row")
	}
	nb := (len(vals) + 7 + 2) / 8
	if 1+nb > len(p) {
		return errShortPacket
	}
	bitmap := p[1 : 1+nb]
	off := 1 + nb
	for i := range vals {
		pos := i + 2
		if bitmap[pos/8]&(1<<(pos%8)) != 0 {
			vals[i] = nil
			continue
		}
		v, next, err := decodeBinaryValue(p, off, types[i], false)
		if err != nil {
			return err
		}
		vals[i], off = v, next
	}
	return nil
}
