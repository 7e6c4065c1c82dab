package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"synergy/internal/mvcc"
	"synergy/internal/occ"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

// serverVersion is the version string the handshake advertises; the 5.7
// prefix keeps version-sniffing clients happy.
const serverVersion = "5.7.32-synergy"

// maxPreparedStmts bounds one session's prepared-statement registry.
const maxPreparedStmts = 1024

// paramBlockLen is how many parameters one block of conn.params holds: one
// allocation serves the executes of many statements.
const paramBlockLen = 64

// Backend is one deployed engine a server routes sessions to, named by the
// value `SET synergy_mode` (and the handshake database field) selects it
// with. Each concurrency mode is its own deployment, so a multi-mode server
// carries one backend per mode.
type Backend struct {
	Name   string
	System *synergy.System
}

// Config parameterizes a Server.
type Config struct {
	// Backends are the engines sessions can select; the first is the
	// default unless Default names another.
	Backends []Backend
	// Default is the backend new sessions start on.
	Default string
	// MaxConns caps concurrent connections (default 64); past it the
	// listener answers the connect with error 1040 and hangs up.
	MaxConns int
	// Slots is the statement execution pool size (default 8).
	Slots int
	// Queue bounds the admission wait queue (default 16).
	Queue int
	// Costs calibrates the wire cost knobs (nil = defaults).
	Costs *sim.Costs
}

// Server accepts MySQL-protocol connections and drives one synergy.Session
// per connection through the admission gate.
type Server struct {
	gate     *Gate
	costs    *sim.Costs
	backends map[string]Backend
	def      string
	maxConns int

	mu        sync.Mutex
	conns     map[*conn]struct{}
	listeners []net.Listener
	closed    bool

	live          atomic.Int64
	nextConnID    atomic.Uint32
	acceptedConns atomic.Int64
	rejectedConns atomic.Int64
	wg            sync.WaitGroup
}

// New builds a server over the given backends.
func New(cfg Config) (*Server, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("server: no backends configured")
	}
	costs := cfg.Costs
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	maxConns := cfg.MaxConns
	if maxConns <= 0 {
		maxConns = 64
	}
	s := &Server{
		gate:     NewGate(cfg.Slots, cfg.Queue),
		costs:    costs,
		backends: map[string]Backend{},
		maxConns: maxConns,
		conns:    map[*conn]struct{}{},
	}
	for _, b := range cfg.Backends {
		name := strings.ToLower(b.Name)
		if _, dup := s.backends[name]; dup {
			return nil, fmt.Errorf("server: duplicate backend %q", name)
		}
		s.backends[name] = b
	}
	s.def = strings.ToLower(cfg.Default)
	if s.def == "" {
		s.def = strings.ToLower(cfg.Backends[0].Name)
	}
	if _, ok := s.backends[s.def]; !ok {
		return nil, fmt.Errorf("server: default backend %q not configured", s.def)
	}
	return s, nil
}

// ServerStats are cumulative serving counters.
type ServerStats struct {
	// AcceptedConns and RejectedConns count connections admitted and turned
	// away at the connection cap.
	AcceptedConns, RejectedConns int64
	// LiveConns is the current connection count.
	LiveConns int64
	// Admission carries the statement gate's counters.
	Admission GateStats
}

// Stats returns the cumulative serving counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		AcceptedConns: s.acceptedConns.Load(),
		RejectedConns: s.rejectedConns.Load(),
		LiveConns:     s.live.Load(),
		Admission:     s.gate.Stats(),
	}
}

// Serve accepts connections on l until the listener or server closes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("server: closed")
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(nc)
		}()
	}
}

// Close stops the listeners, force-closes every live connection (their
// sessions roll back) and waits for the handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ls := s.listeners
	s.listeners = nil
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		c.nc.Close()
	}
	s.wg.Wait()
	return nil
}

// conn is one client connection: wire state plus its session.
type conn struct {
	srv  *Server
	nc   net.Conn
	pc   *packetConn
	id   uint32
	sctx *sim.Ctx

	sess        *synergy.Session
	backendName string
	readsName   string // last `SET synergy_reads` value, "default" before one
	autocommit  bool

	// in is the input scratch every packet from the client is read into. A
	// command's payload aliases it until the next command is read, so
	// whatever outlives the command is copied out by its handler: the SQL
	// text, a statement's bound parameter types, its string parameters.
	in []byte
	// params is the block each EXECUTE's parameters are decoded into, one
	// window per execute, unboxed: a string parameter is cut from the
	// session's string block. A window handed out is never written
	// again — an open transaction's Session keeps every statement's params
	// until COMMIT — so a full block is left to the windows still holding it
	// and a fresh one started.
	params []schema.Arg
	// enc is the encode scratch of every response packet but the prepare
	// response: row packets, column definitions, EOF, OK and ERR. pc's
	// buffered writer copies every packet out, so the slice is free for
	// reuse the moment writePacket returns.
	enc []byte
	// types is the same scratch for a result's column wire types.
	types []byte
	// stmtStart is the connection's elapsed simulated time when the current
	// statement began; @@synergy_sim_ttfr_micros reports time-to-first-row
	// relative to it.
	stmtStart sim.Micros

	stmts      map[uint32]*prepared
	nextStmtID uint32
	queueWaits int64
}

// prepared is one server-side prepared statement: the parsed SQL, its
// compiled form, its parameter count, and the parameter types cached from the
// last execute that sent them.
type prepared struct {
	sql  string
	stmt sqlparser.Statement
	// sel (a SELECT) or write (a write statement) is the statement compiled
	// on backend — at COM_STMT_PREPARE, and again by the first execute after
	// the connection moved to another backend. A write binds its parameters
	// at every execute, and one that does not compile fails there.
	sel       *synergy.Prepared
	write     *synergy.PreparedWrite
	backend   string
	numParams int
	paramTypes
}

// errClientQuit signals a clean COM_QUIT teardown.
var errClientQuit = errors.New("server: client quit")

func (s *Server) serveConn(nc net.Conn) {
	c := &conn{
		srv:        s,
		nc:         nc,
		pc:         newPacketConn(nc),
		id:         s.nextConnID.Add(1),
		sctx:       sim.NewCtx(),
		autocommit: true,
		readsName:  "default",
		stmts:      map[uint32]*prepared{},
	}
	defer nc.Close()

	// Connection cap: refuse before the handshake, like a real server that
	// is out of connection slots.
	if s.live.Add(1) > int64(s.maxConns) {
		s.live.Add(-1)
		s.rejectedConns.Add(1)
		c.pc.writePacket(appendErr(nil, errConCount, "08004", "too many connections"))
		c.pc.flush()
		return
	}
	s.acceptedConns.Add(1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.live.Add(-1)
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()

	defer func() {
		// A vanished client must not leave locks held or snapshots pinned:
		// teardown rolls back whatever transaction is open and frees every
		// prepared statement. The session only exists once the handshake
		// picked a backend; a client that drops out earlier has nothing to
		// roll back.
		if c.sess != nil {
			c.sess.Close(c.sctx)
		}
		c.stmts = nil
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.live.Add(-1)
	}()

	if err := c.handshake(); err != nil {
		return
	}
	for {
		c.pc.resetSeq()
		payload, err := c.readPacket()
		if err != nil {
			return // disconnect (EOF or reset): deferred teardown rolls back
		}
		if len(payload) == 0 {
			continue
		}
		if err := c.dispatch(payload); err != nil {
			return
		}
	}
}

// readPacket reads the client's next packet into the connection's input
// scratch; the payload is valid until the next readPacket.
func (c *conn) readPacket() ([]byte, error) {
	p, err := c.pc.readPacketInto(c.in)
	if err == nil {
		c.in = p
	}
	return p, err
}

// handshake runs the connect exchange: server greeting, client response
// (user + optional database selecting the backend), OK.
func (c *conn) handshake() error {
	c.sctx.Charge(c.srv.costs.WireConnect)
	if err := c.pc.writePacket(handshakeV10(c.id)); err != nil {
		return err
	}
	if err := c.pc.flush(); err != nil {
		return err
	}
	resp, err := c.readPacket()
	if err != nil {
		return err
	}
	_, db, err := parseHandshakeResponse(resp)
	if err != nil {
		c.writeErrPacket(errParse, "08S01", err.Error())
		return err
	}
	name := strings.ToLower(db)
	if name == "" || name == "synergy" {
		name = c.srv.def
	}
	b, ok := c.srv.backends[name]
	if !ok {
		err := fmt.Errorf("unknown database %q (backends: %s)", db, c.srv.backendNames())
		c.writeErrPacket(1049, "42000", err.Error())
		return err
	}
	c.sess = b.System.NewSession()
	c.backendName = name
	return c.writeOK(0, "")
}

func (s *Server) backendNames() string {
	names := make([]string, 0, len(s.backends))
	for n := range s.backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// handshakeV10 builds the server greeting.
func handshakeV10(connID uint32) []byte {
	b := []byte{0x0a}
	b = append(b, serverVersion...)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint32(b, connID)
	b = append(b, "synergy1"...) // auth-plugin-data part 1 (unused)
	b = append(b, 0)
	caps := uint32(capLongPassword | capConnectWithDB | capProtocol41 | capTransactions | capSecureConn)
	b = binary.LittleEndian.AppendUint16(b, uint16(caps))
	b = append(b, charsetUTF8)
	b = binary.LittleEndian.AppendUint16(b, statusAutocommit)
	b = binary.LittleEndian.AppendUint16(b, uint16(caps>>16))
	b = append(b, 21)                  // auth data length
	b = append(b, make([]byte, 10)...) // reserved
	b = append(b, "synergysrv12"...)   // auth-plugin-data part 2
	b = append(b, 0)
	return b
}

// parseHandshakeResponse extracts the username and database of a protocol-41
// client response; authentication data is accepted and ignored.
func parseHandshakeResponse(b []byte) (user, db string, err error) {
	if len(b) < 33 {
		return "", "", errShortPacket
	}
	caps := binary.LittleEndian.Uint32(b[0:4])
	if caps&capProtocol41 == 0 {
		return "", "", fmt.Errorf("server: client does not speak protocol 4.1")
	}
	off := 32
	user, off, err = readNulString(b, off)
	if err != nil {
		return "", "", err
	}
	switch {
	case caps&0x00200000 != 0: // PLUGIN_AUTH_LENENC_CLIENT_DATA
		_, off, err = readLencBytes(b, off)
		if err != nil {
			return "", "", err
		}
	case caps&capSecureConn != 0:
		if off >= len(b) {
			return user, "", nil
		}
		n := int(b[off])
		off++
		if off+n > len(b) {
			return "", "", errShortPacket
		}
		off += n
	default:
		_, off, err = readNulString(b, off)
		if err != nil {
			return "", "", err
		}
	}
	if caps&capConnectWithDB != 0 && off < len(b) {
		// Tolerate both NUL-terminated and end-of-packet database names.
		end := off
		for end < len(b) && b[end] != 0 {
			end++
		}
		db = string(b[off:end])
	}
	return user, db, nil
}

// --------------------------------------------------------------------------
// Command dispatch

func (c *conn) dispatch(payload []byte) error {
	switch payload[0] {
	case comQuit:
		return errClientQuit
	case comPing:
		c.charge()
		return c.writeOK(0, "")
	case comInitDB:
		return c.switchMode(strings.TrimSpace(string(payload[1:])))
	case comQuery:
		return c.handleQuery(string(payload[1:]))
	case comFieldList:
		// Deprecated command: answer with an empty field list.
		return c.writeFinal(appendEOF(nil, c.status()))
	case comStmtPrepare:
		return c.handlePrepare(string(payload[1:]))
	case comStmtExecute:
		return c.handleExecute(payload)
	case comStmtClose:
		c.handleStmtClose(payload)
		return nil // COM_STMT_CLOSE sends no response
	default:
		return c.writeErrPacket(errUnknownCom, "08S01", fmt.Sprintf("unknown command 0x%02x", payload[0]))
	}
}

// charge books the fixed per-command framing cost.
func (c *conn) charge() { c.sctx.Charge(c.srv.costs.WirePacket) }

func (c *conn) status() uint16 {
	var st uint16
	if c.autocommit {
		st |= statusAutocommit
	}
	if c.sess != nil && c.sess.InTxn() {
		st |= statusInTrans
	}
	return st
}

func (c *conn) writeFinal(payload []byte) error {
	if err := c.pc.writePacket(payload); err != nil {
		return err
	}
	return c.pc.flush()
}

func (c *conn) writeOK(affected uint64, info string) error {
	c.enc = appendOK(c.enc[:0], affected, c.status(), info)
	return c.writeFinal(c.enc)
}

func (c *conn) writeErrPacket(code uint16, sqlState, msg string) error {
	c.enc = appendErr(c.enc[:0], code, sqlState, msg)
	return c.writeFinal(c.enc)
}

// writeEngineErr maps an engine error onto the closest MySQL error code.
func (c *conn) writeEngineErr(err error) error {
	switch {
	case errors.Is(err, occ.ErrConflict) || errors.Is(err, mvcc.ErrConflict):
		return c.writeErrPacket(errDeadlock, "40001", err.Error())
	case errors.Is(err, phoenix.ErrUnknownTable):
		return c.writeErrPacket(errUnknownTable, "42S02", err.Error())
	case errors.Is(err, phoenix.ErrUnknownColumn):
		return c.writeErrPacket(errUnknownCol, "42S22", err.Error())
	case errors.Is(err, ErrServerBusy):
		return c.writeErrPacket(errConCount, "08004", err.Error())
	case errors.Is(err, synergy.ErrLockTimeout):
		return c.writeErrPacket(errLockWait, "HY000", err.Error())
	}
	return c.writeErrPacket(errUnknown, "HY000", err.Error())
}

// --------------------------------------------------------------------------
// COM_QUERY

func (c *conn) handleQuery(sql string) error {
	q := strings.TrimSpace(sql)
	q = strings.TrimSuffix(q, ";")
	q = strings.TrimSpace(q)
	upper := strings.ToUpper(q)
	switch {
	case upper == "BEGIN" || upper == "START TRANSACTION":
		c.charge()
		if err := c.sess.Begin(c.sctx); err != nil {
			return c.writeEngineErr(err)
		}
		return c.writeOK(0, "")
	case upper == "COMMIT":
		c.charge()
		if err := c.sess.Commit(c.sctx); err != nil {
			return c.writeEngineErr(err)
		}
		return c.writeOK(0, "")
	case upper == "ROLLBACK":
		c.charge()
		if err := c.sess.Rollback(c.sctx); err != nil {
			return c.writeEngineErr(err)
		}
		return c.writeOK(0, "")
	case strings.HasPrefix(upper, "SET "):
		return c.handleSet(q[4:])
	case strings.HasPrefix(upper, "SELECT @@"):
		return c.handleSysVar(q[len("SELECT @@"):])
	}
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		return c.writeErrPacket(errParse, "42000", err.Error())
	}
	if n := sqlparser.CountParams(stmt); n > 0 {
		return c.writeErrPacket(errParse, "42000", "statement has ? placeholders; prepare it (COM_STMT_PREPARE)")
	}
	return c.execStatement(stmt, nil, nil, false)
}

// execStatement runs one SQL statement through the admission gate and the
// session, writing a result set (SELECT) or an OK packet. A statement runs
// from its compiled form: COM_STMT_EXECUTE passes the prepared statement's,
// and for COM_QUERY (ps nil) it is compiled here.
func (c *conn) execStatement(stmt sqlparser.Statement, ps *prepared, params []schema.Arg, binaryRows bool) error {
	queued, err := c.srv.gate.Acquire()
	if err != nil {
		return c.writeErrPacket(errConCount, "08004", "admission queue full: server overloaded")
	}
	if queued {
		c.queueWaits++
	}
	defer c.srv.gate.Release()
	c.charge()
	c.stmtStart = c.sctx.Elapsed()
	c.sctx.ResetFirstRow()
	if !c.autocommit && !c.sess.InTxn() {
		// autocommit=0: the first statement implicitly opens a transaction.
		if err := c.sess.Begin(c.sctx); err != nil {
			return c.writeEngineErr(err)
		}
	}
	if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
		var compiled *synergy.Prepared
		if ps != nil {
			compiled = ps.sel
		} else if compiled, err = c.sess.Prepare(sel); err != nil {
			return c.writeEngineErr(err)
		}
		cur, err := c.sess.Open(c.sctx, compiled, params)
		if err != nil {
			return c.writeEngineErr(err)
		}
		return c.writeCursor(cur, binaryRows)
	}
	var write *synergy.PreparedWrite
	if ps != nil {
		write = ps.write
	} else {
		write = c.sess.PrepareWrite(stmt)
	}
	if err := c.sess.ExecPrepared(c.sctx, write, params); err != nil {
		return c.writeEngineErr(err)
	}
	return c.writeOK(0, "")
}

// writeResultSet encodes rs as a text protocol-41 result set. It serves
// sysvar introspection only, whose replies are one row and stay cost-free by
// construction, not by rounding: no wire cost is charged and no first row
// marked (that would clobber the previous statement's measurement).
func (c *conn) writeResultSet(rs *phoenix.ResultSet) error {
	types := make([]byte, len(rs.Columns))
	for i, t := range rs.ColumnTypes() {
		types[i] = wireTypeOf(t)
	}
	pkts := make([][]byte, 0, len(rs.Rows)+len(rs.Columns)+3)
	pkts = append(pkts, appendLencInt(nil, uint64(len(rs.Columns))))
	for i, col := range rs.Columns {
		pkts = append(pkts, appendColumnDef(nil, col, types[i]))
	}
	pkts = append(pkts, appendEOF(nil, c.status()))
	// The rows go through the cursor path's encoder, re-encoded value by
	// value into one scratch cell.
	var row schema.Row
	var cell []byte
	value := func(i int) []byte {
		cell = phoenix.AppendValue(cell[:0], row[rs.Columns[i]])
		return cell
	}
	for _, row = range rs.Rows {
		pkts = append(pkts, appendRow(nil, types, false, value))
	}
	pkts = append(pkts, appendEOF(nil, c.status()))
	for _, p := range pkts {
		if err := c.pc.writePacket(p); err != nil {
			return err
		}
	}
	return c.pc.flush()
}

// writeCursor streams a cursor's rows to the client as a protocol-41 result
// set — the one delivery of every SELECT: one row packet at a time through
// the connection's bounded flush buffer, so server memory stays O(scan chunk)
// no matter how many rows the query returns, and the first row leaves after
// one region chunk. Row payloads encode into the connection's reused scratch
// slice, straight from the cursor's encoded cells: no value is decoded.
//
// Error handling is asymmetric by protocol necessity: a failure before any
// packet goes out becomes a normal ERR reply, but once the column header is
// on the wire a result set cannot morph into an ERR packet, so a mid-stream
// cursor or Close error (e.g. an MVCC autocommit commit conflict surfacing
// at settle time) returns the error and the connection closes — the client
// sees a truncated result set, never a silently wrong one. Documented in
// docs/PROTOCOL.md.
//
// The per-byte wire cost paces on a sim.Lane: each packet arrives at the
// session's clock when it is written and needs its bytes and header at
// WirePerByte. On success the response is charged what the lane still has in
// flight after Close and the final EOF: a streamed scan pays about
// max(scan, first row + transfer), a result read whole at Open every byte.
func (c *conn) writeCursor(cur phoenix.RowCursor, binaryRows bool) error {
	// The cursor is closed once: on the success path below, which checks its
	// error, or here on any earlier return. A closed cursor's block serves
	// its plan's next execution, so a second Close could close that one.
	open := true
	b := c.enc
	defer func() {
		c.enc = b
		if open {
			cur.Close(c.sctx)
		}
	}()
	cols := cur.Columns()
	types := c.types[:0]
	for _, t := range cur.Types() {
		types = append(types, wireTypeOf(t))
	}
	c.types = types
	perByte := sim.Nanos(c.srv.costs.WirePerByte)
	var wire sim.Lane
	writePkt := func(p []byte) error {
		wire.Serve(c.sctx.Elapsed().Nanos(), sim.Nanos(len(p)+4)*perByte)
		return c.pc.writePacket(p)
	}
	b = appendLencInt(b[:0], uint64(len(cols)))
	if err := writePkt(b); err != nil {
		return err
	}
	for i, col := range cols {
		b = appendColumnDef(b[:0], col, types[i])
		if err := writePkt(b); err != nil {
			return err
		}
	}
	b = appendEOF(b[:0], c.status())
	if err := writePkt(b); err != nil {
		return err
	}

	first := true
	value := cur.RawValue
	for cur.Next(c.sctx) {
		if first {
			c.sctx.MarkFirstRow()
			first = false
		}
		b = appendRow(b[:0], types, binaryRows, value)
		if err := writePkt(b); err != nil {
			return err
		}
	}
	if err := cur.Err(); err != nil {
		return err
	}
	// Close settles transactional cursors (MVCC autocommit commits here);
	// its error also tears the connection down — see above.
	open = false
	if err := cur.Close(c.sctx); err != nil {
		return err
	}
	b = appendEOF(b[:0], c.status())
	if err := writePkt(b); err != nil {
		return err
	}
	// The response pays what the wire still has in flight; nothing when it
	// drained while the statement read on.
	c.sctx.Charge((wire.End() - c.sctx.Elapsed().Nanos()).Micros())
	return c.pc.flush()
}

// --------------------------------------------------------------------------
// SET and system variables

func (c *conn) handleSet(rest string) error {
	c.charge()
	name, val := rest, ""
	if i := strings.IndexByte(rest, '='); i >= 0 {
		name, val = rest[:i], rest[i+1:]
	}
	name = strings.ToLower(strings.TrimSpace(name))
	val = strings.TrimSpace(val)
	val = strings.Trim(val, "'\"")
	switch name {
	case "autocommit":
		on := val == "1" || strings.EqualFold(val, "on")
		off := val == "0" || strings.EqualFold(val, "off")
		if !on && !off {
			return c.writeErrPacket(errWrongVarVal, "42000", fmt.Sprintf("bad autocommit value %q", val))
		}
		// Turning autocommit back on commits the open transaction (MySQL
		// semantics).
		if on && c.sess.InTxn() {
			if err := c.sess.Commit(c.sctx); err != nil {
				return c.writeEngineErr(err)
			}
		}
		c.autocommit = on
	case "synergy_mode":
		return c.switchMode(val)
	case "synergy_reads":
		mode, ok := readModes[strings.ToLower(val)]
		if !ok {
			return c.writeErrPacket(errWrongVarVal, "42000", fmt.Sprintf("bad synergy_reads value %q (stale|watermark)", val))
		}
		c.sess.SetReads(mode)
		c.readsName = strings.ToLower(val)
	default:
		// Unknown SETs are accepted silently (clients send sql_mode, NAMES,
		// time_zone and the like on connect).
	}
	return c.writeOK(0, "")
}

// readModes are the values `SET synergy_reads` accepts.
var readModes = map[string]synergy.ViewReadMode{
	"stale":     synergy.ReadStale,
	"watermark": synergy.ReadWatermark,
}

// switchMode rebinds the connection to a session on another backend. The
// client's `SET synergy_reads` choice carries over (a client that made none
// gets the new backend's configured default), and prepared statements
// survive: a SELECT compiled on the old backend compiles again on the new one
// at its next execute (see prepared).
func (c *conn) switchMode(val string) error {
	name := strings.ToLower(strings.TrimSpace(val))
	if name == "" || name == "synergy" {
		name = c.srv.def
	}
	if name == c.backendName {
		return c.writeOK(0, "")
	}
	if c.sess.InTxn() {
		return c.writeErrPacket(errWrongVarVal, "25001", "cannot switch synergy_mode inside a transaction")
	}
	b, ok := c.srv.backends[name]
	if !ok {
		return c.writeErrPacket(errWrongVarVal, "42000", fmt.Sprintf("unknown synergy_mode %q (backends: %s)", val, c.srv.backendNames()))
	}
	c.sess = b.System.NewSession()
	if mode, ok := readModes[c.readsName]; ok {
		c.sess.SetReads(mode)
	}
	c.backendName = name
	return c.writeOK(0, "")
}

// handleSysVar answers SELECT @@var introspection queries. They are free —
// no wire cost is charged — so a driver can read @@synergy_sim_micros
// between transactions without perturbing the measurement.
func (c *conn) handleSysVar(rest string) error {
	name := strings.ToLower(strings.TrimSpace(rest))
	var v schema.Value
	switch name {
	case "synergy_sim_micros":
		v = int64(c.sctx.Elapsed())
	case "synergy_mode":
		v = c.backendName
	case "synergy_reads":
		v = c.readsName
	case "synergy_prepared_stmts":
		v = int64(len(c.stmts))
	case "synergy_queue_waits":
		v = c.queueWaits
	case "synergy_sim_ttfr_micros":
		// Time to first row of the last statement's result set, relative to
		// that statement's start (0 when the last result was empty or the
		// statement wasn't a SELECT).
		var n int64
		if ttfr, ok := c.sctx.TimeToFirstRow(); ok && ttfr >= c.stmtStart {
			n = int64(ttfr - c.stmtStart)
		}
		v = n
	case "autocommit":
		var n int64
		if c.autocommit {
			n = 1
		}
		v = n
	case "version":
		v = serverVersion
	case "max_allowed_packet":
		v = int64(maxPacketPayload)
	default:
		return c.writeErrPacket(errUnknownVar, "HY000", fmt.Sprintf("unknown system variable %q", name))
	}
	col := "@@" + name
	rs := &phoenix.ResultSet{Columns: []string{col}, Rows: []schema.Row{{col: v}}}
	return c.writeResultSet(rs)
}

// --------------------------------------------------------------------------
// Prepared statements

// handlePrepare parses a statement and compiles a SELECT on the connection's
// backend, answering as MySQL does: the statement id, the parameter count and
// a placeholder definition per parameter, then the result's column count and
// one definition per column — the names and wire types every execute's result
// set carries. A SELECT naming an unknown table or column fails here.
func (c *conn) handlePrepare(sql string) error {
	c.charge()
	stmt, err := sqlparser.Parse(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";")))
	if err != nil {
		return c.writeErrPacket(errParse, "42000", err.Error())
	}
	if len(c.stmts) >= maxPreparedStmts {
		return c.writeErrPacket(errTooManyStmts, "42000",
			fmt.Sprintf("can't create more than %d prepared statements (close some)", maxPreparedStmts))
	}
	ps := &prepared{sql: sql, stmt: stmt, numParams: sqlparser.CountParams(stmt)}
	if err := c.compile(ps); err != nil {
		return c.writeEngineErr(err)
	}
	c.nextStmtID++
	id := c.nextStmtID
	c.stmts[id] = ps

	var cols []string
	var types []schema.ColType
	if ps.sel != nil {
		cols, types = ps.sel.Columns(), ps.sel.Types()
	}
	b := []byte{0x00}
	b = binary.LittleEndian.AppendUint32(b, id)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(cols)))
	b = binary.LittleEndian.AppendUint16(b, uint16(ps.numParams))
	b = append(b, 0x00)                        // filler
	b = binary.LittleEndian.AppendUint16(b, 0) // warnings
	if err := c.pc.writePacket(b); err != nil {
		return err
	}
	for i := 0; i < ps.numParams; i++ {
		if err := c.pc.writePacket(appendColumnDef(nil, "?", typeVarString)); err != nil {
			return err
		}
	}
	if ps.numParams > 0 {
		if err := c.pc.writePacket(appendEOF(nil, c.status())); err != nil {
			return err
		}
	}
	for i, col := range cols {
		if err := c.pc.writePacket(appendColumnDef(nil, col, wireTypeOf(types[i]))); err != nil {
			return err
		}
	}
	if len(cols) > 0 {
		if err := c.pc.writePacket(appendEOF(nil, c.status())); err != nil {
			return err
		}
	}
	return c.pc.flush()
}

// compile compiles a prepared statement on the connection's current backend.
// Only a SELECT fails here; a write carries its error to its executes.
func (c *conn) compile(ps *prepared) error {
	sel, ok := ps.stmt.(*sqlparser.SelectStmt)
	if !ok {
		ps.write, ps.backend = c.sess.PrepareWrite(ps.stmt), c.backendName
		return nil
	}
	compiled, err := c.sess.Prepare(sel)
	if err != nil {
		return err
	}
	ps.sel, ps.backend = compiled, c.backendName
	return nil
}

func (c *conn) handleExecute(payload []byte) error {
	if len(payload) < 10 {
		return c.writeErrPacket(errParse, "HY000", errMalformedExecute.Error())
	}
	id := binary.LittleEndian.Uint32(payload[1:5])
	ps, ok := c.stmts[id]
	if !ok {
		return c.writeErrPacket(errUnknown, "HY000", fmt.Sprintf("unknown prepared statement %d", id))
	}
	var params []schema.Arg
	if n := ps.numParams; n > 0 {
		if cap(c.params)-len(c.params) < n {
			c.params = make([]schema.Arg, 0, max(paramBlockLen, n))
		}
		used := len(c.params)
		params = c.params[used : used+n : used+n]
		// payload[10:] skips the command, id, flags byte and iteration count.
		if err := decodeParams(payload[10:], params, &ps.paramTypes, c.sess.Strings()); err != nil {
			return c.writeErrPacket(errParse, "HY000", err.Error())
		}
		c.params = c.params[:used+n]
	}
	if ps.backend != c.backendName {
		if err := c.compile(ps); err != nil {
			return c.writeEngineErr(err)
		}
	}
	return c.execStatement(ps.stmt, ps, params, true)
}

func (c *conn) handleStmtClose(payload []byte) {
	if len(payload) < 5 {
		return
	}
	id := binary.LittleEndian.Uint32(payload[1:5])
	delete(c.stmts, id)
}
