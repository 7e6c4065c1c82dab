package synergy

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// ErrNoSlaves reports that every transaction-layer slave is down.
var ErrNoSlaves = errors.New("synergy: no live transaction-layer slaves")

// walRecord is one entry of a slave's write-ahead log. A transaction's
// statements are logged with their parameters before execution; a commit
// record marks completion, an abort record marks a transaction whose
// buffered writes were discarded. Recovery re-executes transactions with
// neither record — grouped by transaction id, so a multi-statement
// transaction replays as one transaction (§VIII: "starting a new slave node
// to take over and replay the WAL of a failed slave node").
type walRecord struct {
	TxID   int64      `json:"tx"`
	SQL    string     `json:"sql,omitempty"`
	Params []walParam `json:"params,omitempty"`
	Commit bool       `json:"commit,omitempty"`
	Abort  bool       `json:"abort,omitempty"`
}

type walParam struct {
	T string `json:"t"` // i, f, s
	V string `json:"v"`
}

func decodeParams(ps []walParam) ([]schema.Arg, error) {
	out := make([]schema.Arg, len(ps))
	for i, p := range ps {
		switch p.T {
		case "i":
			v, err := strconv.ParseInt(p.V, 10, 64)
			if err != nil {
				return nil, err
			}
			out[i] = schema.IntArg(v)
		case "f":
			v, err := strconv.ParseFloat(p.V, 64)
			if err != nil {
				return nil, err
			}
			out[i] = schema.FloatArg(v)
		case "s":
			out[i] = schema.StringArg(p.V)
		case "n":
			out[i] = schema.Arg{}
		default:
			return nil, fmt.Errorf("synergy: bad wal param type %q", p.T)
		}
	}
	return out, nil
}

// hex is the digits a JSON \u escape is written in.
const hex = "0123456789abcdef"

// appendJSONString appends src as a JSON string, escaped exactly as
// encoding/json escapes it: quotes, backslashes and control bytes, the HTML
// characters <, > and &, U+2028 and U+2029, and every invalid UTF-8 byte as
// \ufffd. FuzzWALRecord holds it to json.Marshal.
func appendJSONString(dst []byte, src string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		if b := src[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(src[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
		} else if c == '\u2028' || c == '\u2029' {
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}

// appendStatementRecord appends the WAL record of one statement and its
// newline: byte for byte what json.Marshal makes of a walRecord with the
// statement's text and parameters. sql arrives as a JSON string already
// (appendJSONString; PreparedWrite keeps it so).
func appendStatementRecord(dst []byte, txid int64, sql []byte, params []schema.Arg) []byte {
	dst = append(dst, `{"tx":`...)
	dst = strconv.AppendInt(dst, txid, 10)
	if len(sql) > len(`""`) { // omitempty
		dst = append(dst, `,"sql":`...)
		dst = append(dst, sql...)
	}
	for i, p := range params {
		if i == 0 {
			dst = append(dst, `,"params":[`...)
		} else {
			dst = append(dst, ',')
		}
		switch p.Kind() {
		case schema.ArgInt:
			dst = append(dst, `{"t":"i","v":"`...)
			dst = append(strconv.AppendInt(dst, p.Int(), 10), '"')
		case schema.ArgFloat:
			dst = append(dst, `{"t":"f","v":"`...)
			dst = append(strconv.AppendFloat(dst, p.Float(), 'g', -1, 64), '"')
		case schema.ArgString:
			dst = append(dst, `{"t":"s","v":`...)
			dst = appendJSONString(dst, p.Str())
		default:
			dst = append(dst, `{"t":"n","v":""`...)
		}
		dst = append(dst, '}')
	}
	if len(params) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n')
}

// appendOutcomeRecord appends a transaction's commit record, or its abort
// record, and its newline: what json.Marshal makes of the walRecord.
func appendOutcomeRecord(dst []byte, txid int64, commit bool) []byte {
	dst = append(dst, `{"tx":`...)
	dst = strconv.AppendInt(dst, txid, 10)
	if commit {
		return append(dst, `,"commit":true}`+"\n"...)
	}
	return append(dst, `,"abort":true}`+"\n"...)
}

// walBufs recycles the buffers a transaction's statement records are
// rendered into; the file system copies what it is handed. spareWALBuf is the
// buffer released last, which the next log takes with one atomic swap before
// it asks the pool: the pool is per P, so a log on another P than the last
// one's would miss its buffer and grow a fresh one.
var (
	walBufs     = sync.Pool{New: func() any { return new([]byte) }}
	spareWALBuf atomic.Pointer[[]byte]
)

// Slave is one transaction-layer worker: it assigns transaction ids, logs
// statements to its WAL in the distributed FS, and executes write
// transaction procedures (Figure 7). Its alive flag is the one record of its
// liveness: the master's failure detection reads it, and Kill clears it.
type Slave struct {
	ID      string
	layer   *TxnLayer
	walPath string
	seq     atomic.Int64
	alive   atomic.Bool
	// walMu serializes appends to the WAL and guards unfinished, the count of
	// transactions logged without an outcome record yet.
	walMu      sync.Mutex
	unfinished int

	// killBeforeExec is a fault-injection hook: when set, the slave dies
	// after logging the next statement but before executing it.
	killBeforeExec atomic.Bool

	// heir replays this slave's WAL once it is dead, and replayed counts the
	// unfinished transactions of that WAL it has re-executed, so a pass that
	// fails partway resumes where it stopped. Both are guarded by the
	// layer's recoverMu.
	heir     *Slave
	replayed int
}

// Alive reports liveness.
func (s *Slave) Alive() bool { return s.alive.Load() }

// Kill simulates slave failure: the slave stops accepting work, and the
// master's next DetectAndRecover replaces it.
func (s *Slave) Kill() { s.alive.Store(false) }

// KillBeforeNextExec arms the fault-injection hook.
func (s *Slave) KillBeforeNextExec() { s.killBeforeExec.Store(true) }

// ExecuteTxn logs and runs one write transaction of any number of
// statements: every statement is WAL-logged under one transaction id before
// execution, and the statements execute against a single transaction-scoped
// mutator (commit flushes once). Once the commit flush lands, the commit
// writes the commit record beside its lock release (Tx.commit); a
// transaction whose flush did not land gets an abort record here. Recovery
// replays transactions with neither record as whole transactions.
func (s *Slave) ExecuteTxn(ctx *sim.Ctx, stmts []sqlparser.Statement, paramsList [][]schema.Value) error {
	args, err := argLists(paramsList)
	if err != nil {
		return err
	}
	return s.executeTxn(ctx, s.layer.sys.prepareWrites(stmts), args, nil)
}

// executeTxn is ExecuteTxn for prepared statements, cutting their transient
// keys from strs (nil allocates them).
func (s *Slave) executeTxn(ctx *sim.Ctx, writes []*PreparedWrite, paramsList [][]schema.Arg, strs *phoenix.StringBlock) error {
	txid, err := s.log(ctx, writes, paramsList, false)
	if err != nil {
		return err
	}

	if s.killBeforeExec.CompareAndSwap(true, false) {
		s.Kill()
		return fmt.Errorf("%w: %s crashed mid-transaction", ErrNoSlaves, s.ID)
	}

	landed, err := s.layer.sys.executeTxn(ctx, writes, paramsList, loggedTxn{s, txid}, strs)
	if err == nil || landed {
		// The writes are durable and the commit wrote their record, even
		// if a lock release then failed.
		return err
	}
	// The transaction aborted and discarded its buffered writes; record
	// that so recovery does not replay it. A failed abort record must
	// surface — without it, recovery would re-execute (and possibly
	// durably commit) a transaction the client was told failed.
	if lerr := s.logOutcome(ctx, txid, false); lerr != nil {
		return fmt.Errorf("%w (abort record not logged: %v)", err, lerr)
	}
	return err
}

// log takes a transaction on a live slave: it charges the hop and appends
// the statement records under a fresh transaction id — followed, for a
// transaction already committed, by its commit record — to the slave's WAL.
// They travel in one append, one replication-pipeline round instead of one
// per statement, and so stay contiguous even with concurrent transactions on
// the same slave. The records are rendered by hand into a recycled buffer.
func (s *Slave) log(ctx *sim.Ctx, writes []*PreparedWrite, paramsList [][]schema.Arg, committed bool) (int64, error) {
	if !s.alive.Load() {
		return 0, fmt.Errorf("%w: %s is down", ErrNoSlaves, s.ID)
	}
	if len(writes) != len(paramsList) {
		return 0, fmt.Errorf("synergy: %d statements, %d parameter lists", len(writes), len(paramsList))
	}
	ctx.Charge(s.layer.sys.Store.Costs().TxnLayerHop)
	txid := s.seq.Add(1)
	buf := spareWALBuf.Swap(nil)
	if buf == nil {
		buf = walBufs.Get().(*[]byte)
	}
	defer func() {
		if !spareWALBuf.CompareAndSwap(nil, buf) {
			walBufs.Put(buf)
		}
	}()
	log := (*buf)[:0]
	for i, w := range writes {
		log = appendStatementRecord(log, txid, w.sql, paramsList[i])
	}
	opened := +1
	if committed {
		log, opened = appendOutcomeRecord(log, txid, true), 0
	}
	*buf = log
	return txid, s.appendWAL(ctx, log, opened)
}

// logOutcome appends a commit or an abort record.
func (s *Slave) logOutcome(ctx *sim.Ctx, txid int64, commit bool) error {
	var buf [48]byte
	return s.appendWAL(ctx, appendOutcomeRecord(buf[:0], txid, commit), -1)
}

// walRollBytes is the WAL length past which a slave rolls its log.
const walRollBytes = 64 << 10

// appendWAL appends records to the slave's WAL; opened is the change they
// make to the number of transactions logged without an outcome (+1 for a
// transaction's statements, -1 for its commit or abort record, 0 for a
// transaction logged whole). The log exists for recovery to re-execute
// unfinished transactions, so once it is past walRollBytes and holds none it
// is rolled — dropped and started empty — instead of keeping every finished
// statement of the slave's life. Rolling is housekeeping off the request
// path, like the file's creation: it charges a fresh sim.Ctx, not the
// caller's.
func (s *Slave) appendWAL(ctx *sim.Ctx, records []byte, opened int) error {
	fs := s.layer.sys.FS
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if err := fs.Append(ctx, s.walPath, records); err != nil {
		return err
	}
	s.unfinished += opened
	if s.unfinished > 0 {
		return nil
	}
	if n, err := fs.Length(s.walPath); err != nil || n < walRollBytes {
		return err
	}
	if err := fs.Delete(sim.NewCtx(), s.walPath); err != nil {
		return err
	}
	return fs.Append(sim.NewCtx(), s.walPath, nil)
}

// TxnLayer is the master + slaves transaction tier.
type TxnLayer struct {
	sys *System

	// recoverMu serializes DetectAndRecover passes, so each dead slave's WAL
	// is replayed by one pass.
	recoverMu sync.Mutex

	mu     sync.Mutex
	slaves []*Slave
	next   int
	nextID int
}

// NewTxnLayer starts the layer with n slaves.
func NewTxnLayer(sys *System, n int) *TxnLayer {
	l := &TxnLayer{sys: sys}
	for i := 0; i < n; i++ {
		l.join(l.startSlave(), nil)
	}
	return l
}

// startSlave starts a new slave with an empty WAL, not yet on the roster.
func (l *TxnLayer) startSlave() *Slave {
	l.mu.Lock()
	id := fmt.Sprintf("txn-slave-%d", l.nextID)
	l.nextID++
	l.mu.Unlock()

	s := &Slave{ID: id, layer: l, walPath: "/synergy/wal/" + id + ".log"}
	s.alive.Store(true)
	l.sys.FS.Append(sim.NewCtx(), s.walPath, nil)
	return s
}

// join puts s on the roster, in place of old when old is not nil.
func (l *TxnLayer) join(s, old *Slave) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i := slices.Index(l.slaves, old); i >= 0 {
		l.slaves = slices.Delete(l.slaves, i, i+1)
	}
	l.slaves = append(l.slaves, s)
}

// Slaves lists current slaves (live and dead).
func (l *TxnLayer) Slaves() []*Slave {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*Slave(nil), l.slaves...)
}

// pickSlave returns the next live slave round-robin, or nil when none.
func (l *TxnLayer) pickSlave() *Slave {
	l.mu.Lock()
	defer l.mu.Unlock()
	for range l.slaves {
		s := l.slaves[l.next%len(l.slaves)]
		l.next++
		if s.Alive() {
			return s
		}
	}
	return nil
}

// LogCommitted records an interactively driven transaction in a slave's WAL
// once its commit flush has published its writes: every statement record
// plus the commit record travel in one append under a fresh transaction id.
// An interactive session (the SQL wire server) executes statements as the
// client sends them, so unlike System.ExecTxn there is never an
// accepted-but-unexecuted transaction for recovery to replay — the log is
// written at commit, binlog-style, beside the lock release (Tx.commit), and
// recovery always finds the transaction finished. A rolled-back interactive
// transaction logs nothing: its buffered writes never reached the store.
func (l *TxnLayer) LogCommitted(ctx *sim.Ctx, writes []*PreparedWrite, paramsList [][]schema.Arg) error {
	s := l.pickSlave()
	if s == nil {
		return ErrNoSlaves
	}
	_, err := s.log(ctx, writes, paramsList, true)
	return err
}

// DetectAndRecover is the master's failure-detection pass (§VIII): for each
// dead slave on the roster it starts a replacement that replays the dead
// slave's WAL, and the replacement takes the dead slave's place once the
// replay is done. A slave whose replay fails stays on the roster, dead, for
// the next pass to resume; the other dead slaves still recover. It returns
// the number of slaves recovered, and every replay error.
func (l *TxnLayer) DetectAndRecover(ctx *sim.Ctx) (int, error) {
	l.recoverMu.Lock()
	defer l.recoverMu.Unlock()
	recovered := 0
	var errs []error
	for _, d := range l.Slaves() {
		if d.Alive() {
			continue
		}
		if d.heir == nil {
			d.heir = l.startSlave()
		}
		if err := l.replayWAL(ctx, d); err != nil {
			errs = append(errs, fmt.Errorf("synergy: replaying %s: %w", d.walPath, err))
			continue
		}
		l.join(d.heir, d)
		recovered++
	}
	return recovered, errors.Join(errs...)
}

// replayWAL re-executes, on d's heir, the transactions of d's WAL that have
// neither a commit nor an abort record, each as one whole transaction in the
// order its first statement was logged, skipping the d.replayed an earlier
// pass already ran. The whole log parses before any transaction runs.
func (l *TxnLayer) replayWAL(ctx *sim.Ctx, d *Slave) error {
	data, err := l.sys.FS.ReadAll(ctx, d.walPath)
	if err != nil {
		return err
	}
	finished := map[int64]bool{}
	grouped := map[int64][]walRecord{}
	var order []int64
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec walRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return err
		}
		if rec.Commit || rec.Abort {
			finished[rec.TxID] = true
			continue
		}
		if _, seen := grouped[rec.TxID]; !seen {
			order = append(order, rec.TxID)
		}
		grouped[rec.TxID] = append(grouped[rec.TxID], rec)
	}
	type txn struct {
		stmts      []sqlparser.Statement
		paramsList [][]schema.Arg
	}
	var unfinished []txn
	for _, txid := range order {
		if finished[txid] {
			continue
		}
		recs := grouped[txid]
		tx := txn{make([]sqlparser.Statement, len(recs)), make([][]schema.Arg, len(recs))}
		for i, rec := range recs {
			stmt, err := sqlparser.Parse(rec.SQL)
			if err != nil {
				return err
			}
			params, err := decodeParams(rec.Params)
			if err != nil {
				return err
			}
			tx.stmts[i], tx.paramsList[i] = stmt, params
		}
		unfinished = append(unfinished, tx)
	}
	for ; d.replayed < len(unfinished); d.replayed++ {
		tx := unfinished[d.replayed]
		if err := d.heir.executeTxn(ctx, l.sys.prepareWrites(tx.stmts), tx.paramsList, nil); err != nil {
			return err
		}
	}
	return nil
}
