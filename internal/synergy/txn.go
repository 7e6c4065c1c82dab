package synergy

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/zk"
)

// ErrNoSlaves reports that every transaction-layer slave is down.
var ErrNoSlaves = errors.New("synergy: no live transaction-layer slaves")

const slavesZNode = "/synergy/slaves"

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

func encodeParams(params []schema.Value) ([]walParam, error) {
	out := make([]walParam, len(params))
	for i, p := range params {
		switch x := p.(type) {
		case int64:
			out[i] = walParam{T: "i", V: strconv.FormatInt(x, 10)}
		case float64:
			out[i] = walParam{T: "f", V: strconv.FormatFloat(x, 'g', -1, 64)}
		case string:
			out[i] = walParam{T: "s", V: x}
		case nil:
			out[i] = walParam{T: "n"}
		default:
			return nil, fmt.Errorf("synergy: unsupported parameter type %T", p)
		}
	}
	return out, nil
}

func decodeParams(ps []walParam) ([]schema.Value, error) {
	out := make([]schema.Value, len(ps))
	for i, p := range ps {
		switch p.T {
		case "i":
			v, err := strconv.ParseInt(p.V, 10, 64)
			if err != nil {
				return nil, err
			}
			out[i] = v
		case "f":
			v, err := strconv.ParseFloat(p.V, 64)
			if err != nil {
				return nil, err
			}
			out[i] = v
		case "s":
			out[i] = p.V
		case "n":
			out[i] = nil
		default:
			return nil, fmt.Errorf("synergy: bad wal param type %q", p.T)
		}
	}
	return out, nil
}

// encodeStatements renders a transaction's statement records, one per line.
func encodeStatements(txid int64, stmts []sqlparser.Statement, paramsList [][]schema.Value) ([]byte, error) {
	var log []byte
	for i, stmt := range stmts {
		ps, err := encodeParams(paramsList[i])
		if err != nil {
			return nil, err
		}
		rec, err := json.Marshal(walRecord{TxID: txid, SQL: stmt.String(), Params: ps})
		if err != nil {
			return nil, err
		}
		log = append(log, rec...)
		log = append(log, '\n')
	}
	return log, nil
}

// Slave is one transaction-layer worker: it assigns transaction ids, logs
// statements to its WAL in the distributed FS, and executes write
// transaction procedures (Figure 7).
type Slave struct {
	ID      string
	layer   *TxnLayer
	walPath string
	sess    *zk.Session
	seq     atomic.Int64
	alive   atomic.Bool
	// walMu serializes appends to the WAL and guards unfinished, the count of
	// transactions logged without an outcome record yet.
	walMu      sync.Mutex
	unfinished int

	// killBeforeExec is a fault-injection hook: when set, the slave dies
	// after logging the next statement but before executing it.
	killBeforeExec atomic.Bool
}

// Alive reports liveness.
func (s *Slave) Alive() bool { return s.alive.Load() }

// Kill simulates slave failure: the ZooKeeper session closes (dropping the
// ephemeral registration the master watches) and the slave stops accepting
// work.
func (s *Slave) Kill() {
	if s.alive.CompareAndSwap(true, false) {
		s.sess.Close()
	}
}

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
	txid, log, err := s.accept(ctx, stmts, paramsList)
	if err != nil {
		return err
	}
	if err := s.appendWAL(ctx, log, +1); err != nil {
		return err
	}

	if s.killBeforeExec.CompareAndSwap(true, false) {
		s.Kill()
		return fmt.Errorf("%w: %s crashed mid-transaction", ErrNoSlaves, s.ID)
	}

	landed, err := s.layer.sys.executeTxn(ctx, stmts, paramsList, loggedTxn{s, txid})
	if err == nil || landed {
		// The writes are durable and the commit wrote their record, even
		// if a lock release then failed.
		return err
	}
	// The transaction aborted and discarded its buffered writes; record
	// that so recovery does not replay it. A failed abort record must
	// surface — without it, recovery would re-execute (and possibly
	// durably commit) a transaction the client was told failed.
	if lerr := s.logOutcome(ctx, walRecord{TxID: txid, Abort: true}); lerr != nil {
		return fmt.Errorf("%w (abort record not logged: %v)", err, lerr)
	}
	return err
}

// accept takes a transaction on a live slave: it charges the hop and renders
// the statement records under a fresh transaction id. They travel in one WAL
// append — one replication-pipeline round instead of one per statement — and
// so stay contiguous even with concurrent transactions on the same slave.
func (s *Slave) accept(ctx *sim.Ctx, stmts []sqlparser.Statement, paramsList [][]schema.Value) (int64, []byte, error) {
	if !s.alive.Load() {
		return 0, nil, fmt.Errorf("%w: %s is down", ErrNoSlaves, s.ID)
	}
	if len(stmts) != len(paramsList) {
		return 0, nil, fmt.Errorf("synergy: %d statements, %d parameter lists", len(stmts), len(paramsList))
	}
	ctx.Charge(s.layer.sys.Cluster.Costs().TxnLayerHop)
	txid := s.seq.Add(1)
	log, err := encodeStatements(txid, stmts, paramsList)
	return txid, log, err
}

// logOutcome appends a commit/abort record.
func (s *Slave) logOutcome(ctx *sim.Ctx, rec walRecord) error {
	data, _ := json.Marshal(rec)
	return s.appendWAL(ctx, append(data, '\n'), -1)
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
	sys    *System
	master *zk.Session

	mu     sync.Mutex
	slaves []*Slave
	next   int
	nextID int
}

// NewTxnLayer starts the layer with n slaves registered in ZooKeeper.
func NewTxnLayer(sys *System, n int) *TxnLayer {
	l := &TxnLayer{sys: sys, master: sys.ZK.NewSession()}
	l.master.Create("/synergy", nil, zk.CreateOpts{})
	l.master.Create(slavesZNode, nil, zk.CreateOpts{})
	for i := 0; i < n; i++ {
		l.spawnSlave()
	}
	return l
}

// spawnSlave starts a new slave. Caller may hold l.mu.
func (l *TxnLayer) spawnSlave() *Slave {
	l.mu.Lock()
	id := fmt.Sprintf("txn-slave-%d", l.nextID)
	l.nextID++
	l.mu.Unlock()

	sess := l.sys.ZK.NewSession()
	s := &Slave{
		ID:      id,
		layer:   l,
		walPath: "/synergy/wal/" + id + ".log",
		sess:    sess,
	}
	s.alive.Store(true)
	sess.Create(slavesZNode+"/"+id, []byte(id), zk.CreateOpts{Ephemeral: true})
	l.sys.FS.Append(sim.NewCtx(), s.walPath, nil)

	l.mu.Lock()
	l.slaves = append(l.slaves, s)
	l.mu.Unlock()
	return s
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
func (l *TxnLayer) LogCommitted(ctx *sim.Ctx, stmts []sqlparser.Statement, paramsList [][]schema.Value) error {
	s := l.pickSlave()
	if s == nil {
		return ErrNoSlaves
	}
	txid, log, err := s.accept(ctx, stmts, paramsList)
	if err != nil {
		return err
	}
	rec, _ := json.Marshal(walRecord{TxID: txid, Commit: true})
	log = append(log, rec...)
	return s.appendWAL(ctx, append(log, '\n'), 0)
}

// DetectAndRecover is the master's failure-detection pass (§VIII): it
// compares the slaves registered in ZooKeeper (ephemeral nodes vanish with
// their sessions) against the roster, and for each dead slave starts a
// replacement that replays the dead slave's WAL. It returns the number of
// slaves recovered.
func (l *TxnLayer) DetectAndRecover(ctx *sim.Ctx) (int, error) {
	present := map[string]bool{}
	kids, err := l.master.Children(slavesZNode, nil)
	if err != nil {
		return 0, err
	}
	for _, k := range kids {
		present[k] = true
	}

	l.mu.Lock()
	var dead []*Slave
	live := l.slaves[:0]
	for _, s := range l.slaves {
		if present[s.ID] && s.Alive() {
			live = append(live, s)
			continue
		}
		dead = append(dead, s)
	}
	l.slaves = live
	l.mu.Unlock()

	for _, d := range dead {
		replacement := l.spawnSlave()
		if err := l.replayWAL(ctx, d.walPath, replacement); err != nil {
			return 0, fmt.Errorf("synergy: replaying %s: %w", d.walPath, err)
		}
	}
	return len(dead), nil
}

// replayWAL re-executes the transactions of a dead slave's WAL that have
// neither a commit nor an abort record, each as one whole transaction in
// the order its first statement was logged.
func (l *TxnLayer) replayWAL(ctx *sim.Ctx, walPath string, onto *Slave) error {
	data, err := l.sys.FS.ReadAll(ctx, walPath)
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
	for _, txid := range order {
		if finished[txid] {
			continue
		}
		recs := grouped[txid]
		stmts := make([]sqlparser.Statement, len(recs))
		paramsList := make([][]schema.Value, len(recs))
		for i, rec := range recs {
			stmt, err := sqlparser.Parse(rec.SQL)
			if err != nil {
				return err
			}
			params, err := decodeParams(rec.Params)
			if err != nil {
				return err
			}
			stmts[i], paramsList[i] = stmt, params
		}
		if err := onto.ExecuteTxn(ctx, stmts, paramsList); err != nil {
			return err
		}
	}
	return nil
}
