package synergy

import (
	"errors"
	"fmt"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// ErrTxnOpen reports Begin while a transaction is already open.
var ErrTxnOpen = errors.New("synergy: transaction already open")

// Session is one client's transaction context on a System — the embedded
// API, and what every wire connection drives. It is the same type in every
// concurrency mode and with or without views: the mode-specific work
// (snapshot, read tracking, validate or lock, publish) lives in Tx.
//
// Outside an explicit transaction the session runs in autocommit: each write
// executes as its own transaction through the deployment's WAL-logged
// single-statement path, each read against its own snapshot. Begin opens an
// interactive transaction on a Tx; Commit/Rollback close it. A statement
// error inside an open transaction rolls the whole transaction back (Tx
// requires abort-on-error), mirroring MySQL's deadlock handling: the error
// surfaces to the caller and the session is back in autocommit.
//
// A Session is not safe for concurrent use; open one per goroutine.
type Session struct {
	sys   *System
	reads ViewReadMode
	tx    *Tx
	// writes/params accumulate the open transaction's write statements for
	// the WAL record its commit writes: a statement's params are held, not
	// copied, so whoever bound them must not rewrite them before the commit.
	writes []*PreparedWrite
	params [][]schema.Arg
	// oneWrite and oneParams hold an autocommit write as a transaction of one.
	oneWrite  [1]*PreparedWrite
	oneParams [1][]schema.Arg
}

// NewSession opens a session with the deployment's configured freshness
// contract (Config.AsyncReads).
func (sys *System) NewSession() *Session {
	return &Session{sys: sys, reads: sys.cfg.AsyncReads}
}

// SetReads selects the session's freshness contract against asynchronously
// maintained views. Sessions with different contracts never interfere: the
// contract travels with each read, not through the system.
func (s *Session) SetReads(m ViewReadMode) { s.reads = m }

// InTxn reports whether an interactive transaction is open.
func (s *Session) InTxn() bool { return s.tx != nil }

// Begin opens an interactive transaction; ErrTxnOpen if one is open.
func (s *Session) Begin(ctx *sim.Ctx) error {
	if s.tx != nil {
		return ErrTxnOpen
	}
	s.tx = s.sys.BeginTx(ctx)
	return nil
}

// Prepare compiles a SELECT for the session's System: the view rewrite and
// the statement's parameter-free plan, once. Its errors are the statement's
// own — an unknown table or column — and no execution raises them again.
// Open runs the result as often as the caller likes, in or out of a
// transaction.
func (s *Session) Prepare(sel *sqlparser.SelectStmt) (*Prepared, error) {
	return s.sys.prepare(sel)
}

// Open runs a prepared SELECT with params as a cursor — inside the open
// transaction when there is one, else against a fresh snapshot (see
// QueryStream). What is left to do per execution is what the parameters and
// the store's state decide: the key bounds, the access paths and join
// algorithm, the derived tables, the scans.
func (s *Session) Open(ctx *sim.Ctx, p *Prepared, params []schema.Arg) (phoenix.RowCursor, error) {
	if p.sys != s.sys {
		return nil, fmt.Errorf("synergy: statement prepared for another system")
	}
	if s.tx != nil {
		return s.tx.open(ctx, p, params, s.reads)
	}
	// The one autocommit read path: the freshness gate, then the mechanism.
	if len(p.async) > 0 && s.reads == ReadWatermark {
		arrival := s.sys.Store.CurrentTS()
		for _, v := range p.async {
			s.sys.Feed.WaitWatermark(ctx, v, arrival)
		}
	}
	return s.sys.cc.read(ctx, s.sys, p, params, s.reads)
}

// Query runs a SELECT — inside the open transaction when there is one
// (reading the transaction's own buffered writes), else against a fresh
// snapshot.
func (s *Session) Query(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (*phoenix.ResultSet, error) {
	cur, err := s.QueryStream(ctx, sel, params)
	if err != nil {
		return nil, err
	}
	return phoenix.DrainCursor(ctx, cur)
}

// QueryStream is Query returning a streaming cursor: rows are pulled off the
// region scanner as the caller iterates, so peak memory is one scan chunk
// for streamable shapes. The caller must Close the cursor and check its
// error — for autocommit reads under MVCC, Close is what settles the
// wrapping snapshot transaction. A cursor opened inside a transaction reads
// through the transaction's buffer: close it before the next statement runs
// or the transaction ends. It is Prepare, then Open with params unboxed.
func (s *Session) QueryStream(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (phoenix.RowCursor, error) {
	p, err := s.Prepare(sel)
	if err != nil {
		return nil, err
	}
	args, err := schema.ArgsOf(params)
	if err != nil {
		return nil, err
	}
	return s.Open(ctx, p, args)
}

// PrepareWrite compiles a write statement for the session's System: its
// shape, its write plan and its WAL text, once. ExecPrepared runs the result
// as often as the caller likes, in or out of a transaction. A statement that
// does not compile still prepares, and each execution returns its error, as a
// write bound at execution always has.
func (s *Session) PrepareWrite(stmt sqlparser.Statement) *PreparedWrite {
	return s.sys.prepareWrite(stmt)
}

// Exec runs a write statement — buffered into the open transaction when
// there is one, else as its own autocommitted transaction. A statement error
// inside an open transaction aborts it (see Session). It is PrepareWrite, then
// ExecPrepared with params unboxed.
func (s *Session) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	args, err := schema.ArgsOf(params)
	if err != nil {
		return err
	}
	return s.ExecPrepared(ctx, s.PrepareWrite(stmt), args)
}

// ExecPrepared runs a prepared write statement with params, as Exec runs a
// statement. Inside a transaction the session holds params until the commit
// logs them: the caller must not rewrite them before then.
func (s *Session) ExecPrepared(ctx *sim.Ctx, pw *PreparedWrite, params []schema.Arg) error {
	if pw.sys != s.sys {
		return fmt.Errorf("synergy: statement prepared for another system")
	}
	if s.tx == nil {
		s.oneWrite[0], s.oneParams[0] = pw, params
		err := s.sys.execTxn(ctx, s.oneWrite[:], s.oneParams[:])
		s.oneWrite[0], s.oneParams[0] = nil, nil
		return err
	}
	if err := s.tx.exec(ctx, pw, params); err != nil {
		tx := s.tx
		s.clear()
		if aerr := tx.Abort(ctx); aerr != nil {
			return fmt.Errorf("%w (transaction rolled back; abort: %v)", err, aerr)
		}
		return fmt.Errorf("%w (transaction rolled back)", err)
	}
	s.writes = append(s.writes, pw)
	s.params = append(s.params, params)
	return nil
}

// Commit commits the open transaction (no-op without one) and, once its
// commit flush succeeded, WAL-logs it through the transaction layer as one
// committed group (LogCommitted), beside the release of its locks (see
// Tx.commit). MVCC deployments have no transaction layer and log nothing. A
// commit conflict (occ.ErrConflict, mvcc.ErrConflict) leaves nothing applied
// and the session in autocommit.
func (s *Session) Commit(ctx *sim.Ctx) error {
	if s.tx == nil {
		return nil
	}
	tx := s.tx
	s.tx = nil
	err := tx.commit(ctx, s.writes, s.params)
	s.clear()
	return err
}

// Rollback aborts the open transaction (no-op without one).
func (s *Session) Rollback(ctx *sim.Ctx) error {
	if s.tx == nil {
		return nil
	}
	tx := s.tx
	s.clear()
	return tx.Abort(ctx)
}

// Close aborts any open transaction, releasing its locks and snapshot. A
// cursor still open keeps its scanner (and, for an MVCC autocommit read, its
// snapshot transaction) until the caller closes it.
func (s *Session) Close(ctx *sim.Ctx) error { return s.Rollback(ctx) }

// clear ends the session's transaction. The statement lists keep their
// capacity for the next one.
func (s *Session) clear() {
	clear(s.writes)
	clear(s.params)
	s.tx, s.writes, s.params = nil, s.writes[:0], s.params[:0]
}
