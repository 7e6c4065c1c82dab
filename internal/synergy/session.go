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
	// stmts/params accumulate the open transaction's write statements for
	// the WAL record its commit writes.
	stmts  []sqlparser.Statement
	params [][]schema.Value
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
func (s *Session) Open(ctx *sim.Ctx, p *Prepared, params []schema.Value) (phoenix.RowCursor, error) {
	if p.sys != s.sys {
		return nil, fmt.Errorf("synergy: statement prepared for another system")
	}
	if s.tx != nil {
		return s.tx.open(ctx, p, params, s.reads)
	}
	return s.sys.open(ctx, p, params, s.reads)
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
// or the transaction ends. It is Prepare, then Open.
func (s *Session) QueryStream(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (phoenix.RowCursor, error) {
	p, err := s.Prepare(sel)
	if err != nil {
		return nil, err
	}
	return s.Open(ctx, p, params)
}

// Exec runs a write statement — buffered into the open transaction when
// there is one, else as its own autocommitted transaction. A statement error
// inside an open transaction aborts it (see Session).
func (s *Session) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	if s.tx == nil {
		return s.sys.Exec(ctx, stmt, params)
	}
	if err := s.tx.Exec(ctx, stmt, params); err != nil {
		tx := s.tx
		s.clear()
		if aerr := tx.Abort(ctx); aerr != nil {
			return fmt.Errorf("%w (transaction rolled back; abort: %v)", err, aerr)
		}
		return fmt.Errorf("%w (transaction rolled back)", err)
	}
	s.stmts = append(s.stmts, stmt)
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
	tx, stmts, params := s.tx, s.stmts, s.params
	s.clear()
	return tx.commit(ctx, stmts, params)
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

func (s *Session) clear() {
	s.tx, s.stmts, s.params = nil, nil, nil
}
