// Package mvcc is a Tephra-like multi-version concurrency control layer: a
// transaction server that issues snapshot transactions over the HBase-like
// store (§II-D). The Baseline, MVCC-A and MVCC-UA systems of the paper's
// evaluation run every statement through this layer; its begin/commit server
// round trips are the 800-900 ms per-statement overhead the paper measures
// (§IX-D4).
//
// Transactions write cells stamped with their transaction id and read with a
// snapshot filter that hides (a) transactions in progress at begin time, (b)
// invalidated (aborted) transactions and (c) transactions that began later.
// Write-write conflicts are detected at commit against the recently committed
// write sets (optimistic concurrency control).
package mvcc

import (
	"errors"
	"fmt"
	"sync"

	"synergy/internal/hbase"
	"synergy/internal/sim"
)

// ErrConflict reports a write-write conflict detected at commit.
var ErrConflict = errors.New("mvcc: transaction conflict")

// ErrFinished reports use of a transaction after commit or abort.
var ErrFinished = errors.New("mvcc: transaction already finished")

type commitRecord struct {
	txid     int64
	commitTS int64
	writes   map[string]struct{}
}

// Server is the transaction manager (the Tephra server in Figure 7's
// transaction layer).
type Server struct {
	costs *sim.Costs
	// next allocates transaction ids / commit timestamps. Deployments over
	// an HBase cluster share the store's timestamp oracle (as Tephra's
	// transaction manager does), so snapshot ids order consistently against
	// bulk-loaded and non-transactional cell timestamps; standalone servers
	// fall back to a private counter.
	next func() int64

	mu        sync.Mutex
	last      int64 // highest id allocated, for GC horizon
	active    map[int64]struct{}
	invalid   map[int64]struct{}
	committed []commitRecord
	// stats
	begun, commits, aborts, conflicts int64
}

// NewServer creates a standalone transaction server with the given latency
// calibration, allocating ids from a private counter.
func NewServer(costs *sim.Costs) *Server {
	var ctr int64
	return NewServerWithOracle(costs, func() int64 { ctr++; return ctr })
}

// NewServerWithOracle creates a transaction server whose ids come from the
// given timestamp oracle — deployments pass the store's clock so snapshot
// visibility lines up with every cell timestamp in the cluster.
func NewServerWithOracle(costs *sim.Costs, next func() int64) *Server {
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	return &Server{
		costs:   costs,
		next:    next,
		active:  map[int64]struct{}{},
		invalid: map[int64]struct{}{},
	}
}

// ActiveTxns reports the number of in-flight transactions — snapshots the
// server is retaining conflict records for. Session layers use it to verify
// that a disconnected client's transaction was aborted and released.
func (s *Server) ActiveTxns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

// allocLocked draws the next id from the oracle. Caller holds s.mu.
func (s *Server) allocLocked() int64 {
	id := s.next()
	if id > s.last {
		s.last = id
	}
	return id
}

// Tx is one in-flight transaction. A transaction holds one snapshot (taken
// at Begin) and one or more write pointers: Checkpoint — Tephra's
// mechanism for multi-statement transactions — allocates a fresh pointer
// per statement, so a statement's tombstones sort strictly below a later
// statement's puts on the same row instead of shadowing them at an equal
// timestamp. All of a transaction's pointers are visible to its own reads
// and invisible to everyone else until commit.
type Tx struct {
	srv      *Server
	id       int64              // snapshot id (first write pointer)
	cur      int64              // current statement's write pointer
	stamps   map[int64]struct{} // every write pointer of this transaction
	excluded map[int64]struct{} // active at begin
	writes   map[string]struct{}
	done     bool
}

// Begin starts a transaction, charging the snapshot-construction round trip.
func (s *Server) Begin(ctx *sim.Ctx) *Tx {
	ctx.Charge(s.costs.MVCCBegin)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.begun++
	id := s.allocLocked()
	excl := make(map[int64]struct{}, len(s.active))
	for a := range s.active {
		excl[a] = struct{}{}
	}
	s.active[id] = struct{}{}
	return &Tx{
		srv: s, id: id, cur: id,
		stamps:   map[int64]struct{}{id: {}},
		excluded: excl,
		writes:   map[string]struct{}{},
	}
}

// Checkpoint allocates a fresh write pointer for the transaction's next
// statement (a Tephra checkpoint: one transaction-manager round trip). The
// previous pointers stay registered — and excluded from every other
// snapshot — until the transaction finishes.
func (t *Tx) Checkpoint(ctx *sim.Ctx) {
	s := t.srv
	ctx.Charge(s.costs.RPC)
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.allocLocked()
	s.active[id] = struct{}{}
	t.stamps[id] = struct{}{}
	t.cur = id
}

// ID returns the transaction's current write pointer — the timestamp its
// next statement writes at.
func (t *Tx) ID() int64 { return t.cur }

// ReadOpts returns the snapshot visibility filter for this transaction's
// reads: everything committed at or before the Begin snapshot, plus the
// transaction's own write pointers, minus in-progress and invalidated
// transactions.
func (t *Tx) ReadOpts() hbase.ReadOpts {
	srv := t.srv
	id := t.id
	stamps := t.stamps
	excluded := t.excluded
	return hbase.ReadOpts{
		ReadTS: t.cur,
		Excluded: func(ts int64) bool {
			if _, own := stamps[ts]; own {
				return false // own writes are visible
			}
			if ts > id {
				return true // past our snapshot
			}
			if _, inProgress := excluded[ts]; inProgress {
				return true
			}
			srv.mu.Lock()
			_, bad := srv.invalid[ts]
			if !bad {
				_, stillActive := srv.active[ts]
				bad = stillActive
			}
			srv.mu.Unlock()
			return bad
		},
	}
}

// RecordWrite adds a row to the transaction's write set; it has the
// signature of phoenix.WriteOpts.OnWrite.
func (t *Tx) RecordWrite(table, rowKey string) {
	t.writes[table+"\x00"+rowKey] = struct{}{}
}

// Commit finishes the transaction, charging the two-phase commit round trip
// and running conflict detection: if any transaction that committed after
// this one began wrote an overlapping row, this transaction aborts with
// ErrConflict (its writes become invisible via the invalid list).
func (s *Server) Commit(ctx *sim.Ctx, t *Tx) error {
	ctx.Charge(s.costs.MVCCCommit)
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.done {
		return ErrFinished
	}
	t.done = true
	for id := range t.stamps {
		delete(s.active, id)
	}

	if len(t.writes) > 0 {
		for _, rec := range s.committed {
			if rec.commitTS <= t.id {
				continue // committed before we began: part of our snapshot
			}
			for w := range t.writes {
				if _, clash := rec.writes[w]; clash {
					for id := range t.stamps {
						s.invalid[id] = struct{}{}
					}
					s.aborts++
					s.conflicts++
					return fmt.Errorf("%w: tx %d overlaps tx %d on %q", ErrConflict, t.id, rec.txid, w)
				}
			}
		}
		s.committed = append(s.committed, commitRecord{txid: t.id, commitTS: s.allocLocked(), writes: t.writes})
		s.gcLocked()
	}
	s.commits++
	return nil
}

// Abort invalidates the transaction: its writes (stamped with its id) become
// permanently invisible.
func (s *Server) Abort(ctx *sim.Ctx, t *Tx) {
	ctx.Charge(s.costs.RPC)
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	for id := range t.stamps {
		delete(s.active, id)
		if len(t.writes) > 0 {
			s.invalid[id] = struct{}{}
		}
	}
	s.aborts++
}

// gcLocked prunes committed records no active transaction can conflict
// with. Caller holds s.mu.
func (s *Server) gcLocked() {
	minActive := s.last + 1
	for a := range s.active {
		if a < minActive {
			minActive = a
		}
	}
	kept := s.committed[:0]
	for _, rec := range s.committed {
		if rec.commitTS > minActive {
			kept = append(kept, rec)
		}
	}
	s.committed = kept
}

// Stats reports server counters.
type Stats struct {
	Begun, Commits, Aborts, Conflicts int64
	InvalidListSize                   int
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Begun: s.begun, Commits: s.commits, Aborts: s.aborts, Conflicts: s.conflicts,
		InvalidListSize: len(s.invalid),
	}
}
