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
//
// The bookkeeping is kept in storage the server reuses, as Larson et al. keep
// per-transaction state in reusable transaction objects: a finished Tx goes
// on a short free list and the next Begin fills it again, so beginning,
// reading and recording writes allocate nothing once the storage has grown.
// A Tx holds its write pointers and its snapshot's exclusions as sorted id
// lists, its visibility filter and write hook as func values built once per
// storage, and its write set as one byte arena of table\x00key entries. A
// commit record keeps a sorted, deduplicated copy of that arena in a slot of
// the server's record list, whose storage the next commit reuses once the
// record is pruned; the commit check merges two sorted key lists per record.
//
// Ownership: a Tx, its ReadOpts filter, its OnWrite hook and its Notes are
// its caller's from Begin until Commit or Abort returns, and not a moment
// longer — the next Begin may hand the same storage to another caller. Use
// none of them after the transaction ends; only a repeated Commit or Abort
// with no Begin in between is answered (ErrFinished, or nothing).
package mvcc

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"synergy/internal/hbase"
	"synergy/internal/sim"
)

// ErrConflict reports a write-write conflict detected at commit.
var ErrConflict = errors.New("mvcc: transaction conflict")

// ErrFinished reports use of a transaction after commit or abort.
var ErrFinished = errors.New("mvcc: transaction already finished")

// Storage limits: the free list holds at most maxFree finished transactions,
// the record list keeps the storage of about as many pruned records (see
// gcLocked), and neither keeps a write-set arena past maxKept bytes.
const (
	maxFree = 64
	maxKept = 64 << 10
)

// span locates one write-set entry, table\x00key, in an arena.
type span struct{ lo, hi int32 }

// commitRecord is a committed write set: its entries are keys[s.lo:s.hi] for
// each s of spans, ascending and without duplicates.
type commitRecord struct {
	txid     int64
	commitTS int64
	keys     []byte
	spans    []span
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

	mu      sync.Mutex
	last    int64   // highest id allocated, for GC horizon
	active  []int64 // registered write pointers, ascending
	invalid map[int64]struct{}
	// committed are the retained commit records, oldest first; the slots
	// between its length and its capacity hold pruned records' storage,
	// which the next commits reuse.
	committed []commitRecord
	free      *hbase.FreeList[Tx] // finished transactions' storage, for Begin
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
		invalid: map[int64]struct{}{},
		free:    hbase.NewFreeList[Tx](maxFree),
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

// insertSorted adds id to the ascending list ids. The oracle only grows, so
// this is an append.
func insertSorted(ids []int64, id int64) []int64 {
	i, _ := slices.BinarySearch(ids, id)
	return slices.Insert(ids, i, id)
}

// deactivateLocked unregisters every write pointer of t. Caller holds s.mu.
func (s *Server) deactivateLocked(t *Tx) {
	for _, id := range t.stamps {
		if i, ok := slices.BinarySearch(s.active, id); ok {
			s.active = slices.Delete(s.active, i, i+1)
		}
	}
}

// Tx is one in-flight transaction. A transaction holds one snapshot (taken
// at Begin) and one or more write pointers: Checkpoint — Tephra's
// mechanism for multi-statement transactions — allocates a fresh pointer
// per statement, so a statement's tombstones sort strictly below a later
// statement's puts on the same row instead of shadowing them at an equal
// timestamp. All of a transaction's pointers are visible to its own reads
// and invisible to everyone else until commit. Its storage is reused once
// it finishes (see the package doc).
type Tx struct {
	srv      *Server
	id       int64   // snapshot id (first write pointer)
	cur      int64   // current statement's write pointer
	stamps   []int64 // every write pointer of this transaction, ascending
	excluded []int64 // active at begin, ascending
	// writes is the write set's arena: one table\x00key entry per
	// RecordWrite, located by spans (sorted and deduplicated at commit).
	writes []byte
	spans  []span
	notes  [][2]string // the writer's pending notifications (Notes)
	// hidden and record are the Tx's hide and RecordWrite, built once per
	// storage so ReadOpts and OnWrite allocate nothing.
	hidden func(ts int64) bool
	record func(table, rowKey string)
	done   bool
}

// Begin starts a transaction, charging the snapshot-construction round trip.
// The Tx is the caller's until Commit or Abort returns (see the package doc).
func (s *Server) Begin(ctx *sim.Ctx) *Tx {
	ctx.Charge(s.costs.MVCCBegin)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.begun++
	id := s.allocLocked()
	t := s.free.Get()
	if t == nil {
		t = &Tx{srv: s}
		t.hidden, t.record = t.hide, t.RecordWrite
	}
	t.id, t.cur, t.done = id, id, false
	t.stamps = append(t.stamps[:0], id)
	t.excluded = append(t.excluded[:0], s.active...)
	t.writes, t.spans = t.writes[:0], t.spans[:0]
	s.active = insertSorted(s.active, id)
	return t
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
	s.active = insertSorted(s.active, id)
	t.stamps = insertSorted(t.stamps, id)
	t.cur = id
}

// ID returns the transaction's current write pointer — the timestamp its
// next statement writes at.
func (t *Tx) ID() int64 { return t.cur }

// ReadOpts returns the snapshot visibility filter for this transaction's
// reads: everything committed at or before the Begin snapshot, plus the
// transaction's own write pointers, minus in-progress and invalidated
// transactions. The filter reads the transaction's storage, so it is valid
// only until Commit or Abort returns: a reader must be done with it first.
func (t *Tx) ReadOpts() hbase.ReadOpts {
	return hbase.ReadOpts{ReadTS: t.cur, Excluded: t.hidden}
}

// hide is the visibility filter of ReadOpts: it reports whether the cell
// stamped ts is invisible to the transaction.
func (t *Tx) hide(ts int64) bool {
	if _, own := slices.BinarySearch(t.stamps, ts); own {
		return false // own writes are visible
	}
	if ts > t.id {
		return true // past our snapshot
	}
	if _, inProgress := slices.BinarySearch(t.excluded, ts); inProgress {
		return true
	}
	srv := t.srv
	srv.mu.Lock()
	_, bad := srv.invalid[ts]
	if !bad {
		_, bad = slices.BinarySearch(srv.active, ts)
	}
	srv.mu.Unlock()
	return bad
}

// RecordWrite adds a row to the transaction's write set; it has the
// signature of phoenix.WriteOpts.OnWrite.
func (t *Tx) RecordWrite(table, rowKey string) {
	lo := len(t.writes)
	t.writes = append(t.writes, table...)
	t.writes = append(t.writes, 0)
	t.writes = append(t.writes, rowKey...)
	t.spans = append(t.spans, span{int32(lo), int32(len(t.writes))})
}

// OnWrite returns RecordWrite as a func value built once per storage, for
// phoenix.WriteOpts.OnWrite: taking it allocates nothing.
func (t *Tx) OnWrite() func(table, rowKey string) { return t.record }

// Notes is storage the transaction lends its writer for the write-set
// notifications it has yet to deliver (phoenix.WriteOpts.Notes), reused with
// the Tx like the rest of its bookkeeping.
func (t *Tx) Notes() *[][2]string { return &t.notes }

// entry returns write-set entry sp of arena.
func entry(arena []byte, sp span) []byte { return arena[sp.lo:sp.hi] }

// sortWrites sorts the write set's entries and drops repeats.
func (t *Tx) sortWrites() {
	w := t.writes
	slices.SortFunc(t.spans, func(a, b span) int { return bytes.Compare(entry(w, a), entry(w, b)) })
	t.spans = slices.CompactFunc(t.spans, func(a, b span) bool { return bytes.Equal(entry(w, a), entry(w, b)) })
}

// overlap returns an entry two sorted write sets share, if any.
func overlap(a []byte, as []span, b []byte, bs []span) ([]byte, bool) {
	for i, j := 0, 0; i < len(as) && j < len(bs); {
		x, y := entry(a, as[i]), entry(b, bs[j])
		switch c := bytes.Compare(x, y); {
		case c == 0:
			return x, true
		case c < 0:
			i++
		default:
			j++
		}
	}
	return nil, false
}

// Commit finishes the transaction, charging the two-phase commit round trip
// and running conflict detection: if any transaction that committed after
// this one began wrote an overlapping row, this transaction aborts with
// ErrConflict (its writes become invisible via the invalid list). Either way
// the Tx's storage goes back to the server: its caller must not use it again.
func (s *Server) Commit(ctx *sim.Ctx, t *Tx) error {
	ctx.Charge(s.costs.MVCCCommit)
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.done {
		return ErrFinished
	}
	t.done = true
	defer s.releaseLocked(t)
	s.deactivateLocked(t)

	if len(t.spans) > 0 {
		t.sortWrites()
		for i := range s.committed {
			rec := &s.committed[i]
			if rec.commitTS <= t.id {
				continue // committed before we began: part of our snapshot
			}
			if w, clash := overlap(t.writes, t.spans, rec.keys, rec.spans); clash {
				for _, id := range t.stamps {
					s.invalid[id] = struct{}{}
				}
				s.aborts++
				s.conflicts++
				return fmt.Errorf("%w: tx %d overlaps tx %d on %q", ErrConflict, t.id, rec.txid, w)
			}
		}
		s.recordLocked(t, s.allocLocked())
		s.gcLocked()
	}
	s.commits++
	return nil
}

// recordLocked appends t's sorted write set as a commit record, in the
// storage of the first pruned slot when there is one. Caller holds s.mu.
func (s *Server) recordLocked(t *Tx, commitTS int64) {
	n := len(s.committed)
	if n < cap(s.committed) {
		s.committed = s.committed[:n+1]
	} else {
		s.committed = append(s.committed, commitRecord{})
	}
	rec := &s.committed[n]
	rec.txid, rec.commitTS = t.id, commitTS
	rec.keys, rec.spans = rec.keys[:0], rec.spans[:0]
	for _, sp := range t.spans {
		lo := len(rec.keys)
		rec.keys = append(rec.keys, entry(t.writes, sp)...)
		rec.spans = append(rec.spans, span{int32(lo), int32(len(rec.keys))})
	}
}

// Commit commits t on the server that began it (Server.Commit).
func (t *Tx) Commit(ctx *sim.Ctx) error { return t.srv.Commit(ctx, t) }

// Abort invalidates the transaction: its writes (stamped with its id) become
// permanently invisible. Like Commit, it takes the Tx's storage back.
func (s *Server) Abort(ctx *sim.Ctx, t *Tx) {
	ctx.Charge(s.costs.RPC)
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	s.deactivateLocked(t)
	if len(t.spans) > 0 {
		for _, id := range t.stamps {
			s.invalid[id] = struct{}{}
		}
	}
	s.aborts++
	s.releaseLocked(t)
}

// releaseLocked puts a finished transaction's storage on the free list,
// unless the list is full or the storage too large to keep. Caller holds
// s.mu.
func (s *Server) releaseLocked(t *Tx) {
	clear(t.notes[:cap(t.notes)])
	t.notes = t.notes[:0]
	if cap(t.writes) <= maxKept {
		s.free.Put(t)
	}
}

// gcLocked prunes committed records no active transaction can conflict
// with, moving each pruned record's storage past the list's end for reuse.
// Once a long transaction that held many records back is over, the list
// keeps the storage of maxFree pruned records, not of all of them. Caller
// holds s.mu.
func (s *Server) gcLocked() {
	minActive := s.last + 1
	if len(s.active) > 0 && s.active[0] < minActive {
		minActive = s.active[0]
	}
	kept := 0
	for i := range s.committed {
		if s.committed[i].commitTS > minActive {
			s.committed[kept], s.committed[i] = s.committed[i], s.committed[kept]
			kept++
		} else if cap(s.committed[i].keys) > maxKept {
			s.committed[i].keys, s.committed[i].spans = nil, nil
		}
	}
	if spare := kept + maxFree; cap(s.committed) > 4*spare {
		s.committed = append(make([]commitRecord, 0, 2*spare), s.committed[:spare]...)
	}
	s.committed = s.committed[:kept]
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
