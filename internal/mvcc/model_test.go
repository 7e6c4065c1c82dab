package mvcc

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"synergy/internal/sim"
)

// model is the transaction server as a map-based reference: every id set a
// map, every write set a map of table\x00key strings, the commit check one
// map probe per record per key. The server must answer exactly as it does.
type model struct {
	ctr, last                         int64
	active, invalid                   map[int64]struct{}
	committed                         []modelRecord
	begun, commits, aborts, conflicts int64
}

type modelRecord struct {
	commitTS int64
	writes   map[string]struct{}
}

type modelTx struct {
	id, cur          int64
	stamps, excluded map[int64]struct{}
	writes           map[string]struct{}
	done             bool
}

func newModel() *model {
	return &model{active: map[int64]struct{}{}, invalid: map[int64]struct{}{}}
}

func (m *model) alloc() int64 {
	m.ctr++
	m.last = m.ctr
	return m.ctr
}

func (m *model) begin() *modelTx {
	m.begun++
	id := m.alloc()
	t := &modelTx{id: id, cur: id, stamps: map[int64]struct{}{id: {}}, excluded: map[int64]struct{}{}, writes: map[string]struct{}{}}
	for a := range m.active {
		t.excluded[a] = struct{}{}
	}
	m.active[id] = struct{}{}
	return t
}

func (m *model) checkpoint(t *modelTx) {
	id := m.alloc()
	m.active[id] = struct{}{}
	t.stamps[id] = struct{}{}
	t.cur = id
}

func (m *model) record(t *modelTx, table, key string) {
	t.writes[table+"\x00"+key] = struct{}{}
}

func (m *model) hidden(t *modelTx, ts int64) bool {
	if _, own := t.stamps[ts]; own {
		return false
	}
	if ts > t.id {
		return true
	}
	if _, in := t.excluded[ts]; in {
		return true
	}
	_, bad := m.invalid[ts]
	if !bad {
		_, bad = m.active[ts]
	}
	return bad
}

func (m *model) commit(t *modelTx) error {
	if t.done {
		return ErrFinished
	}
	t.done = true
	for id := range t.stamps {
		delete(m.active, id)
	}
	if len(t.writes) > 0 {
		for _, rec := range m.committed {
			if rec.commitTS <= t.id {
				continue
			}
			for w := range t.writes {
				if _, clash := rec.writes[w]; clash {
					for id := range t.stamps {
						m.invalid[id] = struct{}{}
					}
					m.aborts++
					m.conflicts++
					return ErrConflict
				}
			}
		}
		m.committed = append(m.committed, modelRecord{commitTS: m.alloc(), writes: t.writes})
		minActive := m.last + 1
		for a := range m.active {
			minActive = min(minActive, a)
		}
		kept := m.committed[:0]
		for _, rec := range m.committed {
			if rec.commitTS > minActive {
				kept = append(kept, rec)
			}
		}
		m.committed = kept
	}
	m.commits++
	return nil
}

func (m *model) abort(t *modelTx) {
	if t.done {
		return
	}
	t.done = true
	for id := range t.stamps {
		delete(m.active, id)
		if len(t.writes) > 0 {
			m.invalid[id] = struct{}{}
		}
	}
	m.aborts++
}

func (m *model) stats() Stats {
	return Stats{Begun: m.begun, Commits: m.commits, Aborts: m.aborts, Conflicts: m.conflicts, InvalidListSize: len(m.invalid)}
}

// pair is one transaction as the server and the model run it.
type pair struct {
	tx  *Tx
	ref *modelTx
}

// TestServerMatchesModel runs the server against the map-based model over
// seeded random schedules of Begin, Checkpoint, RecordWrite, visibility
// probes, Commit and Abort. A schedule begins far more transactions than it
// keeps live, so nearly every Begin fills storage a finished transaction
// left behind: one that kept its last user's write pointers, exclusions or
// writes would answer a probe or a commit differently.
// The last schedules also keep one transaction open for most of their steps,
// which holds every commit record back until it ends.
func TestServerMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runSchedule(t, seed, 1500, 0) })
	}
	for seed := uint64(25); seed <= 28; seed++ {
		t.Run(fmt.Sprint("long", seed), func(t *testing.T) { runSchedule(t, seed, 5000, 4000) })
	}
}

// runSchedule runs one schedule of steps operations; when hold is not 0, a
// transaction begun first stays open, and is probed, until step hold.
func runSchedule(t *testing.T, seed uint64, steps, hold int) {
	rng := rand.New(rand.NewPCG(seed, 53))
	srv, ref := NewServer(nil), newModel()
	ctx := sim.NewCtx()
	maxLive := 2 + rng.IntN(6)
	keys := 3 + rng.IntN(12) // few keys: conflicts are common
	var live []pair
	storage := map[*Tx]bool{} // every Tx Begin handed out
	var finished *pair        // the last finished transaction, until the next Begin
	check := func(step int, what string) {
		t.Helper()
		if got, want := srv.Stats(), ref.stats(); got != want {
			t.Fatalf("step %d (%s): Stats = %+v, model %+v", step, what, got, want)
		}
		if got, want := srv.ActiveTxns(), len(ref.active); got != want {
			t.Fatalf("step %d (%s): ActiveTxns = %d, model %d", step, what, got, want)
		}
	}
	verdict := func(err error) string {
		switch {
		case err == nil:
			return "committed"
		case errors.Is(err, ErrConflict):
			return "conflict"
		case errors.Is(err, ErrFinished):
			return "finished"
		}
		return err.Error()
	}
	var long *pair
	if hold > 0 {
		long = &pair{srv.Begin(ctx), ref.begin()}
		storage[long.tx] = true
	}
	for step := 0; step < steps; step++ {
		if long != nil {
			ts := rng.Int64N(ref.last + 3)
			if got, want := long.tx.ReadOpts().Excluded(ts), ref.hidden(long.ref, ts); got != want {
				t.Fatalf("step %d: long tx hides ts %d = %v, model %v", step, ts, got, want)
			}
			if step == hold {
				if got, want := verdict(srv.Commit(ctx, long.tx)), verdict(ref.commit(long.ref)); got != want {
					t.Fatalf("step %d: commit of the long tx %s, model %s", step, got, want)
				}
				long, finished = nil, nil
			}
		}
		op := rng.IntN(100)
		if len(live) == 0 || (op < 20 && len(live) < maxLive) {
			live = append(live, pair{srv.Begin(ctx), ref.begin()})
			storage[live[len(live)-1].tx] = true
			finished = nil
			check(step, "begin")
			continue
		}
		i := rng.IntN(len(live))
		p := live[i]
		switch {
		case op < 30:
			p.tx.Checkpoint(ctx)
			ref.checkpoint(p.ref)
		case op < 55:
			table := []string{"Item", "Orders"}[rng.IntN(2)]
			key := fmt.Sprintf("%d\x00%d", rng.IntN(keys), rng.IntN(2))
			p.tx.OnWrite()(table, key)
			ref.record(p.ref, table, key)
		case op < 80:
			ro := p.tx.ReadOpts()
			if ro.ReadTS != p.ref.cur {
				t.Fatalf("step %d: ReadTS = %d, model %d", step, ro.ReadTS, p.ref.cur)
			}
			for range 4 {
				ts := rng.Int64N(ref.last + 3)
				if got, want := ro.Excluded(ts), ref.hidden(p.ref, ts); got != want {
					t.Fatalf("step %d: tx %d hides ts %d = %v, model %v", step, p.ref.id, ts, got, want)
				}
			}
		case op < 95:
			if got, want := verdict(srv.Commit(ctx, p.tx)), verdict(ref.commit(p.ref)); got != want {
				t.Fatalf("step %d: commit of tx %d %s, model %s", step, p.ref.id, got, want)
			}
			live = append(live[:i], live[i+1:]...)
			finished = &p
		default:
			srv.Abort(ctx, p.tx)
			ref.abort(p.ref)
			live = append(live[:i], live[i+1:]...)
			finished = &p
		}
		// A repeated Commit or Abort before the next Begin is answered.
		if finished != nil && rng.IntN(10) == 0 {
			if rng.IntN(2) == 0 {
				if got, want := verdict(srv.Commit(ctx, finished.tx)), verdict(ref.commit(finished.ref)); got != want {
					t.Fatalf("step %d: repeated commit %s, model %s", step, got, want)
				}
			} else {
				srv.Abort(ctx, finished.tx)
				ref.abort(finished.ref)
			}
		}
		check(step, "op")
	}
	if st := srv.Stats(); st.Begun < 10*int64(len(storage)) || st.Conflicts == 0 {
		t.Fatalf("schedule too tame: %+v over %d Tx storages", st, len(storage))
	}
	if hold > 0 && cap(srv.committed) > 4*(len(srv.committed)+maxFree) {
		t.Fatalf("%d commit records keep the storage of %d", len(srv.committed), cap(srv.committed))
	}
}
