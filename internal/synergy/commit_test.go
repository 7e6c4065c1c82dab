package synergy

import (
	"fmt"
	"strings"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
)

// companyLocks are the six root locks of companySystem's data, alternating
// between its two lock tables after the first.
var companyLocks = []lockRef{
	{"Address", schema.EncodeKey(int64(1))},
	{"Department", schema.EncodeKey(int64(1))},
	{"Address", schema.EncodeKey(int64(2))},
	{"Address", schema.EncodeKey(int64(3))},
	{"Department", schema.EncodeKey(int64(2))},
	{"Address", schema.EncodeKey(int64(4))},
}

// holding begins a transaction on sys and takes the locks refs.
func holding(t *testing.T, sys *System, refs []lockRef) *Tx {
	t.Helper()
	tx := sys.BeginTx(sim.NewCtx())
	for _, ref := range refs {
		if err := tx.acquireLock(sim.NewCtx(), ref.root, ref.key); err != nil {
			t.Fatal(err)
		}
	}
	return tx
}

// lockValue reads the lock entry of ref as the store holds it now.
func lockValue(t *testing.T, sys *System, ref lockRef) string {
	t.Helper()
	r, err := sys.Engine.Client().Get(sim.NewCtx(), LockTableName(ref.root), ref.key, hbase.ReadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return string(r.Cells.Get(lockQualifier))
}

// TestCommitReleasesInOneRound: a commit frees the locks it holds in one
// round, one release RPC per lock-table region (each lock table here is one
// region); the paper's client pays one per lock. Afterwards every lock reads
// free, and a new transaction takes each one with its first checkAndPut.
func TestCommitReleasesInOneRound(t *testing.T) {
	for _, cfg := range []Config{{}, {SequentialWrites: true}} {
		for _, k := range []int{1, 3, 6} {
			t.Run(fmt.Sprintf("sequential=%v/locks=%d", cfg.SequentialWrites, k), func(t *testing.T) {
				sys := companySystemWith(t, cfg)
				held := companyLocks[:k]
				tables := map[string]bool{}
				for _, ref := range held {
					if n := sys.Store.RegionCount(LockTableName(ref.root)); n != 1 {
						t.Fatalf("%s has %d regions, want 1", LockTableName(ref.root), n)
					}
					tables[ref.root] = true
				}
				tx := holding(t, sys, held)
				ctx := sim.NewCtx()
				if err := tx.Commit(ctx); err != nil {
					t.Fatal(err)
				}
				want := len(tables)
				if cfg.SequentialWrites {
					want = k
				}
				if got := ctx.Snapshot().RPCs; got != int64(want) {
					t.Fatalf("commit of %d locks paid %d release RPCs, want %d", k, got, want)
				}
				for _, ref := range held {
					if v := lockValue(t, sys, ref); v != string(lockFree) {
						t.Fatalf("%s/%q reads %q after the commit, want free", ref.root, ref.key, v)
					}
				}
				next := sys.BeginTx(sim.NewCtx())
				actx := sim.NewCtx()
				for _, ref := range held {
					if err := next.acquireLock(actx, ref.root, ref.key); err != nil {
						t.Fatal(err)
					}
				}
				if st := actx.Snapshot(); st.RPCs != int64(k) || st.Locks != int64(k) {
					t.Fatalf("retaking %d locks took %d RPCs for %d locks; want one each", k, st.RPCs, st.Locks)
				}
				if err := next.Abort(sim.NewCtx()); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCommitSurfacesStolenLock: when one of a transaction's locks is freed
// from under it, its commit — or its abort — fails naming that lock, and its
// other locks still free in the same round.
func TestCommitSurfacesStolenLock(t *testing.T) {
	ends := []struct {
		name string
		end  func(*Tx, *sim.Ctx) error
	}{{"commit", (*Tx).Commit}, {"abort", (*Tx).Abort}}
	held := companyLocks[:4]
	stolen := held[2]
	for _, cfg := range []Config{{}, {SequentialWrites: true}} {
		for _, end := range ends {
			t.Run(fmt.Sprintf("sequential=%v/%s", cfg.SequentialWrites, end.name), func(t *testing.T) {
				sys := companySystemWith(t, cfg)
				tx := holding(t, sys, held)
				if err := sys.Locks.Release(sim.NewCtx(), stolen.root, stolen.key); err != nil {
					t.Fatal(err)
				}
				err := end.end(tx, sim.NewCtx())
				want := fmt.Sprintf("release of %s/%q: lock not held", stolen.root, stolen.key)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s returned %v, want an error naming %s", end.name, err, want)
				}
				for _, ref := range held {
					if v := lockValue(t, sys, ref); v != string(lockFree) {
						t.Fatalf("%s/%q reads %q, want free", ref.root, ref.key, v)
					}
				}
			})
		}
	}
}
