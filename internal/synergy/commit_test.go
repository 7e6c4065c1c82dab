package synergy

import (
	"errors"
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

// TestFailedCommitFlushHoldsNothing: a commit whose flush fails — the table
// its insert wrote was dropped — fails with the store's error under every
// mechanism and leaves nothing held. The root lock reads free; MVCC pins no
// snapshot and invalidates the writes; OCC pins none either, frees its gate
// and withdraws the commit it validated, so a transaction on the same root
// whose snapshot missed that commit still commits.
func TestFailedCommitFlushHoldsNothing(t *testing.T) {
	root := lockRef{"Root", schema.EncodeKey(int64(1))}
	for _, cm := range concurrencyConfigs {
		t.Run(cm.name, func(t *testing.T) {
			sys := fanoutSystem(t, 1, 4, cm.cfg)
			var invalid int
			if sys.MVCCServer != nil {
				invalid = sys.MVCCServer.Stats().InvalidListSize
			}
			s, ctx := sys.NewSession(), sim.NewCtx()
			if err := s.Begin(ctx); err != nil {
				t.Fatal(err)
			}
			if err := s.Exec(ctx, insLeaf, []schema.Value{int64(700), int64(1), "lost"}); err != nil {
				t.Fatal(err)
			}
			want := lockFree
			if sys.cc.locks() {
				want = lockHeld
			}
			if v := lockValue(t, sys, root); v != string(want) {
				t.Fatalf("root lock reads %q inside the transaction, want %q", v, want)
			}
			follower := sys.NewSession()
			if sys.OCC != nil {
				if err := follower.Begin(sim.NewCtx()); err != nil {
					t.Fatal(err)
				}
				if err := follower.Exec(sim.NewCtx(), updRoot, []schema.Value{"after", int64(1)}); err != nil {
					t.Fatal(err)
				}
			}

			if err := sys.Store.DropTable("Leaf00"); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(ctx); !errors.Is(err, hbase.ErrTableNotFound) {
				t.Fatalf("commit after the drop = %v, want hbase.ErrTableNotFound", err)
			}
			if v := lockValue(t, sys, root); v != string(lockFree) {
				t.Fatalf("root lock reads %q after the failed commit, want free", v)
			}
			switch cc := sys.cc.(type) {
			case *mvccControl:
				if n := cc.srv.ActiveTxns(); n != 0 {
					t.Fatalf("%d snapshots pinned after the failed commit", n)
				}
				if got := cc.srv.Stats().InvalidListSize; got != invalid+1 {
					t.Fatalf("invalid list holds %d, want %d: the failed commit's writes stay valid", got, invalid+1)
				}
			case *occControl:
				if err := follower.Commit(sim.NewCtx()); err != nil {
					t.Fatalf("a transaction on the same root after the failed commit: %v", err)
				}
				if n := cc.v.ActiveTxns(); n != 0 {
					t.Fatalf("%d snapshots pinned after the failed commit", n)
				}
				if !cc.gate.TryLock() {
					t.Fatal("the failed commit left the gate held")
				}
				cc.gate.Unlock()
			}
		})
	}
}
