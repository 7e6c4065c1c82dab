package synergy

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/hbase"
	"synergy/internal/sim"
)

func bareLockManager(t *testing.T) *LockManager {
	t.Helper()
	store := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
	lm := NewLockManager(store)
	if err := lm.CreateLockTables([]string{"R"}); err != nil {
		t.Fatal(err)
	}
	return lm
}

func TestLockBackoffExponentialWithCap(t *testing.T) {
	lm := bareLockManager(t)
	base := lm.costs.LockRetryBackoff
	max := lm.costs.LockRetryBackoffMax
	want := []sim.Micros{base, 2 * base, 4 * base, 8 * base, 16 * base}
	for i, w := range want {
		if w > max {
			w = max
		}
		if got := lm.backoff(i); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, w)
		}
	}
	// Far past the cap it stays pinned.
	if got := lm.backoff(40); got != max {
		t.Fatalf("backoff(40) = %v, want cap %v", got, max)
	}
}

// A contended acquire must charge the exponential backoff schedule: the
// elapsed time of an n-attempt spin is dominated by sum(backoff(0..n-1)),
// which grows much faster than the old fixed n*base schedule.
func TestLockContendedAcquireChargesExponentialBackoff(t *testing.T) {
	lm := bareLockManager(t)
	holder := sim.NewCtx()
	if err := lm.Acquire(holder, "R", "k"); err != nil {
		t.Fatal(err)
	}
	lm.MaxAttempts = 6
	ctx := sim.NewCtx()
	if err := lm.acquire(ctx, lm.client, "R", "k"); err == nil {
		t.Fatal("contended acquire should exhaust MaxAttempts")
	}
	var backoffs sim.Micros
	for i := 0; i < lm.MaxAttempts; i++ {
		backoffs += lm.backoff(i)
	}
	// 5+10+20+40+80+80 = 235ms of backoff; the 12 checkAndPut round trips
	// add a few ms more.
	if got := ctx.Elapsed(); got < backoffs {
		t.Fatalf("elapsed %v below backoff schedule %v", got, backoffs)
	}
	if got := ctx.Elapsed(); got > backoffs+sim.FromMillis(25) {
		t.Fatalf("elapsed %v far above backoff schedule %v: wrong backoff applied?", got, backoffs)
	}
}

// TestLockContentionRetryLoop drives real goroutine contention through the
// retry loop: every contender must eventually win the lock exactly once per
// cycle and the lock must end up free.
func TestLockContentionRetryLoop(t *testing.T) {
	lm := bareLockManager(t)
	const goroutines, cycles = 8, 5
	ctxs := make([]*sim.Ctx, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		ctxs[g] = sim.NewCtx()
		wg.Add(1)
		go func(ctx *sim.Ctx) {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				if err := lm.Acquire(ctx, "R", "hot"); err != nil {
					t.Error(err)
					return
				}
				if err := lm.Release(ctx, "R", "hot"); err != nil {
					t.Error(err)
					return
				}
			}
		}(ctxs[g])
	}
	wg.Wait()
	var locks int64
	for _, ctx := range ctxs {
		locks += ctx.Snapshot().Locks
	}
	if locks != goroutines*cycles {
		t.Fatalf("lock cycles = %d, want %d", locks, goroutines*cycles)
	}
	// The lock must be free afterwards: a fresh acquire succeeds first try.
	ctx := sim.NewCtx()
	if err := lm.Acquire(ctx, "R", "hot"); err != nil {
		t.Fatal(err)
	}
	if err := lm.Release(ctx, "R", "hot"); err != nil {
		t.Fatal(err)
	}
}

// TestLockMutualExclusion is the model of §VIII-A's one promise: goroutines
// acquire and release one lock key around a critical section that counts its
// occupants, and the count must never read 2. Before every other acquire a
// goroutine also flushes the deferred create-if-absent entry write a fresh
// root insert carries (the conditional-put arm of a mutation batch), which
// races the other goroutines' create-held attempts on the very first cycle
// and must be a no-op from then on. Every conditional put is stamped inside
// the region's critical section, above the version it compared against; a
// stamp drawn before the compare let an acquirer write "held" beneath a
// release's newer "free", and the next acquirer in beside it.
func TestLockMutualExclusion(t *testing.T) {
	lm := bareLockManager(t)
	const goroutines, cycles = 8, 40
	var inside atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := sim.NewCtx()
			for c := 0; c < cycles; c++ {
				if c%2 == 0 {
					m := lm.client.NewBufferedMutator(0)
					if err := lm.EnsureEntryDeferred(ctx, m, "R", "hot"); err != nil {
						t.Error(err)
						return
					}
					if err := m.Flush(ctx); err != nil {
						t.Error(err)
						return
					}
				}
				if err := lm.Acquire(ctx, "R", "hot"); err != nil {
					t.Error(err)
					return
				}
				if n := inside.Add(1); n != 1 {
					t.Errorf("%d holders of R/hot at once", n)
				}
				runtime.Gosched()
				inside.Add(-1)
				if err := lm.Release(ctx, "R", "hot"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
