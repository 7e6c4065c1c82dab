//go:build !race

package synergy

import (
	"testing"

	"synergy/internal/sim"
)

// TestLockAcquireReleaseAllocs pins what one uncontended Acquire and Release
// of a root lock allocate: nothing. They are two conditional puts through the
// store client, whose cell the region stamps by value, compared against the
// row's visible value read in the region's merger scratch, on a lock table
// named once per root (2 when each compare read the row into a list of its
// own, four when every call built the name too). (Not built under -race,
// which makes sync.Pool drop pooled buffers at random.)
func TestLockAcquireReleaseAllocs(t *testing.T) {
	lm := bareLockManager(t)
	ctx := sim.NewCtx()
	cycle := func() {
		if err := lm.Acquire(ctx, "R", "k"); err != nil {
			t.Fatal(err)
		}
		if err := lm.Release(ctx, "R", "k"); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the first acquire creates the entry
	const want = 0
	if n := testing.AllocsPerRun(200, cycle); n != want {
		t.Errorf("%v allocations per Acquire+Release, want %v", n, want)
	}
}
