//go:build !race

package synergy

import (
	"testing"

	"synergy/internal/sim"
)

// TestLockAcquireReleaseAllocs pins what one uncontended Acquire and Release
// of a root lock allocate: two conditional puts through the store client,
// whose cell the region stamps by value. (Not built under -race, which makes
// sync.Pool drop pooled buffers at random.)
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
	const want = 4
	if n := testing.AllocsPerRun(200, cycle); n != want {
		t.Errorf("%v allocations per Acquire+Release, want %v", n, want)
	}
}
