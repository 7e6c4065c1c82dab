//go:build !race

package hbase

import (
	"testing"

	"synergy/internal/sim"
)

// TestMutateBatchAllocs bounds what a mutator's flush allocates to ship a
// batch over four regions: the flush groups its own buffer in place and
// forks the regions as one slice, and a region stamps each put by value as it
// applies it, so nothing is allocated per mutation — 64 puts cost what 256
// cost. The puts overwrite the same rows, so the memstore allocates nothing
// either. What is left is the request's ctx and the forks, two allocations,
// and the bound leaves one more of headroom. (Not built under -race, which
// makes sync.Pool drop pooled buffers at random.)
func TestMutateBatchAllocs(t *testing.T) {
	const bound = 3
	hc := NewHCluster(nil, nil)
	mustCreate(t, hc, TableSpec{Name: "t", SplitKeys: []string{scanKey(16), scanKey(32), scanKey(48)}})
	c := hc.NewWarmClient()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = scanKey(i)
	}
	cells := []Cell{put("v", "value", 0)}
	m := c.NewBufferedMutator(0)
	flush := func(puts int) func() {
		return func() {
			ctx := sim.NewCtx()
			for i := range puts {
				// Interleave the regions, so grouping has to move mutations.
				if err := m.Put(ctx, "t", keys[i%4*16+i/4%16], cells); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, puts := range []int{64, 256} {
		flush(puts)() // size the pooled buffer and overlay
		if n := testing.AllocsPerRun(20, flush(puts)); n > bound {
			t.Errorf("a flush of %d puts over 4 regions allocates %v, want at most %v", puts, n, bound)
		} else {
			t.Logf("a flush of %d puts over 4 regions allocates %v", puts, n)
		}
	}
	if got := hc.RegionCount("t"); got != 4 {
		t.Fatalf("table has %d regions, want 4", got)
	}
}
