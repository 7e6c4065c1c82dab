//go:build !race

package hbase

import (
	"runtime"
	"testing"
)

// TestMemstorePutsAllocatePerBlock: puts into fresh rows of one region
// allocate per memstore block, not per row — a row's rowData and its cells
// are cut from blocks of up to maxBlock entries — so N puts cost O(N / block)
// allocations: the blocks, and the growth of the row map and key list. (Not
// built under -race, whose runtime allocates on its own.)
func TestMemstorePutsAllocatePerBlock(t *testing.T) {
	const n = 4096
	r := newRegion(&TableSpec{Name: "t", MaxVersions: 1, FlushSize: 1 << 30}, "", "")
	keys := make([]string, n)
	cells := make([][]Cell, n)
	for i := range keys {
		keys[i] = scanKey(i)
		cells[i] = []Cell{put("a", "value", 1), put("b", "value", 1), put("c", "value", 1)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, key := range keys {
		putStamped(r, key, cells[i])
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d puts into fresh rows: %d allocations", n, allocs)
	if bound := uint64(n / 16); allocs > bound {
		t.Fatalf("%d puts into fresh rows allocate %d times, want at most %d (O(puts / block))", n, allocs, bound)
	}
	if r.mem.len() != n {
		t.Fatalf("memstore holds %d rows, want %d", r.mem.len(), n)
	}
}
