//go:build !race

package hbase

import (
	"fmt"
	"testing"
)

// TestPackedScanAllocs pins the allocation profile of the packed read path:
// a scanChunk over file-only rows allocates nothing per row in either
// direction, a point read
// allocates exactly its result, and a row merged from a memstore part over a
// packed part costs nothing beyond the pooled scratch. (The file is not built
// under -race: the race detector makes sync.Pool drop items at random, so
// the pooled merger's scratch would be reallocated mid-measurement.)
func TestPackedScanAllocs(t *testing.T) {
	const rows = 512
	r := compactedWideRegion(rows)
	buf := &chunkBuf{}
	scan := func() {
		buf.reset()
		if _, _, next := r.scanChunk(buf, resumeAt{}, r.edge(false), 0, &ScanSpec{}, nil); next.key != "" || len(buf.rows) != rows {
			panic(fmt.Sprintf("scan gave %d rows, next %q", len(buf.rows), next.key))
		}
	}
	scan() // size the chunk buffer and the pooled merger
	key := scanKey(77)
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Fatalf("file-only scanChunk allocates %v per %d-row chunk, want 0", allocs, rows)
	}
	last := scanKey(rows - 1)
	reversed := func() {
		buf.reset()
		if _, _, next := r.scanChunk(buf, resumeAt{}, r.edge(true), 0, &ScanSpec{Reversed: true}, nil); next.key != "" || len(buf.rows) != rows || buf.rows[0].Key != last {
			panic(fmt.Sprintf("reversed scan gave %d rows from %q, next %q", len(buf.rows), buf.rows[0].Key, next.key))
		}
	}
	if allocs := testing.AllocsPerRun(20, reversed); allocs != 0 {
		t.Fatalf("reversed file-only scanChunk allocates %v per %d-row chunk, want 0", allocs, rows)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = r.get(key, ReadOpts{}, nil) }); allocs != 1 {
		t.Fatalf("file-only point get allocates %v, want 1 (the returned Cells)", allocs)
	}

	// Overwrite one column of every row: each is now a memstore part over a
	// packed file part and must decode and merge into pooled scratch.
	for i := 0; i < rows; i++ {
		putStamped(r, scanKey(i), []Cell{put("c03", "newer", 2)})
	}
	scan()
	if got := string(buf.rows[5].Cells.Get("c03")); got != "newer" {
		t.Fatalf("merged row reads c03=%q, want the memstore version", got)
	}
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Fatalf("memstore-over-file scanChunk allocates %v per %d-row chunk, want 0", allocs, rows)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = r.get(key, ReadOpts{}, nil) }); allocs != 1 {
		t.Fatalf("memstore-over-file point get allocates %v, want 1 (the returned Cells)", allocs)
	}
}
