//go:build !race

package server

import "testing"

// TestStreamedScanAllocsFlat holds the streamed result set to O(scan chunk)
// memory, counted in allocations: a SELECT * through the in-process server —
// the server's cursor, encoder and flush buffer plus a client that reads and
// discards every row — may allocate at most one allocation per 100 rows more
// over 20,000 rows than over 2,000. A delivery that buffers or decodes per row
// allocates at least one per row. (The file is not built under -race: the race
// detector makes sync.Pool drop items at random, so a share of the scan's
// pooled chunk buffers would be allocated again.)
func TestStreamedScanAllocsFlat(t *testing.T) {
	allocs := func(rows int) float64 {
		c, err := Dial("inproc", benchScanServer(t, rows), "test", "")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		scan := func() {
			rs, err := c.QueryStream("SELECT * FROM KV")
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for rs.Next() {
				n++
			}
			if err := rs.Close(); err != nil || n != rows {
				t.Fatalf("scan of %d rows returned %d (err %v)", rows, n, err)
			}
		}
		scan() // warm the pools and the connection's scratch
		return testing.AllocsPerRun(5, scan)
	}
	small, large := allocs(2000), allocs(20000)
	t.Logf("streamed SELECT *: %.0f allocations at 2,000 rows, %.0f at 20,000", small, large)
	if extra := large - small; extra > (20000-2000)/100 {
		t.Fatalf("20,000 rows allocate %.0f more than 2,000 (%.0f vs %.0f), bound %d", extra, large, small, (20000-2000)/100)
	}
}
