package hbase

import (
	"fmt"
	"sync"
	"testing"

	"synergy/internal/sim"
)

// TestConcurrentScannersOneClient runs many fanned-out scanners on one client
// at once: every scan must return the full, correctly ordered result while
// all of them share the client's chunk pool and meta cache. Run it under
// -race.
func TestConcurrentScannersOneClient(t *testing.T) {
	_, c := buildScanFixture(t, 3000, 6)
	want, _ := drainSpec(t, c, ScanSpec{Sequential: true})

	const scanners = 8
	var wg sync.WaitGroup
	errs := make(chan error, scanners)
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := sim.NewCtx()
			sc, err := c.Scan(ctx, "t", ScanSpec{})
			if err != nil {
				errs <- err
				return
			}
			rows := sc.All(ctx)
			if len(rows) != len(want) {
				errs <- fmt.Errorf("got %d rows, want %d", len(rows), len(want))
				return
			}
			for i := range rows {
				if rows[i].Key != want[i].Key {
					errs <- fmt.Errorf("row %d key %q, want %q", i, rows[i].Key, want[i].Key)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInterleavedScansOneGoroutine drains one scan fully while the same
// goroutine holds another half read: the parked scan keeps its chunk and its
// place, and each returns every row exactly once.
func TestInterleavedScansOneGoroutine(t *testing.T) {
	_, c := buildScanFixture(t, 3000, 6)
	ctxA := sim.NewCtx()
	scA, err := c.Scan(ctxA, "t", ScanSpec{Batch: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // partial drain
		if _, ok := scA.Next(ctxA); !ok {
			t.Fatal("scan A exhausted too early")
		}
	}

	ctxB := sim.NewCtx()
	scB, err := c.Scan(ctxB, "t", ScanSpec{Batch: 50})
	if err != nil {
		t.Fatal(err)
	}
	rowsB := scB.All(ctxB)

	rowsA := scA.All(ctxA)
	seq, _ := drainSpec(t, c, ScanSpec{Sequential: true})
	if len(rowsB) != len(seq) {
		t.Fatalf("scan B returned %d rows, want %d", len(rowsB), len(seq))
	}
	if got := 10 + len(rowsA); got != len(seq) {
		t.Fatalf("scan A returned %d rows total, want %d", got, len(seq))
	}
	for i := range rowsB {
		if rowsB[i].Key != seq[i].Key {
			t.Fatalf("scan B row %d = %q, want %q", i, rowsB[i].Key, seq[i].Key)
		}
	}
}

// TestPooledChunkReuseInterleavedScans hammers the pooled chunk buffers:
// many goroutines on one shared client, each interleaving a partially
// drained fanned-out scan with limited scans and early Closes, so released
// chunks recycle through the client pool while sibling scans are mid
// flight. Every retained row is a Clone taken at Next time and checked
// after the churn — a chunk recycled while still referenced, or an arena
// window crossing into a neighbor row, shows up as a corrupted clone (and
// under -race as a data race on the recycled buffers).
func TestPooledChunkReuseInterleavedScans(t *testing.T) {
	_, c := buildScanFixture(t, 3000, 6)
	want, _ := drainSpec(t, c, ScanSpec{Sequential: true})
	wantByKey := make(map[string]RowResult, len(want))
	for _, r := range want {
		wantByKey[r.Key] = r
	}

	const goroutines = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			check := func(rows []RowResult) error {
				for _, r := range rows {
					ref, ok := wantByKey[r.Key]
					if !ok {
						return fmt.Errorf("unknown key %q surfaced", r.Key)
					}
					if len(r.Cells) != len(ref.Cells) {
						return fmt.Errorf("row %q has %d pairs, want %d", r.Key, len(r.Cells), len(ref.Cells))
					}
					for i := range r.Cells {
						if r.Cells[i].Qualifier != ref.Cells[i].Qualifier ||
							string(r.Cells[i].Value) != string(ref.Cells[i].Value) {
							return fmt.Errorf("row %q pair %d corrupted: %+v", r.Key, i, r.Cells[i])
						}
					}
				}
				return nil
			}
			for round := 0; round < rounds; round++ {
				// Scan A: fanned out, partially drained with retained clones.
				ctxA := sim.NewCtx()
				scA, err := c.Scan(ctxA, "t", ScanSpec{})
				if err != nil {
					errs <- err
					return
				}
				var kept []RowResult
				for i := 0; i < 40+17*g; i++ {
					row, ok := scA.Next(ctxA)
					if !ok {
						break
					}
					if i%3 == 0 {
						kept = append(kept, row.Clone())
					}
				}
				// Scan B: limited, fully drained while A is parked.
				ctxB := sim.NewCtx()
				scB, err := c.Scan(ctxB, "t", ScanSpec{Limit: 50 + round})
				if err != nil {
					errs <- err
					return
				}
				if err := check(scB.All(ctxB)); err != nil {
					errs <- err
					return
				}
				// Abandon A mid-flight on odd rounds (close-path recycling),
				// drain it on even rounds (exhaust-path recycling).
				if round%2 == 1 {
					scA.Close(ctxA)
				} else {
					for {
						if _, ok := scA.Next(ctxA); !ok {
							break
						}
					}
				}
				if err := check(kept); err != nil {
					errs <- fmt.Errorf("retained clones after churn: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestChunkBufResetClearsDirtiedPrefix pins both halves of chunkBuf.reset: a
// reset buffer holds no key or value reference anywhere in its backing arrays
// — also where a filtered-out row handed its pairs back beyond the arena's
// length — and what reset clears is what the last fill wrote, not what the
// largest fill before it sized the buffer to.
func TestChunkBufResetClearsDirtiedPrefix(t *testing.T) {
	const rows = 1000
	r := compactedWideRegion(rows)
	width := len(wideCells(0, 1))
	buf := &chunkBuf{}
	requireZero := func(when string) {
		t.Helper()
		if len(buf.rows) != 0 || len(buf.arena) != 0 || buf.dirty != 0 {
			t.Fatalf("%s: reset left %d rows, %d pairs, mark %d", when, len(buf.rows), len(buf.arena), buf.dirty)
		}
		for i, row := range buf.rows[:cap(buf.rows)] {
			if row.Key != "" || row.Cells != nil {
				t.Fatalf("%s: rows[%d] of %d still holds %q", when, i, cap(buf.rows), row.Key)
			}
		}
		for i, p := range buf.arena[:cap(buf.arena)] {
			if p.Qualifier != "" || p.Value != nil {
				t.Fatalf("%s: arena[%d] of %d still holds %q", when, i, cap(buf.arena), p.Qualifier)
			}
		}
	}

	// Every third row is rejected, the last one among them: its pairs lie
	// beyond len(arena) when the fill ends.
	n := 0
	reject := func(RowResult) bool { n++; return n%3 != 1 }
	if _, _, next := r.scanChunk(buf, "", r.edge(false), 0, &ScanSpec{Filter: reject}, nil); next != "" || len(buf.rows) != rows-(rows+2)/3 {
		t.Fatalf("filtered fill gave %d rows, next %q", len(buf.rows), next)
	}
	if buf.dirty != len(buf.arena)+width || buf.dirty > cap(buf.arena) {
		t.Fatalf("mark %d after a fill that ended on a rejected row, want %d pairs + that row's %d", buf.dirty, len(buf.arena), width)
	}
	buf.reset()
	requireZero("after the 1,000-row fill")

	// A one-row fill of the same buffer dirties one row's worth of it.
	if _, _, next := r.scanChunk(buf, scanKey(7), r.edge(false), 1, &ScanSpec{}, nil); next == "" || len(buf.rows) != 1 {
		t.Fatalf("point fill gave %d rows, next %q", len(buf.rows), next)
	}
	if buf.dirty != width || cap(buf.arena) < rows/2*width {
		t.Fatalf("a 1-row fill marks %d of %d pairs dirty, want %d", buf.dirty, cap(buf.arena), width)
	}
	buf.reset()
	requireZero("after the 1-row fill")
}
