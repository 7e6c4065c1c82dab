package hbase

import (
	"bytes"
	"fmt"
	"testing"

	"synergy/internal/sim"
)

// readRefMap is the retired map-based rowData.read, kept verbatim as the
// reference model for the sorted-slice representation: both read the same
// cell index, so any divergence is a bug in the slice path (or a broken
// sort invariant feeding it).
func readRefMap(r *rowData, opts ReadOpts) map[string][]byte {
	if len(r.cells) == 0 {
		return nil
	}
	var rowDelTS int64 = -1
	for _, c := range r.cells {
		if c.Qualifier != "" {
			break
		}
		if c.Type == TypeDeleteRow && opts.visible(c.TS) {
			rowDelTS = c.TS
			break
		}
	}
	var out map[string][]byte
	i := 0
	for i < len(r.cells) {
		q := r.cells[i].Qualifier
		j := i
		for j < len(r.cells) && r.cells[j].Qualifier == q {
			j++
		}
		if q != "" {
			for k := i; k < j; k++ {
				c := r.cells[k]
				if !opts.visible(c.TS) {
					continue
				}
				if c.Type == TypeDeleteCol {
					break
				}
				if c.TS <= rowDelTS {
					break
				}
				if out == nil {
					out = map[string][]byte{}
				}
				out[q] = c.Value
				break
			}
		}
		i = j
	}
	return out
}

// requireCellsMatchRef fails unless the slice read equals the reference map
// read: same qualifiers, same values, strictly sorted.
func requireCellsMatchRef(t testing.TB, where string, got Cells, want map[string][]byte) {
	t.Helper()
	if !got.sortedOK() {
		t.Fatalf("%s: Cells not strictly sorted: %v", where, got)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, reference has %d (%v vs %v)", where, len(got), len(want), got, want)
	}
	for _, p := range got {
		if !bytes.Equal(p.Value, want[p.Qualifier]) {
			t.Fatalf("%s: %s = %q, reference %q", where, p.Qualifier, p.Value, want[p.Qualifier])
		}
	}
}

// storedRow returns every stored cell of a row, merged across the memstore
// and the store files in cellLess order (nil when the row is absent) — the
// cell-level view the reference read is defined over.
func (r *Region) storedRow(key string) *rowData {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, parts := lookupRow(r.mem, r.files, key)
	defer m.release()
	if len(parts) == 0 {
		return nil
	}
	return merged(m.fold(parts))
}

// TestSliceMapParityStoreDump sweeps the whole scan fixture — multi-region,
// multi-file, memstore overlays, tombstones — and checks every row the
// store can materialize against the reference map read, under plain,
// snapshot and excluded-version options: first as built (packed files under
// a live memstore), then with everything flushed into packed files, then
// major-compacted into one file per region.
func TestSliceMapParityStoreDump(t *testing.T) {
	hc, c := buildScanFixture(t, 2000, 5)
	optsList := map[string]ReadOpts{
		"plain":    {},
		"snapshot": {ReadTS: 3},
		"excluded": {Excluded: func(ts int64) bool { return ts%2 == 0 }},
	}
	t1, err := hc.lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	stages := []struct {
		name    string
		advance func() error
	}{
		{"built", func() error { return nil }},
		{"flushed", func() error { return hc.FlushTable("t") }},
		{"compacted", func() error { return hc.MajorCompact("t") }},
	}
	for _, stage := range stages {
		if err := stage.advance(); err != nil {
			t.Fatal(err)
		}
		for name, opts := range optsList {
			// Every key ever written lives at k%06d for i in [0, 2000).
			for i := 0; i < 2000; i++ {
				key := scanKey(i)
				var want map[string][]byte
				if rd := t1.regionFor(key).storedRow(key); rd != nil {
					want = readRefMap(rd, opts)
				}
				got, err := c.Get(sim.NewCtx(), "t", key, opts)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s %s %s", stage.name, name, key)
				requireCellsMatchRef(t, where, got.Cells, want)
				for _, q := range []string{"v", "w"} {
					if !bytes.Equal(got.Cells.Get(q), want[q]) {
						t.Fatalf("%s: Get(%s) = %q, reference %q", where, q, got.Cells.Get(q), want[q])
					}
				}
			}
		}
		// The scan path must materialize the same rows as the point-get path.
		sc, err := c.Scan(sim.NewCtx(), "t", ScanSpec{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := sim.NewCtx()
		rows := 0
		for {
			row, ok := sc.Next(ctx)
			if !ok {
				break
			}
			rows++
			point, err := c.Get(sim.NewCtx(), "t", row.Key, ReadOpts{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameCells(t, fmt.Sprintf("%s scan vs get %q", stage.name, row.Key), row.Cells, point.Cells)
		}
		if rows == 0 {
			t.Fatalf("%s: scan returned no rows", stage.name)
		}
	}
}

// TestSortedQualifiersView pins the small-fix satellite: SortedQualifiers
// and String are single passes over the already-sorted pairs, and mutating
// the returned qualifier slice must not corrupt the row.
func TestSortedQualifiersView(t *testing.T) {
	row := RowResult{Key: "k", Cells: Cells{
		{Qualifier: "a", Value: []byte("1")},
		{Qualifier: "b", Value: []byte("2")},
		{Qualifier: "c", Value: []byte("3")},
	}}
	quals := row.SortedQualifiers()
	if len(quals) != 3 || quals[0] != "a" || quals[2] != "c" {
		t.Fatalf("SortedQualifiers = %v", quals)
	}
	quals[0] = "zzz" // caller-owned; the row must be unaffected
	if string(row.Get("a")) != "1" {
		t.Fatal("mutating SortedQualifiers result corrupted the row")
	}
	if got, want := row.String(), "k{a=1 b=2 c=3}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	var empty RowResult
	if empty.SortedQualifiers() != nil {
		t.Fatal("empty row should have nil qualifiers")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = row.Cells.Get("b") }); allocs != 0 {
		t.Fatalf("Cells.Get allocates %v per call, want 0", allocs)
	}
}

// TestReturnedRowAliasing pins the contract behind the arena scan path: a
// row handed out by Get, Next or All may be scribbled over (Pair structs,
// never the shared Value bytes) without disturbing the store or any other
// returned row. Point reads are caller-stable; stream rows are compared
// through Clone, the supported way to retain them past the next Next.
//
// The scribbling below is deliberate rule-breaking to prove independence
// (cellsvet:owner).
func TestReturnedRowAliasing(t *testing.T) {
	_, c := buildScanFixture(t, 600, 3)

	// Point get: scribble the returned Cells, read again, compare.
	key := scanKey(42)
	first, err := c.Get(sim.NewCtx(), "t", key, ReadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	snap := first.Clone()
	for i := range first.Cells {
		first.Cells[i] = Pair{Qualifier: "zz", Value: []byte("scribble")}
	}
	second, err := c.Get(sim.NewCtx(), "t", key, ReadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameCells(t, "point get after scribble", second.Cells, snap.Cells)

	// Scan: clone every row, scribble the live window after cloning; the
	// clones and a fresh scan must be untouched. Appending to a window
	// must reallocate (windows are capacity-clipped), never write the
	// arena cell that belongs to the next row.
	for _, seq := range []bool{true, false} {
		ctx := sim.NewCtx()
		sc, err := c.Scan(ctx, "t", ScanSpec{Sequential: seq})
		if err != nil {
			t.Fatal(err)
		}
		var clones []RowResult
		for {
			row, ok := sc.Next(ctx)
			if !ok {
				break
			}
			clones = append(clones, row.Clone())
			grown := append(row.Cells, Pair{Qualifier: "zz", Value: []byte("overflow")})
			_ = grown
			for i := range row.Cells {
				row.Cells[i] = Pair{Qualifier: "zz", Value: []byte("scribble")}
			}
		}
		rescan, _ := drainSpec(t, c, ScanSpec{Sequential: seq})
		if len(rescan) != len(clones) {
			t.Fatalf("sequential=%v: scribbled scan left %d rows, clean rescan %d", seq, len(clones), len(rescan))
		}
		for i := range rescan {
			if rescan[i].Key != clones[i].Key {
				t.Fatalf("sequential=%v row %d: key %q vs clone %q", seq, i, rescan[i].Key, clones[i].Key)
			}
			requireSameCells(t, fmt.Sprintf("sequential=%v row %s", seq, rescan[i].Key), rescan[i].Cells, clones[i].Cells)
		}
	}
}

// requireSameCells fails unless both Cells hold the same qualifier/value
// pairs in the same order.
func requireSameCells(t testing.TB, where string, got, want Cells) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs vs %d", where, len(got), len(want))
	}
	for i := range got {
		if got[i].Qualifier != want[i].Qualifier || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: pair %d: %s=%q vs %s=%q", where, i,
				got[i].Qualifier, got[i].Value, want[i].Qualifier, want[i].Value)
		}
	}
}
