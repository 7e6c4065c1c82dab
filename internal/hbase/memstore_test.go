package hbase

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"synergy/internal/sim"
)

// TestMemstoreNeighboursGrow: rows written side by side share a block, each
// in a window just wide enough for its first put. Then, in turn, every row
// grows past its window — a new column, a tombstone, another version — so a
// row moves out while its neighbours stay, and spare windows pass from row to
// row. After every write each row must hold exactly the cells a row grown on
// the heap holds, and read what that row reads.
func TestMemstoreNeighboursGrow(t *testing.T) {
	const rows, maxVersions = 24, 3
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRegion(&TableSpec{Name: "t", MaxVersions: maxVersions, FlushSize: 1 << 30}, "", "")
		model := map[string]*rowData{}
		write := func(key string, cells []Cell) {
			putStamped(r, key, cells)
			m := model[key]
			if m == nil {
				m = &rowData{}
				model[key] = m
			}
			for _, c := range cells {
				m.apply(c, maxVersions)
			}
		}
		check := func(step string) {
			t.Helper()
			for key, m := range model {
				got := r.mem.rows[key]
				if !sameCells(got.cells, m.cells) {
					t.Fatalf("seed %d %s: row %s holds %v, a heap row %v", seed, step, key, got.cells, m.cells)
				}
				for _, opts := range []ReadOpts{{}, {ReadTS: 5}} {
					requireSameCells(t, fmt.Sprintf("seed %d %s: get %s", seed, step, key), r.get(key, opts, nil).Cells, m.read(opts))
				}
			}
		}
		for i := range rows {
			write(scanKey(i), []Cell{put("a", fmt.Sprint("first", i), 1)})
		}
		check("first puts")
		ts := int64(2)
		for round := range 6 {
			for i := range rows {
				key := scanKey(i)
				var c Cell
				switch rng.Intn(4) {
				case 0: // a new column
					c = put(fmt.Sprint("q", round), fmt.Sprint("v", round, i), ts)
				case 1: // another version of the first
					c = put("a", fmt.Sprint("a", round, i), ts)
				case 2: // a column tombstone
					c = Cell{Qualifier: "a", TS: ts, Type: TypeDeleteCol}
				default: // a row tombstone
					c = Cell{TS: ts, Type: TypeDeleteRow}
				}
				ts++
				write(key, []Cell{c})
				check(fmt.Sprintf("round %d row %d", round, i))
			}
		}
		if r.mem.held == 0 || len(r.mem.spare) == 0 {
			t.Fatalf("seed %d: no row moved (held %d, spare sizes %d)", seed, r.mem.held, len(r.mem.spare))
		}
	}
}

// sameCells compares cells by coordinates and value.
func sameCells(a, b []Cell) bool {
	return slices.EqualFunc(a, b, func(x, y Cell) bool {
		return x.Qualifier == y.Qualifier && x.TS == y.TS && x.Type == y.Type && string(x.Value) == string(y.Value)
	})
}

// TestScanWhilePutsGrowRows scans and reads a region while writers grow its
// rows put by put, so windows move under the readers between their chunks.
// Put n of a row writes its column qn and sets column n to n, in one put: a
// reader must see a row whole, with columns q1 to qn beside n. The race step
// runs it under -race.
func TestScanWhilePutsGrowRows(t *testing.T) {
	const writers, rowsEach, puts = 4, 16, 40
	hc := NewHCluster(nil, nil)
	mustCreate(t, hc, TableSpec{Name: "t", FlushSize: 64 << 10})
	whole := func(row RowResult) error {
		n := 0
		if v := row.Get("n"); v != nil {
			fmt.Sscan(string(v), &n)
		}
		if len(row.Cells) != n+1 {
			return fmt.Errorf("row %s: %d cells with n = %d", row.Key, len(row.Cells), n)
		}
		for i := 1; i <= n; i++ {
			if row.Get(fmt.Sprintf("q%03d", i)) == nil {
				return fmt.Errorf("row %s: n = %d without q%03d", row.Key, n, i)
			}
		}
		return nil
	}
	var writing sync.WaitGroup
	for w := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			c, ctx := hc.NewWarmClient(), sim.NewCtx()
			for n := 1; n <= puts; n++ {
				for i := range rowsEach {
					cells := []Cell{put("n", fmt.Sprint(n), 0), put(fmt.Sprintf("q%03d", n), "x", 0)}
					if err := c.Put(ctx, "t", scanKey(i*writers+w), cells); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	var reading sync.WaitGroup
	for s := range 2 {
		reading.Add(1)
		go func() {
			defer reading.Done()
			c := hc.NewWarmClient()
			for {
				select {
				case <-done:
					return
				default:
				}
				ctx := sim.NewCtx()
				sc, err := c.Scan(ctx, "t", ScanSpec{Sequential: s == 0, Batch: 7})
				if err != nil {
					t.Error(err)
					return
				}
				for row, ok := sc.Next(ctx); ok; row, ok = sc.Next(ctx) {
					if err := whole(row); err != nil {
						t.Error(err)
						sc.Close(ctx)
						return
					}
				}
				got, err := c.Get(ctx, "t", scanKey(s), ReadOpts{})
				if err == nil && !got.Empty() {
					err = whole(got)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	reading.Wait()
	rows, _ := drainSpec(t, hc.NewWarmClient(), ScanSpec{})
	if len(rows) != writers*rowsEach {
		t.Fatalf("%d rows at the end, wrote %d", len(rows), writers*rowsEach)
	}
	for _, row := range rows {
		if err := whole(row); err != nil || len(row.Cells) != puts+1 {
			t.Fatalf("at the end: %v (%d cells)", err, len(row.Cells))
		}
	}
}
