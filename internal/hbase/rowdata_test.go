package hbase

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// read is readInto a fresh slice: the row's visible pairs, nil when none is
// visible. The tests' reference read.
func (r *rowData) read(opts ReadOpts) Cells {
	pairs, _ := r.readInto(nil, opts, nil)
	return pairs
}

func put(q, v string, ts int64) Cell {
	return Cell{Qualifier: q, Value: []byte(v), TS: ts}
}

// putStamped applies a put straight to region r whose cells all carry their
// stamps, so the mutation's own stamp is never read and none is drawn.
func putStamped(r *Region, key string, cells []Cell) {
	r.put(key, cells[0].TS, cells, nil)
}

func TestRowDataLatestWins(t *testing.T) {
	rd := &rowData{}
	rd.apply(put("a", "v1", 1), 3)
	rd.apply(put("a", "v2", 2), 3)
	got := rd.read(ReadOpts{})
	if string(got.Get("a")) != "v2" {
		t.Fatalf("read = %q, want v2", got.Get("a"))
	}
}

func TestRowDataVersionTrim(t *testing.T) {
	rd := &rowData{}
	for ts := int64(1); ts <= 5; ts++ {
		rd.apply(put("a", fmt.Sprintf("v%d", ts), ts), 2)
	}
	if n := len(rd.cells); n != 2 {
		t.Fatalf("retained %d versions, want 2", n)
	}
	if got := rd.read(ReadOpts{}); string(got.Get("a")) != "v5" {
		t.Fatalf("latest = %q, want v5", got.Get("a"))
	}
}

func TestRowDataSnapshotRead(t *testing.T) {
	rd := &rowData{}
	rd.apply(put("a", "old", 5), 10)
	rd.apply(put("a", "new", 9), 10)
	got := rd.read(ReadOpts{ReadTS: 7})
	if string(got.Get("a")) != "old" {
		t.Fatalf("snapshot@7 = %q, want old", got.Get("a"))
	}
}

func TestRowDataExcludedVersions(t *testing.T) {
	rd := &rowData{}
	rd.apply(put("a", "committed", 5), 10)
	rd.apply(put("a", "aborted", 8), 10)
	got := rd.read(ReadOpts{Excluded: func(ts int64) bool { return ts == 8 }})
	if string(got.Get("a")) != "committed" {
		t.Fatalf("read with exclusion = %q, want committed", got.Get("a"))
	}
}

func TestRowDataRowTombstone(t *testing.T) {
	rd := &rowData{}
	rd.apply(put("a", "v", 1), 10)
	rd.apply(put("b", "w", 2), 10)
	rd.apply(Cell{Qualifier: "", TS: 5, Type: TypeDeleteRow}, 10)
	if got := rd.read(ReadOpts{}); got != nil {
		t.Fatalf("read after row tombstone = %v, want nil", got)
	}
	// A put newer than the tombstone is visible again.
	rd.apply(put("a", "reborn", 7), 10)
	got := rd.read(ReadOpts{})
	if string(got.Get("a")) != "reborn" || got.Get("b") != nil {
		t.Fatalf("read = %v, want only a=reborn", got)
	}
}

func TestRowDataColumnTombstone(t *testing.T) {
	rd := &rowData{}
	rd.apply(put("a", "v", 1), 10)
	rd.apply(put("b", "w", 1), 10)
	rd.apply(Cell{Qualifier: "a", TS: 5, Type: TypeDeleteCol}, 10)
	got := rd.read(ReadOpts{})
	if got.Get("a") != nil || string(got.Get("b")) != "w" {
		t.Fatalf("read = %v, want only b=w", got)
	}
}

func TestRowDataReadGet(t *testing.T) {
	rd := &rowData{}
	rd.apply(put("a", "1", 1), 1)
	rd.apply(put("b", "2", 1), 1)
	rd.apply(put("c", "3", 1), 1)
	got := rd.read(ReadOpts{})
	if string(got.Get("a")) != "1" || string(got.Get("c")) != "3" || got.Get("d") != nil {
		t.Fatalf("read = %v, want a=1 c=3 and no d", got)
	}
}

func TestRowDataCompactDropsTombstones(t *testing.T) {
	rd := &rowData{}
	rd.apply(put("a", "v1", 1), 10)
	rd.apply(put("a", "v2", 2), 10)
	rd.apply(Cell{Qualifier: "a", TS: 3, Type: TypeDeleteCol}, 10)
	rd.apply(put("a", "v3", 4), 10)
	rd.compact(1)
	if n := len(rd.cells); n != 1 {
		t.Fatalf("cells after compact = %d, want 1", n)
	}
	if got := rd.read(ReadOpts{}); string(got.Get("a")) != "v3" {
		t.Fatalf("read after compact = %q, want v3", got.Get("a"))
	}
}

func TestRowDataCompactRowTombstone(t *testing.T) {
	rd := &rowData{}
	rd.apply(put("a", "dead", 1), 10)
	rd.apply(Cell{Qualifier: "", TS: 5, Type: TypeDeleteRow}, 10)
	rd.compact(10)
	if !rd.empty() {
		t.Fatalf("compacted row should be empty, has %v", rd.cells)
	}
}

func TestRowDataSizeBytes(t *testing.T) {
	rd := &rowData{}
	rd.apply(put("col", "value", 1), 1)
	want := KVSize("rowkey", rd.cells[0])
	if got := rd.sizeBytes("rowkey"); got != want {
		t.Fatalf("sizeBytes = %d, want %d", got, want)
	}
}

func TestMergedPreservesOrder(t *testing.T) {
	a := &rowData{}
	a.apply(put("x", "newer", 5), 10)
	b := &rowData{}
	b.apply(put("x", "older", 2), 10)
	b.apply(put("y", "only", 1), 10)
	m := merged(a, b)
	got := m.read(ReadOpts{})
	if string(got.Get("x")) != "newer" || string(got.Get("y")) != "only" {
		t.Fatalf("merged read = %v", got)
	}
}

// Property: after applying any set of puts to a single qualifier, read
// returns the value with the maximum timestamp.
func TestRowDataMaxTSWinsProperty(t *testing.T) {
	f := func(tss []uint8) bool {
		if len(tss) == 0 {
			return true
		}
		rd := &rowData{}
		var maxTS int64 = -1
		var want string
		for _, u := range tss {
			ts := int64(u) + 1
			v := fmt.Sprintf("v%d", ts)
			rd.apply(put("q", v, ts), 1000)
			if ts >= maxTS {
				// Equal timestamps: last applied overwrites.
				maxTS = ts
				want = v
			}
		}
		got := rd.read(ReadOpts{})
		return string(got.Get("q")) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: read(ReadTS=k) never returns a cell with timestamp > k.
func TestRowDataSnapshotNeverFutureProperty(t *testing.T) {
	f := func(tss []uint8, readTS uint8) bool {
		rd := &rowData{}
		for _, u := range tss {
			ts := int64(u) + 1
			rd.apply(put("q", fmt.Sprintf("%d", ts), ts), 1000)
		}
		// ReadTS zero means "no snapshot bound", so test with ts >= 1.
		snap := int64(readTS) + 1
		got := rd.read(ReadOpts{ReadTS: snap})
		if got == nil {
			return true
		}
		var seen int64
		fmt.Sscanf(string(got.Get("q")), "%d", &seen)
		return seen <= snap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// applyByInsert is the reference apply: insert the cell, then trim every put
// of its qualifier past maxVersions, counting from the new cell.
func applyByInsert(r *rowData, c Cell, maxVersions int) (cells, payload int) {
	i := r.search(c)
	if i < len(r.cells) && r.cells[i].Qualifier == c.Qualifier && r.cells[i].TS == c.TS && r.cells[i].Type == c.Type {
		payload = len(c.Value) - len(r.cells[i].Value)
		r.cells[i] = c
		return 0, payload
	}
	r.cells = slices.Insert(r.cells, i, c)
	cells, payload = 1, len(c.Qualifier)+len(c.Value)
	if c.Type != TypePut {
		return cells, payload
	}
	puts := 0
	for j := i; j < len(r.cells) && r.cells[j].Qualifier == c.Qualifier; j++ {
		if r.cells[j].Type != TypePut {
			continue
		}
		if puts++; puts > maxVersions {
			cells--
			payload -= len(c.Qualifier) + len(r.cells[j].Value)
			r.cells = append(r.cells[:j], r.cells[j+1:]...)
			j--
		}
	}
	return cells, payload
}

// TestRowDataApplyInPlace holds apply to insert-then-trim over random cells —
// puts old and new, overwrites, column and row tombstones, one to three
// versions — for the row it leaves and the change it reports; and a row whose
// window is full takes a cell grows says it does not need room for without
// moving.
func TestRowDataApplyInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 2000; run++ {
		maxVersions := 1 + rng.Intn(3)
		var got, want rowData
		for step := 0; step < 40; step++ {
			c := Cell{Qualifier: string(rune('a' + rng.Intn(3))), TS: int64(rng.Intn(12)), Value: []byte(fmt.Sprint(rng.Intn(100)))}
			switch rng.Intn(8) {
			case 0:
				c.Type, c.Value = TypeDeleteCol, nil
			case 1:
				c.Qualifier, c.Type, c.Value = "", TypeDeleteRow, nil
			}
			grows := got.grows(c, maxVersions)
			got.cells = slices.Clip(got.cells) // full: a cell that needs room moves the row
			full := got.cells
			gc, gp := got.apply(c, maxVersions)
			wc, wp := applyByInsert(&want, c, maxVersions)
			if gc != wc || gp != wp || !sameCells(got.cells, want.cells) {
				t.Fatalf("run %d step %d: apply %+v (max %d) gave %v (%d, %d), insert-then-trim %v (%d, %d)",
					run, step, c, maxVersions, got.cells, gc, gp, want.cells, wc, wp)
			}
			if grows != (gc == 1) {
				t.Fatalf("run %d step %d: grows %v, apply added %d cells", run, step, grows, gc)
			}
			if !grows && len(full) > 0 && &got.cells[:1][0] != &full[0] {
				t.Fatalf("run %d step %d: a cell grows said fits moved the row", run, step)
			}
		}
	}
}
