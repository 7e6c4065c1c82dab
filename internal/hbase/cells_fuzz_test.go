package hbase

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzCellsMerge fuzzes the sorted-slice row machinery end to end: fuzz
// bytes become a cell-operation tape (puts, column tombstones, row
// tombstones, spread over up to three sorted parts), the parts are merged
// with mergeCellsInto, and the invariants every consumer of Cells relies
// on are checked:
//
//   - sortedness: merged cell indexes are ordered by cellLess, and every
//     materialized Cells slice is strictly ascending by qualifier;
//   - precedence/stability: on identical (qualifier, ts, type) coordinates
//     the earlier (higher-precedence) part's cell wins;
//   - last-write-wins + tombstone handling: the slice read matches the
//     reference map read under plain, snapshot and excluded-version
//     options, and binary-search Get agrees pair for pair.
//
// CI runs this for a short -fuzztime as a smoke step; run it longer
// locally when touching rowdata.go or merge.go.
//
// The aliasing phase at the end deliberately scribbles over a returned
// Cells to prove reads stay independent (cellsvet:owner).
func FuzzCellsMerge(f *testing.F) {
	f.Add([]byte{0x01, 0x22, 0x43, 0x10, 0x05})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x33, 0x9a, 0x02, 0x41})
	f.Add(bytes.Repeat([]byte{0x42, 0x13}, 40))
	f.Fuzz(func(t *testing.T, tape []byte) {
		parts := [3]*rowData{{}, {}, {}}
		for off := 0; off+3 < len(tape); off += 4 {
			qual := fmt.Sprintf("q%d", tape[off]%8)
			ts := int64(tape[off+1]%32) + 1
			kind := CellType(tape[off+2] % 3)
			part := int(tape[off+3]) % len(parts)
			c := Cell{Qualifier: qual, TS: ts, Type: kind}
			switch kind {
			case TypePut:
				// The value encodes (part, offset) so precedence on
				// coordinate ties is observable from the winning cell.
				c.Value = []byte(fmt.Sprintf("p%d-%d", part, off))
			case TypeDeleteRow:
				c.Qualifier = "" // row tombstones live at the empty qualifier
			}
			parts[part].apply(c, 4)
			if !sortedByCellLess(parts[part].cells) {
				t.Fatalf("part %d unsorted after apply(%+v)", part, c)
			}
		}

		m := merged(parts[0], parts[1], parts[2])
		if !sortedByCellLess(m.cells) {
			t.Fatalf("merged cells unsorted: %+v", m.cells)
		}
		total := len(parts[0].cells) + len(parts[1].cells) + len(parts[2].cells)
		if len(m.cells) != total {
			t.Fatalf("merge dropped cells: %d in, %d out", total, len(m.cells))
		}
		// Stability: among equal coordinates, part order must be preserved
		// (put values encode their part index at Value[1]).
		for i := 1; i < len(m.cells); i++ {
			a, b := m.cells[i-1], m.cells[i]
			if a.Qualifier == b.Qualifier && a.TS == b.TS && a.Type == b.Type &&
				a.Type == TypePut && a.Value[1] > b.Value[1] {
				t.Fatalf("merge not stable at %d: part %c before part %c", i, a.Value[1], b.Value[1])
			}
		}

		optsList := []ReadOpts{
			{},
			{ReadTS: 9},
			{Excluded: func(ts int64) bool { return ts%3 == 0 }},
		}
		for oi, opts := range optsList {
			got := m.read(opts)
			if !got.sortedOK() {
				t.Fatalf("opts %d: read not strictly sorted: %v", oi, got)
			}
			want := readRefMap(m, opts)
			if len(got) != len(want) {
				t.Fatalf("opts %d: slice read %d pairs, map read %d (%v vs %v)", oi, len(got), len(want), got, want)
			}
			for _, p := range got {
				if !bytes.Equal(p.Value, want[p.Qualifier]) {
					t.Fatalf("opts %d: %s = %q, reference %q", oi, p.Qualifier, p.Value, want[p.Qualifier])
				}
				if !bytes.Equal(got.Get(p.Qualifier), p.Value) {
					t.Fatalf("opts %d: binary-search Get(%s) diverges from pair", oi, p.Qualifier)
				}
			}
			if got.Get("absent-qualifier") != nil {
				t.Fatalf("opts %d: Get of absent qualifier returned a value", oi)
			}
		}

		// Aliasing: a returned Cells is freshly materialized — clobbering
		// every pair in it (structs, not the shared Value bytes) must not
		// change what a later read or an earlier Clone observes.
		scribbled := m.read(ReadOpts{})
		snap := scribbled.Clone()
		for i := range scribbled {
			scribbled[i] = Pair{Qualifier: "zz-scribble", Value: []byte("scribble")}
		}
		fresh := m.read(ReadOpts{})
		if len(fresh) != len(snap) {
			t.Fatalf("scribbling a returned Cells changed a later read: %d vs %d pairs", len(fresh), len(snap))
		}
		for i := range fresh {
			if fresh[i].Qualifier != snap[i].Qualifier || !bytes.Equal(fresh[i].Value, snap[i].Value) {
				t.Fatalf("scribbling a returned Cells leaked into pair %d: %+v vs %+v", i, fresh[i], snap[i])
			}
		}

		// Compaction must preserve the sort invariant and read equivalence
		// for the plain view it is defined over (latest versions survive,
		// tombstoned data does not return).
		before := m.read(ReadOpts{})
		mc := merged(m)
		mc.compact(1)
		if !sortedByCellLess(mc.cells) {
			t.Fatalf("compacted cells unsorted: %+v", mc.cells)
		}
		after := mc.read(ReadOpts{})
		if len(before) != len(after) {
			t.Fatalf("compaction changed visible row: %v -> %v", before, after)
		}
		for i := range before {
			if before[i].Qualifier != after[i].Qualifier || !bytes.Equal(before[i].Value, after[i].Value) {
				t.Fatalf("compaction changed visible pair %d: %v -> %v", i, before[i], after[i])
			}
		}
	})
}

// sortedByCellLess reports whether cells are in non-decreasing cellLess
// order (ties allowed: merges keep same-coordinate duplicates adjacent).
func sortedByCellLess(cells []Cell) bool {
	for i := 1; i < len(cells); i++ {
		if cellLess(cells[i], cells[i-1]) {
			return false
		}
	}
	return true
}
