package phoenix

import (
	"math"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/schema"
)

// checkKeyOfCells holds the cell-side front door of the key encoding to the
// boxed one: the key AppendKeyOfCells builds over three columns of an encoded
// row is schema.EncodeKey of the decoded values, byte for byte, and it reports
// a NULL part exactly when a value is NULL — absent from the row, or present
// with an empty value.
func checkKeyOfCells(t *testing.T, vals []schema.Value, emptyCell []bool) {
	t.Helper()
	cols := []string{"b", "a", "c"} // key order is not qualifier order
	row := schema.Row{"pad": int64(1), "z": "tail"}
	for i, v := range vals {
		if v != nil {
			row[cols[i]] = v
		}
	}
	cells := RowToCells(row)
	for i, v := range vals {
		if v == nil && emptyCell[i] {
			// A NULL the store kept as an empty value, slotted in by qualifier.
			at := 0
			for at < len(cells) && cells[at].Qualifier < cols[i] {
				at++
			}
			cells = append(cells[:at], append([]hbase.Cell{{Qualifier: cols[i], Value: []byte{}}}, cells[at:]...)...)
		}
	}
	decoded := make([]schema.Value, len(cols))
	wantNull := false
	for i, col := range cols {
		for _, c := range cells {
			if c.Qualifier == col {
				decoded[i] = DecodeValue(c.Value)
			}
		}
		wantNull = wantNull || decoded[i] == nil
	}
	got, null := AppendKeyOfCells(nil, cells, cols)
	if want := schema.EncodeKey(decoded...); string(got) != want || null != wantNull {
		t.Fatalf("key of %v = %q (null %v), EncodeKey = %q (null %v)", vals, got, null, want, wantNull)
	}
	// A second run of columns continues the key, as an index key does.
	got, _ = AppendKeyOfCells(got, cells, cols[:1])
	if want := schema.EncodeKey(append(decoded, decoded[0])...); string(got) != want {
		t.Fatalf("continued key of %v = %q, EncodeKey = %q", vals, got, want)
	}
}

func TestKeyOfCells(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	negNaN := math.Float64frombits(math.Float64bits(nan) | 1<<63)
	for _, vals := range [][]schema.Value{
		{int64(0), int64(-1), int64(1)},
		{int64(math.MinInt64), int64(math.MaxInt64), int64(1<<53 + 1)},
		{0.0, negZero, 1.5},
		{nan, negNaN, math.Inf(1)},
		{math.Inf(-1), -math.MaxFloat64, math.SmallestNonzeroFloat64},
		{"", "a\x00b", "\x00"},
		{"\x00\xff", "plain", "trailing\x00"},
		{nil, int64(7), "s"},
		{nil, nil, nil},
	} {
		checkKeyOfCells(t, vals, []bool{false, false, false})
		checkKeyOfCells(t, vals, []bool{true, true, true})
	}
}

// FuzzKeyOfCells fuzzes the same check: three key parts of any kind — int,
// float of any bit pattern (NaNs of either sign, infinities, ±0), string
// (empty, NUL-bearing), NULL as an absent or an empty cell.
func FuzzKeyOfCells(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), int64(math.MinInt64), int64(math.MaxInt64), int64(-1), "", "", "")
	f.Add(uint8(1), uint8(1), uint8(1), int64(math.Float64bits(math.NaN())), int64(math.Float64bits(math.Copysign(0, -1))), int64(math.Float64bits(math.Inf(-1))), "", "", "")
	f.Add(uint8(1), uint8(1), uint8(1), int64(0), int64(-1), int64(math.Float64bits(math.Inf(1))), "", "", "")
	f.Add(uint8(2), uint8(2), uint8(2), int64(0), int64(0), int64(0), "", "a\x00b", "\x00\xff")
	f.Add(uint8(3), uint8(4), uint8(2), int64(0), int64(0), int64(0), "x", "", "\x00")
	f.Fuzz(func(t *testing.T, ak, bk, ck uint8, an, bn, cn int64, as, bs, cs string) {
		vals, present := make([]schema.Value, 3), make([]bool, 3)
		vals[0], present[0] = fuzzValue(ak, an, as)
		vals[1], present[1] = fuzzValue(bk, bn, bs)
		vals[2], present[2] = fuzzValue(ck, cn, cs)
		checkKeyOfCells(t, vals, present)
	})
}
