package phoenix

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// The executor works on encoded cells; these are the decoded-value
// implementations it replaced, kept as the references it is held to.

// boxedKey is appendKey over decoded values.
func boxedKey(buf []byte, vals []schema.Value) []byte {
	for _, v := range vals {
		switch x := v.(type) {
		case nil:
			buf = append(buf, keyNull)
		case int64:
			buf = binary.BigEndian.AppendUint64(append(buf, keyInt), uint64(x))
		case float64:
			if i := int64(x); float64(i) == x {
				buf = binary.BigEndian.AppendUint64(append(buf, keyInt), uint64(i))
			} else {
				buf = binary.BigEndian.AppendUint64(append(buf, keyFloat), math.Float64bits(x))
			}
		case string:
			buf = append(binary.AppendUvarint(append(buf, keyString), uint64(len(x))), x...)
		}
	}
	return buf
}

// boxedFold is one aggregate over decoded values: COUNT, SUM, AVG, MIN and
// MAX of the non-NULL ones, nil where SQL says NULL.
func boxedFold(vals []schema.Value) map[string]schema.Value {
	var count int64
	var sum float64
	var lo, hi schema.Value
	for _, v := range vals {
		if v == nil {
			continue
		}
		count++
		switch x := v.(type) {
		case int64:
			sum += float64(x)
		case float64:
			sum += x
		}
		if count == 1 || schema.CompareValues(v, lo) < 0 {
			lo = v
		}
		if count == 1 || schema.CompareValues(v, hi) > 0 {
			hi = v
		}
	}
	out := map[string]schema.Value{"COUNT": count, "SUM": nil, "AVG": nil, "MIN": lo, "MAX": hi}
	if count > 0 {
		out["AVG"] = sum / float64(count)
		out["SUM"] = sum
		if sum == float64(int64(sum)) {
			out["SUM"] = int64(sum)
		}
	}
	return out
}

// checkRawTuple holds the three encoded-cell kernels — key, compare,
// aggregate — to their references over one list of values. A nil value is
// encoded as nil or, where empty[i], as a present-but-empty cell.
func checkRawTuple(t *testing.T, vals []schema.Value, empty []bool) {
	t.Helper()
	cells, slots := make([][]byte, len(vals)), make([]int, len(vals))
	for i, v := range vals {
		cells[i], slots[i] = EncodeValue(v), i
		if v == nil && empty[i] {
			cells[i] = []byte{}
		}
	}
	if got, want := appendKey(nil, cells, slots), boxedKey(nil, vals); !bytes.Equal(got, want) {
		t.Errorf("appendKey(%#v) = %q, over decoded values %q", vals, got, want)
	}
	for i := range vals {
		for j := range vals {
			if got, want := compareCells(cells[i], cells[j]), schema.CompareValues(vals[i], vals[j]); cmp.Compare(got, 0) != cmp.Compare(want, 0) {
				t.Errorf("compareCells(%#v, %#v) = %d, CompareValues %d", vals[i], vals[j], got, want)
			}
		}
	}
	var st aggState
	for _, c := range cells {
		st.add(c)
	}
	var buf []byte
	for fn, want := range boxedFold(vals) {
		var got []byte
		buf, got = st.appendResult(buf, fn)
		// Which NaN a sum of two NaNs is depends on the operand order the
		// compiler picked at each site; any NaN equals any NaN here.
		gf, _ := DecodeValue(got).(float64)
		wf, _ := want.(float64)
		if !bytes.Equal(got, EncodeValue(want)) && !(math.IsNaN(gf) && math.IsNaN(wf)) {
			t.Errorf("%s(%#v) = %#v, over decoded values %#v", fn, vals, DecodeValue(got), want)
		}
	}
}

// TestRawTupleEdgeValues runs the differential check over the values where an
// encoded kernel could plausibly part from the decoded one.
func TestRawTupleEdgeValues(t *testing.T) {
	edge := []schema.Value{
		nil, int64(0), int64(5), int64(-3), int64(1<<53 + 1), int64(math.MaxInt64), int64(math.MinInt64),
		0.0, math.Copysign(0, -1), 5.0, 5.5, float64(1 << 53), 1e19, -1e19, math.NaN(), math.Inf(1), math.Inf(-1),
		"", "5", "n5", "a\x00b", "\x00",
	}
	for i, a := range edge {
		for j, b := range edge {
			checkRawTuple(t, []schema.Value{a, b, edge[(i+j)%len(edge)]}, []bool{i%2 == 0, j%2 == 0, true})
		}
	}
}

// FuzzRawTuple fuzzes the same check: three cells of any kind — int, float of
// any bit pattern (NaNs, infinities, -0, integers past 2^53), string (empty,
// NUL-bearing), NULL as an absent or an empty cell.
func FuzzRawTuple(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(2), int64(5), int64(math.Float64bits(5)), int64(0), "", "n5", "a\x00b")
	f.Add(uint8(1), uint8(1), uint8(1), int64(math.Float64bits(math.NaN())), int64(math.Float64bits(math.Copysign(0, -1))), int64(math.Float64bits(math.Inf(-1))), "", "", "")
	f.Add(uint8(0), uint8(1), uint8(0), int64(1<<53+1), int64(math.Float64bits(1<<53)), int64(math.MinInt64), "", "", "")
	f.Add(uint8(3), uint8(4), uint8(2), int64(0), int64(0), int64(0), "x", "", "\x00")
	f.Fuzz(func(t *testing.T, ak, bk, ck uint8, an, bn, cn int64, as, bs, cs string) {
		vals, empty := make([]schema.Value, 3), make([]bool, 3)
		vals[0], empty[0] = fuzzValue(ak, an, as)
		vals[1], empty[1] = fuzzValue(bk, bn, bs)
		vals[2], empty[2] = fuzzValue(ck, cn, cs)
		checkRawTuple(t, vals, empty)
	})
}

// TestMaterializedCursorZeroAllocsPerRow pins what carrying encoded cells to
// the cursor buys the wire server: stepping a 1,000-row join result and
// reading every value allocates nothing.
func TestMaterializedCursorZeroAllocsPerRow(t *testing.T) {
	hc := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
	cat := NewCatalog(hc)
	for _, r := range []*schema.Relation{
		{Name: "L", PK: []string{"l_id"}, Columns: []schema.Column{
			{Name: "l_id", Type: schema.TInt}, {Name: "l_r", Type: schema.TInt}, {Name: "l_s", Type: schema.TString}, {Name: "l_f", Type: schema.TFloat}}},
		{Name: "R", PK: []string{"r_id"}, Columns: []schema.Column{
			{Name: "r_id", Type: schema.TInt}, {Name: "r_name", Type: schema.TString}}},
	} {
		if _, err := cat.RegisterRelation(r, hbase.TableSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(cat)
	lt, _ := cat.Table("L")
	rt, _ := cat.Table("R")
	for i := int64(1); i <= 1000; i++ {
		if i <= 10 {
			if err := eng.PutRow(sim.NewCtx(), rt, schema.Row{"r_id": i, "r_name": fmt.Sprintf("r%d", i)}, WriteOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		row := schema.Row{"l_id": i, "l_r": i%10 + 1, "l_s": fmt.Sprintf("l%04d", i), "l_f": float64(i) / 4}
		if err := eng.PutRow(sim.NewCtx(), lt, row, WriteOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := sqlparser.ParseSelect("SELECT l.l_id, l.l_s, l.l_f, 'lit', r.r_name FROM L l, R r WHERE l.l_r = r.r_id")
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewCtx()
	cur, err := eng.QueryStream(ctx, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close(ctx)
	root := cur.(*query).root
	if _, ok := root.(*joinNode); !ok {
		t.Fatalf("a join's tree is rooted at %T", root)
	}
	rows, ncols := 0, len(cur.Columns())
	step := func() {
		if !cur.Next(ctx) {
			return
		}
		rows++
		for i := 0; i < ncols; i++ {
			rawSink = cur.RawValue(i)
		}
	}
	if n := testing.AllocsPerRun(999, step); n != 0 {
		t.Errorf("%v allocations per row, want 0", n)
	}
	if rows != 1000 || len(rawSink) == 0 {
		t.Fatalf("stepped %d rows (last value %q), want all 1,000 of the join", rows, rawSink)
	}
}
