package phoenix

import (
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
)

// TestAppendKeyTagsAndDelimits pins the join/group key encoding: components
// are type-tagged and length-delimited, so a number never collides with the
// string that used to render like it, a NUL inside a string cannot move the
// column boundary, and int64(5) still keys like float64(5).
func TestAppendKeyTagsAndDelimits(t *testing.T) {
	key := func(vals ...schema.Value) string {
		cells, slots := make([][]byte, len(vals)), make([]int, len(vals))
		for i, v := range vals {
			cells[i], slots[i] = EncodeValue(v), i
		}
		return string(appendKey(nil, cells, slots))
	}
	distinct := [][]schema.Value{
		{int64(5)}, {"n5"}, {"5"}, {5.5}, {"f5.5"}, {nil}, {"\x00nil"}, {""}, {"true"},
		{"a\x00b", "c"}, {"a", "b\x00c"}, {"a\x00b\x00c"}, {"a", "b", "c"},
		{int64(1), int64(2)}, {int64(1)}, {nil, nil},
	}
	seen := map[string][]schema.Value{}
	for _, vals := range distinct {
		k := key(vals...)
		if prev, dup := seen[k]; dup {
			t.Errorf("%#v and %#v share key %q", prev, vals, k)
		}
		seen[k] = vals
	}
	if key(int64(5)) != key(5.0) || key(int(5)) != key(int64(5)) {
		t.Error("int64(5), int(5) and float64(5) must share a key")
	}
	if key(int64(5), "x") != key(5.0, "x") {
		t.Error("numeric equivalence must survive inside a composite key")
	}
}

// TestJoinAndGroupKeysDoNotAlias is the SQL-level regression for the same
// defect: the hash join never re-checks equality and GROUP BY trusts its key,
// so under the old rendering int64(5) joined the string "n5" and the pairs
// ("a\x00b","c") / ("a","b\x00c") fell into one group.
func TestJoinAndGroupKeysDoNotAlias(t *testing.T) {
	hc := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
	cat := NewCatalog(hc)
	for _, name := range []string{"L", "R"} {
		rel := &schema.Relation{
			Name: name,
			Columns: []schema.Column{
				{Name: name + "_id", Type: schema.TInt},
				{Name: name + "_a", Type: schema.TString},
				{Name: name + "_b", Type: schema.TString},
				{Name: name + "_n", Type: schema.TInt},
				{Name: name + "_f", Type: schema.TFloat},
				{Name: name + "_s", Type: schema.TString},
			},
			PK: []string{name + "_id"},
		}
		if _, err := cat.RegisterRelation(rel, hbase.TableSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(cat)
	ctx := sim.NewCtx()
	put := func(table string, row schema.Row) {
		t.Helper()
		info, _ := cat.Table(table)
		if err := eng.PutRow(ctx, info, row, WriteOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	put("L", schema.Row{"L_id": int64(1), "L_a": "a\x00b", "L_b": "c", "L_n": int64(5), "L_f": 5.0, "L_s": "n5"})
	put("L", schema.Row{"L_id": int64(2), "L_a": "a", "L_b": "b\x00c", "L_n": int64(6), "L_f": 6.5, "L_s": "n6"})
	put("R", schema.Row{"R_id": int64(1), "R_a": "a", "R_b": "b\x00c", "R_n": int64(5), "R_f": 5.0, "R_s": "n5"})

	// Non-key join columns force the hash join.
	count := func(sql string) int {
		t.Helper()
		return len(runQuery(t, eng, ctx, sql).Rows)
	}
	if n := count("SELECT L_id FROM L, R WHERE L_n = R_s"); n != 0 {
		t.Errorf("int64(5) joined the string \"n5\": %d rows", n)
	}
	if n := count("SELECT L_id FROM L, R WHERE L_a = R_a AND L_b = R_b"); n != 1 {
		t.Errorf("two-column string join: %d rows, want only L_id=2", n)
	}
	if n := count("SELECT L_id FROM L, R WHERE L_n = R_f"); n != 1 {
		t.Errorf("int64(5) must still join float64(5): %d rows", n)
	}
	if n := count("SELECT L_a, L_b, COUNT(*) FROM L GROUP BY L_a, L_b"); n != 2 {
		t.Errorf("GROUP BY merged (\"a\\x00b\",\"c\") with (\"a\",\"b\\x00c\"): %d groups", n)
	}
	rs := runQuery(t, eng, ctx, "SELECT t.v, COUNT(*) AS n FROM (SELECT L_n AS v FROM L) t, R WHERE t.v = R_f GROUP BY t.v")
	if len(rs.Rows) != 1 || rs.Rows[0]["n"] != int64(1) {
		t.Errorf("derived int key against float: %v", rs.Rows)
	}
}
