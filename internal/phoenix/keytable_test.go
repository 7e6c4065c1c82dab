package phoenix

import (
	"bytes"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// checkKeyTable inserts keys into a table sized for hint of them and holds it
// to a map[string]int32 reference: ids are dense and in first-seen order, a
// repeated key gets its first id back, find agrees with insert at every step
// and after all growth, and a key never inserted is not found.
func checkKeyTable(t *testing.T, hint int, keys [][]byte) {
	t.Helper()
	kt := newKeyTable(hint)
	ref := map[string]int32{}
	for i, k := range keys {
		want, seen := ref[string(k)]
		if got := kt.find(k); seen && got != want || !seen && got != -1 {
			t.Fatalf("key %d %q: find before insert = %d (seen=%v, want id %d)", i, k, got, seen, want)
		}
		if !seen {
			want = int32(len(ref))
			ref[string(k)] = want
		}
		id, added := kt.insert(k)
		if id != want || added == seen {
			t.Fatalf("key %d %q: insert = (%d, %v), want (%d, %v)", i, k, id, added, want, !seen)
		}
		if len(kt.ends) != len(ref) {
			t.Fatalf("key %d %q: %d keys held, want %d", i, k, len(kt.ends), len(ref))
		}
	}
	for k, want := range ref {
		if got := kt.find([]byte(k)); got != want {
			t.Fatalf("%q: find after growth = %d, want %d", k, got, want)
		}
		if !bytes.Equal(kt.key(want), []byte(k)) {
			t.Fatalf("id %d holds %q, want %q", want, kt.key(want), k)
		}
		absent := k + "\x00absent"
		if _, held := ref[absent]; !held && kt.find([]byte(absent)) != -1 {
			t.Fatalf("%q was never inserted and is found", absent)
		}
	}
}

func TestKeyTable(t *testing.T) {
	// The empty key, keys that are prefixes of each other, NUL bytes, repeats.
	edge := [][]byte{{}, {0}, {0, 0}, []byte("a"), []byte("ab"), []byte("a\x00"), []byte("a\x00b"), {}, []byte("ab"), {0}}
	checkKeyTable(t, 0, edge)
	checkKeyTable(t, len(edge), edge)
	// Growth: 5,000 join keys into a table sized for none, each seen twice.
	var keys [][]byte
	for round := 0; round < 2; round++ {
		for i := int64(0); i < 5000; i++ {
			keys = append(keys, appendKey(nil, [][]byte{EncodeValue(i * 7919)}, []int{0}))
		}
	}
	checkKeyTable(t, 0, keys)
}

// FuzzKeyTable cuts data into keys at sep and runs them through checkKeyTable,
// at a size hint that forces growth and at one that avoids it.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte("a|ab||a|\x00|\x00\x00|ab"), byte('|'))
	f.Add([]byte{1, 0, 0, 0, 5, 0, 1, 0, 0, 0, 5, 0, 3, 1, 'x'}, byte(0))
	f.Add(bytes.Repeat([]byte("0123456789abcdef,"), 40), byte('3'))
	f.Fuzz(func(t *testing.T, data []byte, sep byte) {
		keys := bytes.Split(data, []byte{sep})
		checkKeyTable(t, 0, keys)
		checkKeyTable(t, len(keys), keys)
	})
}

// hashJoinDB is Q10's join in isolation: a 600-row probe side joined on a
// non-key column to a derived table of the hashJoinBuild newest of 4,000
// rows — the side the hash join builds on.
const (
	hashJoinBuild  = 3333
	hashJoinProbes = 600
	hashJoinSQL    = `SELECT p.p_id, t.b_id FROM P p, (SELECT b_id FROM B ORDER BY b_date DESC LIMIT 3333) t WHERE p.p_b = t.b_id`
)

func hashJoinDB(tb testing.TB) *Engine { return hashJoinDBWith(tb, nil) }

// hashJoinDBWith is hashJoinDB under costs (nil: the defaults).
func hashJoinDBWith(tb testing.TB, costs *sim.Costs) *Engine {
	tb.Helper()
	hc := hbase.NewHCluster(costs, nil)
	cat := NewCatalog(hc)
	for _, r := range []*schema.Relation{
		{Name: "P", PK: []string{"p_id"}, Columns: []schema.Column{{Name: "p_id", Type: schema.TInt}, {Name: "p_b", Type: schema.TInt}}},
		{Name: "B", PK: []string{"b_id"}, Columns: []schema.Column{{Name: "b_id", Type: schema.TInt}, {Name: "b_date", Type: schema.TInt}}},
	} {
		if _, err := cat.RegisterRelation(r, hbase.TableSpec{}); err != nil {
			tb.Fatal(err)
		}
	}
	eng := NewEngine(cat)
	ctx := sim.NewCtx()
	pt, _ := cat.Table("P")
	bt, _ := cat.Table("B")
	for i := int64(1); i <= 4000; i++ {
		if err := eng.PutRow(ctx, bt, schema.Row{"b_id": i, "b_date": 20000 - i}, WriteOpts{}); err != nil {
			tb.Fatal(err)
		}
		if i <= hashJoinProbes {
			// The probes past b_id 3,333 miss the build side.
			if err := eng.PutRow(ctx, pt, schema.Row{"p_id": i, "p_b": i * 6}, WriteOpts{}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return eng
}

const hashJoinMatches = hashJoinBuild / 6

// inHand is a node over rows already read.
type inHand struct{ list }

func (*inHand) Open(*sim.Ctx) error { return nil }

// TestHashJoinAllocsSublinear pins the key table's point: building a hash
// join on 3,333 rows and probing it 600 times allocates per slab and array,
// not per build-side row. It measures the join stage alone, the probe side
// already scanned.
func TestHashJoinAllocsSublinear(t *testing.T) {
	eng := hashJoinDB(t)
	sel, err := sqlparser.ParseSelect(hashJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewCtx()
	plan, err := eng.Compile(sel)
	if err != nil {
		t.Fatal(err)
	}
	q, err := plan.bind(ctx, nil, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	probe, build := q.bindings[0], q.bindings[1]
	outer, err := rowsOf(ctx, &scanNode{q: q, b: probe, path: q.fullPlan(probe), wide: true, keep: true}, nil)
	if built := q.execs[build.idx].derived; err != nil || len(outer) != hashJoinProbes || len(built) != hashJoinBuild {
		t.Fatalf("%d probe rows, %d build rows, err %v", len(outer), len(built), err)
	}
	outerCols, innerCols := q.joinCols(map[*binding]bool{probe: true}, build)
	var out []tuple
	n := testing.AllocsPerRun(5, func() {
		j := &joinNode{q: q, outer: &inHand{list{rows: outer}}, b: build, outerCols: outerCols, innerCols: innerCols}
		err = j.Open(ctx)
		out = j.rows
	})
	if err != nil || len(out) != hashJoinMatches {
		t.Fatalf("%d rows, want %d (err %v)", len(out), hashJoinMatches, err)
	}
	for i, row := range out {
		// Probe i+1 carries p_b = 6(i+1) and meets exactly that b_id.
		if p, b := RawCellInt(row.vals[q.out[0].src.slot()]), RawCellInt(row.vals[q.out[1].src.slot()]); p != int64(i+1) || b != 6*p {
			t.Fatalf("row %d joins p_id %d to b_id %d", i, p, b)
		}
	}
	if n > hashJoinBuild/50 {
		t.Errorf("%v allocations for a join built on %d rows, want at most %d", n, hashJoinBuild, hashJoinBuild/50)
	}
	t.Logf("%v allocations, %d build rows, %d probes", n, hashJoinBuild, hashJoinProbes)
}

// BenchmarkHashJoinBuild is the same statement: allocs/op is what the join's
// key index costs.
func BenchmarkHashJoinBuild(b *testing.B) {
	eng := hashJoinDB(b)
	sel, err := sqlparser.ParseSelect(hashJoinSQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var simTotal sim.Micros
	for i := 0; i < b.N; i++ {
		ctx := sim.NewCtx()
		if n := drainRaw(b, eng, ctx, sel); n != hashJoinMatches {
			b.Fatalf("%d rows, want %d", n, hashJoinMatches)
		}
		simTotal += ctx.Elapsed()
	}
	b.ReportMetric(simTotal.Milliseconds()/float64(b.N), "sim-ms/op")
}
