package phoenix

import (
	"errors"
	"fmt"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/occ"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// loadTS stamps every row pointDB loads; markTS and unmarkTS stamp the dirty
// marker set and cleared on the view row, and snapTS is the MVCC snapshot
// that sees all three.
const (
	loadTS   = 10
	markTS   = 30
	unmarkTS = 31
	snapTS   = 35
)

// pointDB is the fixture of the point-read tests: T(id, a, b, vk) keyed id,
// rows 1..20, and a view V(k, v) keyed k, rows 1..5, that row i of T joins by
// vk. Everything is written at loadTS and kept to 16 versions.
func pointDB(t *testing.T) *Engine {
	t.Helper()
	hc := hbase.NewHCluster(nil, nil)
	cat := NewCatalog(hc)
	spec := hbase.TableSpec{MaxVersions: 16}
	tbl := &schema.Relation{
		Name: "T",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt}, {Name: "a", Type: schema.TString},
			{Name: "b", Type: schema.TInt}, {Name: "vk", Type: schema.TInt},
		},
		PK: []string{"id"},
	}
	if _, err := cat.RegisterRelation(tbl, spec); err != nil {
		t.Fatal(err)
	}
	vcols := []schema.Column{{Name: "k", Type: schema.TInt}, {Name: "v", Type: schema.TString}}
	if _, err := cat.RegisterView("V", vcols, []string{"k"}, []string{"T"}, spec); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat)
	ctx := sim.NewCtx()
	ti, _ := cat.Table("T")
	vi, _ := cat.Table("V")
	for id := int64(1); id <= 20; id++ {
		row := schema.Row{"id": id, "a": fmt.Sprint("a", id), "b": id * 10, "vk": id%5 + 1}
		if err := e.PutRow(ctx, ti, row, WriteOpts{TS: loadTS}); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(1); k <= 5; k++ {
		if err := e.PutRow(ctx, vi, schema.Row{"k": k, "v": fmt.Sprint("v", k)}, WriteOpts{TS: loadTS}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// setDirty stamps the dirty marker of view row k at ts: "1" marks it, "0"
// clears it.
func setDirty(t *testing.T, e *Engine, k int64, mark string, ts int64) {
	t.Helper()
	cell := hbase.Cell{Qualifier: DirtyQualifier, Value: []byte(mark), TS: ts}
	if err := e.Client().Put(sim.NewCtx(), "V", schema.EncodeKey(k), []hbase.Cell{cell}); err != nil {
		t.Fatal(err)
	}
}

func pointQuery(t *testing.T, e *Engine, sql string, params []schema.Value, opts QueryOpts) (*ResultSet, sim.Stats, error) {
	t.Helper()
	ctx := sim.NewCtx()
	rs, err := e.QueryOpts(ctx, sqlparser.MustParse(sql).(*sqlparser.SelectStmt), params, opts)
	return rs, ctx.Snapshot(), err
}

// scanRead reads a single-table statement the way it was read before a fully
// bound key became a Get: its plan's [key, key\x00) spec, scanned through the
// reader opts names. It returns the rows the scan yields and what it cost.
func scanRead(t *testing.T, e *Engine, sql string, params []schema.Value, opts QueryOpts) ([]hbase.RowResult, sim.Stats) {
	t.Helper()
	plan, err := e.Compile(sqlparser.MustParse(sql).(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	q, err := plan.bind(sim.NewCtx(), params, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := q.bindings[0]
	tbl, spec, err := q.scanSpec(b, q.fullPlan(b), new(predFilter))
	if err != nil {
		t.Fatal(err)
	}
	if _, single := singleRow(spec); !single {
		t.Fatalf("%s: range [%q, %q) is not a single row", sql, spec.Start, spec.Stop)
	}
	var rd hbase.Reader = e.Client()
	if opts.Reader != nil {
		rd = opts.Reader
	}
	ctx := sim.NewCtx()
	sc, err := rd.OpenScan(ctx, tbl, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows []hbase.RowResult
	for {
		r, ok := sc.Next(ctx)
		if !ok {
			break
		}
		rows = append(rows, r.Clone())
	}
	return rows, ctx.Snapshot()
}

// checkGet runs a single-table statement that binds its whole row key and
// holds it to one Get: the rows the old scan returned, the rows and bytes it
// shipped, rpcs RPCs, and no row examined beyond the one the key names.
func checkGet(t *testing.T, e *Engine, opts, ref QueryOpts, sql string, params []schema.Value, wantRows, rpcs int) *ResultSet {
	t.Helper()
	rs, st, err := pointQuery(t, e, sql, params, opts)
	if err != nil {
		t.Fatalf("%s %v: %v", sql, params, err)
	}
	old, oldSt := scanRead(t, e, sql, params, ref)
	if len(rs.Rows) != wantRows || len(old) != wantRows {
		t.Fatalf("%s %v: %d rows by Get, %d by the scan, want %d", sql, params, len(rs.Rows), len(old), wantRows)
	}
	if st.RPCs != int64(rpcs) || st.RowsScanned > 1 || st.RowsReturned != oldSt.RowsReturned {
		t.Fatalf("%s %v: charged %+v, want %d RPCs, at most one row examined and the %d the scan shipped", sql, params, st, rpcs, oldSt.RowsReturned)
	}
	if st.BytesMoved != oldSt.BytesMoved {
		t.Fatalf("%s %v: Get shipped %d bytes, the scan %d", sql, params, st.BytesMoved, oldSt.BytesMoved)
	}
	return rs
}

// unmarking clears the dirty marker of view row k just before the at-th
// point read of V it serves.
type unmarking struct {
	hbase.Reader
	t     *testing.T
	e     *Engine
	k     int64
	at    int
	reads int
}

func (u *unmarking) GetRow(ctx *sim.Ctx, tbl, key string, spec hbase.ScanSpec) (hbase.RowResult, error) {
	if tbl == "V" {
		if u.reads++; u.reads == u.at {
			setDirty(u.t, u.e, u.k, "0", unmarkTS)
		}
	}
	return u.Reader.GetRow(ctx, tbl, key, spec)
}

// checkPointReads is what every reader must do with a fully bound key: a row
// is one Get examining one row; a filter that rejects the row still costs
// the Get and returns nothing; a key value no key column can hold costs no
// RPC; a projected read ships only what the scan it replaces shipped; and a
// dirty view row restarts the read, failing with ErrDirtyRead once the budget
// is spent and returning the row once it is clean. rd is the reader opts
// routes reads through, which the dirty case wraps.
func checkPointReads(t *testing.T, e *Engine, opts, ref QueryOpts, rd hbase.Reader) {
	key := []schema.Value{int64(7)}
	t.Run("row", func(t *testing.T) {
		rs := checkGet(t, e, opts, ref, `SELECT * FROM T WHERE id = ?`, key, 1, 1)
		if rs.Rows[0]["a"] != "a7" || rs.Rows[0]["b"] != int64(70) {
			t.Fatalf("row 7 = %v", rs.Rows[0])
		}
	})
	t.Run("filtered out", func(t *testing.T) {
		checkGet(t, e, opts, ref, `SELECT * FROM T WHERE id = ? AND b > 1000`, key, 0, 1)
	})
	t.Run("key no column holds", func(t *testing.T) {
		rs, st, err := pointQuery(t, e, `SELECT * FROM T WHERE id = 5.5`, nil, opts)
		if err != nil || len(rs.Rows) != 0 || st.RPCs != 0 {
			t.Fatalf("id = 5.5: %d rows, %d RPCs, err %v; want none", len(rs.Rows), st.RPCs, err)
		}
	})
	t.Run("projected", func(t *testing.T) {
		_, whole, _ := pointQuery(t, e, `SELECT * FROM T WHERE id = ?`, key, opts)
		rs := checkGet(t, e, opts, ref, `SELECT a FROM T WHERE id = ?`, key, 1, 1)
		if rs.Rows[0]["a"] != "a7" {
			t.Fatalf("a of row 7 = %v", rs.Rows[0])
		}
		if _, st, _ := pointQuery(t, e, `SELECT a FROM T WHERE id = ?`, key, opts); st.BytesMoved >= whole.BytesMoved {
			t.Fatalf("projected Get shipped %d bytes, the whole row %d", st.BytesMoved, whole.BytesMoved)
		}
	})
	t.Run("dirty view row", func(t *testing.T) {
		sql, vkey := `SELECT * FROM V WHERE k = ?`, []schema.Value{int64(2)}
		setDirty(t, e, 2, "1", markTS)
		dirty := opts
		dirty.DirtyCheck = true
		_, st, err := pointQuery(t, e, sql, vkey, dirty)
		if !errors.Is(err, ErrDirtyRead) || st.Restarts != maxRestarts || st.RPCs != maxRestarts {
			t.Fatalf("marked row: err %v after %d restarts, %d RPCs; want ErrDirtyRead after %d Gets", err, st.Restarts, st.RPCs, maxRestarts)
		}
		dirty.Reader = &unmarking{Reader: rd, t: t, e: e, k: 2, at: 2}
		rs, st, err := pointQuery(t, e, sql, vkey, dirty)
		if err != nil || len(rs.Rows) != 1 || rs.Rows[0]["v"] != "v2" || st.Restarts != 1 {
			t.Fatalf("row cleared on the second read: %v, %d restarts, err %v; want row 2 after one restart", rs, st.Restarts, err)
		}
	})
}

func TestPointReadClient(t *testing.T) {
	e := pointDB(t)
	checkPointReads(t, e, QueryOpts{}, QueryOpts{}, e.Client())
}

// A transaction's view merges its pending writes over the Get's store row,
// as the overlay scan merged them, and a pending row tombstone answers
// without the store.
func TestPointReadView(t *testing.T) {
	e := pointDB(t)
	m := e.Client().NewBufferedMutator(0)
	opts := QueryOpts{Reader: m.View()}
	for _, w := range []struct {
		sql    string
		params []schema.Value
	}{
		{`UPDATE T SET a = ? WHERE id = ?`, []schema.Value{"pending", int64(4)}},
		{`INSERT INTO T (id, a, b, vk) VALUES (?, ?, ?, ?)`, []schema.Value{int64(99), "new", int64(990), int64(1)}},
		{`DELETE FROM T WHERE id = ?`, []schema.Value{int64(5)}},
		{`UPDATE T SET a = ? WHERE id = ?`, []schema.Value{nil, int64(6)}},
	} {
		if err := e.Exec(sim.NewCtx(), sqlparser.MustParse(w.sql), w.params, WriteOpts{Mutator: m}); err != nil {
			t.Fatalf("%s: %v", w.sql, err)
		}
	}
	t.Run("pending put", func(t *testing.T) {
		rs := checkGet(t, e, opts, opts, `SELECT * FROM T WHERE id = ?`, []schema.Value{int64(4)}, 1, 1)
		if rs.Rows[0]["a"] != "pending" || rs.Rows[0]["b"] != int64(40) {
			t.Fatalf("row 4 = %v", rs.Rows[0])
		}
		// The filter judges the merged row, not the store's.
		checkGet(t, e, opts, opts, `SELECT a FROM T WHERE id = ? AND a = 'pending'`, []schema.Value{int64(4)}, 1, 1)
		checkGet(t, e, opts, opts, `SELECT * FROM T WHERE id = ? AND a = 'a4'`, []schema.Value{int64(4)}, 0, 1)
		rs = checkGet(t, e, opts, opts, `SELECT * FROM T WHERE id = ?`, []schema.Value{int64(99)}, 1, 1)
		if rs.Rows[0]["a"] != "new" {
			t.Fatalf("row 99 = %v", rs.Rows[0])
		}
	})
	t.Run("pending row tombstone", func(t *testing.T) {
		rs, st, err := pointQuery(t, e, `SELECT * FROM T WHERE id = ?`, []schema.Value{int64(5)}, opts)
		if err != nil || len(rs.Rows) != 0 || st.RPCs != 0 {
			t.Fatalf("deleted row 5: %v, %d RPCs, err %v; want nothing and no RPC", rs.Rows, st.RPCs, err)
		}
	})
	t.Run("pending column tombstone", func(t *testing.T) {
		rs := checkGet(t, e, opts, opts, `SELECT * FROM T WHERE id = ?`, []schema.Value{int64(6)}, 1, 1)
		if rs.Rows[0]["a"] != nil || rs.Rows[0]["b"] != int64(60) {
			t.Fatalf("row 6 = %v, want a NULL", rs.Rows[0])
		}
		checkGet(t, e, opts, opts, `SELECT b FROM T WHERE id = ?`, []schema.Value{int64(6)}, 1, 1)
	})
	checkPointReads(t, e, opts, opts, m.View())
}

// An OCC transaction's tracking reader records a fully bound read as the
// point it is, never as a range; a key no column holds records nothing.
func TestPointReadOCC(t *testing.T) {
	e := pointDB(t)
	clock := int64(1000)
	v := occ.NewValidatorWithOracle(nil, func() int64 { clock++; return clock })
	tx := v.Begin(sim.NewCtx())
	tracked := tx.Track(e.Client())
	opts := QueryOpts{Reader: tracked, Read: tx.ReadOpts()}
	ref := QueryOpts{Read: tx.ReadOpts()} // the old scan, kept out of tx's read set

	if _, _, err := pointQuery(t, e, `SELECT * FROM T WHERE id = 5.5`, nil, opts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pointQuery(t, e, `SELECT a FROM T WHERE id = ?`, []schema.Value{int64(3)}, opts); err != nil {
		t.Fatal(err)
	}
	if !tx.HasRead("T", schema.EncodeKey(int64(3))) || tx.ReadRanges() != 0 {
		t.Fatalf("read set: point 3 = %v, %d ranges; want the point and no range", tx.HasRead("T", schema.EncodeKey(int64(3))), tx.ReadRanges())
	}
	checkPointReads(t, e, opts, ref, tracked)
	if tx.ReadRanges() != 0 {
		t.Fatalf("point reads left %d ranges in the read set", tx.ReadRanges())
	}
}

// An MVCC snapshot read hides a version newer than the snapshot and one of
// an invalidated transaction, on the Get as on the scan.
func TestPointReadMVCC(t *testing.T) {
	e := pointDB(t)
	ti, _ := e.Catalog().Table("T")
	for _, w := range []struct {
		a  string
		ts int64
	}{{"invalid", 20}, {"future", 40}} {
		row := schema.Row{"id": int64(8), "a": w.a, "b": int64(80), "vk": int64(4)}
		if err := e.PutRow(sim.NewCtx(), ti, row, WriteOpts{TS: w.ts}); err != nil {
			t.Fatal(err)
		}
	}
	opts := QueryOpts{Read: hbase.ReadOpts{ReadTS: snapTS, Excluded: func(ts int64) bool { return ts == 20 }}}
	rs := checkGet(t, e, opts, opts, `SELECT * FROM T WHERE id = ?`, []schema.Value{int64(8)}, 1, 1)
	if rs.Rows[0]["a"] != "a8" {
		t.Fatalf("row 8 at the snapshot = %v, want the loaded a8", rs.Rows[0])
	}
	checkGet(t, e, opts, opts, `SELECT a FROM T WHERE id = ? AND a = 'future'`, []schema.Value{int64(8)}, 0, 1)
	checkPointReads(t, e, opts, opts, e.Client())
}

// An index nested-loop probe that meets a dirty view row reads that probe
// again, under the restart budget: the join fails with ErrDirtyRead while
// the row stays marked and returns it once it is cleared — never a short
// result without an error.
func TestINLDirtyProbe(t *testing.T) {
	e := pointDB(t)
	const sql = `SELECT t.id, v.v FROM T t, V v WHERE t.vk = v.k AND t.id = ?`
	params := []schema.Value{int64(7)} // vk 3
	opts := QueryOpts{DirtyCheck: true}

	rs, st, err := pointQuery(t, e, sql, params, opts)
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0]["v"] != "v3" {
		t.Fatalf("clean join: %v, err %v", rs, err)
	}
	if st.RPCs != 2 || st.RowsScanned != 2 {
		t.Fatalf("clean join charged %+v, want a Get of T and an INL Get of V", st)
	}

	setDirty(t, e, 3, "1", markTS)
	rs, st, err = pointQuery(t, e, sql, params, opts)
	if !errors.Is(err, ErrDirtyRead) || st.Restarts != maxRestarts {
		t.Fatalf("marked probe: %v, err %v after %d restarts; want ErrDirtyRead after %d", rs, err, st.Restarts, maxRestarts)
	}

	opts.Reader = &unmarking{Reader: e.Client(), t: t, e: e, k: 3, at: 3}
	rs, st, err = pointQuery(t, e, sql, params, opts)
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0]["v"] != "v3" || st.Restarts != 2 {
		t.Fatalf("probe cleared on its third read: %v, %d restarts, err %v; want the row after two restarts", rs, st.Restarts, err)
	}
}
