package phoenix

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/hbase"
	"synergy/internal/occ"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// foldDB is the fixture of the fold parity tests: A(id, g, x, f, s, z) keyed
// id, rows 1..200 but 77, pre-split into four regions at ids 51, 101 and 151,
// with a covered index on g split in three; and a view V(k, grp, val) keyed k,
// rows 1..60, split at 21 and 41. Group g is NULL on every 13th row, z is NULL
// throughout group 3, and every float is a multiple of 0.25, so a SUM comes
// out the same in any order. Everything is written at loadTS and kept to 16
// versions. workers says whether a scan spanning regions gets pool workers.
func foldDB(t *testing.T, workers bool) *Engine {
	t.Helper()
	costs := sim.DefaultCosts()
	if !workers {
		costs.ScanParallelism = 1
	}
	hc := hbase.NewHCluster(cluster.NewDefault(costs), nil, nil)
	cat := NewCatalog(hc)
	splits := func(keys ...int64) hbase.TableSpec {
		spec := hbase.TableSpec{MaxVersions: 16}
		for _, k := range keys {
			spec.SplitKeys = append(spec.SplitKeys, schema.EncodeKey(k))
		}
		return spec
	}
	a := &schema.Relation{
		Name: "A",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt}, {Name: "g", Type: schema.TInt}, {Name: "x", Type: schema.TInt},
			{Name: "f", Type: schema.TFloat}, {Name: "s", Type: schema.TString}, {Name: "z", Type: schema.TInt},
		},
		PK: []string{"id"},
	}
	if _, err := cat.RegisterRelation(a, splits(51, 101, 151)); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterIndex("A", IndexInfo{Name: "ix_a_g", On: []string{"g"}}, splits(2, 5)); err != nil {
		t.Fatal(err)
	}
	vcols := []schema.Column{{Name: "k", Type: schema.TInt}, {Name: "grp", Type: schema.TInt}, {Name: "val", Type: schema.TFloat}}
	if _, err := cat.RegisterView("V", vcols, []string{"k"}, []string{"A"}, splits(21, 41)); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cat)
	ai, _ := cat.Table("A")
	vi, _ := cat.Table("V")
	for id := int64(1); id <= 200; id++ {
		if id != 77 {
			put(t, e, ai, foldRow(id), loadTS)
		}
	}
	for k := int64(1); k <= 60; k++ {
		put(t, e, vi, schema.Row{"k": k, "grp": k % 4, "val": float64(k) * 0.5}, loadTS)
	}
	return e
}

// foldRow is row id of A as foldDB loads it.
func foldRow(id int64) schema.Row {
	row := schema.Row{"id": id, "g": id % 7, "x": id * 3, "f": float64(id) * 0.25, "s": fmt.Sprintf("s%03d", id*37%101), "z": id}
	for col, null := range map[string]bool{"g": id%13 == 0, "x": id%5 == 0, "f": id%4 == 0, "s": id%6 == 0, "z": id%7 == 3} {
		if null {
			delete(row, col)
		}
	}
	return row
}

func put(t *testing.T, e *Engine, info *TableInfo, row schema.Row, ts int64) {
	t.Helper()
	if err := e.PutRow(sim.NewCtx(), info, row, WriteOpts{TS: ts}); err != nil {
		t.Fatal(err)
	}
}

// foldCase is one aggregate of the parity tests.
type foldCase struct {
	name, sql string
	params    []schema.Value
	scans     bool // reads a range, not one row: a fold can run where the rows live
}

var foldCases = []foldCase{
	{"ungrouped", `SELECT COUNT(*) AS n, COUNT(x) AS cx, SUM(x) AS sx, SUM(f) AS sf, AVG(f) AS af, MIN(s) AS lo, MAX(s) AS hi FROM A`, nil, true},
	{"grouped", `SELECT g, COUNT(*) AS n, COUNT(z) AS cz, SUM(z) AS sz, AVG(x) AS ax, MIN(s) AS lo, MAX(f) AS hf, s FROM A GROUP BY g`, nil, true},
	{"key-bounded", `SELECT g, COUNT(*) AS n, SUM(x) AS sx, SUM(f) AS sf, MIN(s) AS lo FROM A WHERE id >= ? AND id < ? GROUP BY g`,
		[]schema.Value{int64(40), int64(160)}, true},
	{"key-bounded-tail", `SELECT COUNT(*) AS n, SUM(x) AS sx, MAX(s) AS hi FROM A WHERE id >= ? AND id < ?`,
		[]schema.Value{int64(160), int64(201)}, true},
	{"filtered", `SELECT g, COUNT(*) AS n, SUM(f) AS sf, MAX(s) AS hi FROM A WHERE x > ? GROUP BY g`, []schema.Value{int64(300)}, true},
	{"by-index", `SELECT g, COUNT(*) AS n, SUM(f) AS sf, AVG(x) AS ax FROM A WHERE g >= ? AND g < ? GROUP BY g`,
		[]schema.Value{int64(1), int64(4)}, true},
	{"by-string", `SELECT s, COUNT(*) AS n, SUM(x) AS sx FROM A WHERE id < ? GROUP BY s`, []schema.Value{int64(120)}, true},
	{"ordered-limit", `SELECT g, SUM(x) AS sx FROM A GROUP BY g ORDER BY sx DESC LIMIT 3`, nil, true},
	{"empty-ungrouped", `SELECT COUNT(*) AS n, SUM(f) AS sf, MIN(s) AS lo FROM A WHERE id >= ?`, []schema.Value{int64(1000)}, false},
	{"empty-grouped", `SELECT g, COUNT(*) AS n FROM A WHERE id >= ? GROUP BY g`, []schema.Value{int64(1000)}, false},
	{"one-row", `SELECT COUNT(*) AS n, MAX(s) AS hi FROM A WHERE id = ?`, []schema.Value{int64(60)}, false},
}

// foldResult is what a statement returned, still encoded, and what it cost.
type foldResult struct {
	cols []string
	rows [][]string
	st   sim.Stats
}

// runFold runs sql with the aggregation where the plan puts it (fold) or,
// fold false, on the client over the rows — the one aggregation in its other
// place.
func runFold(t *testing.T, e *Engine, sql string, params []schema.Value, opts QueryOpts, fold bool) (foldResult, error) {
	t.Helper()
	plan, err := e.Compile(sqlparser.MustParse(sql).(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.fold {
		t.Fatalf("%s: a single-table aggregate that does not fold", sql)
	}
	plan.fold = fold
	ctx := sim.NewCtx()
	cur, err := plan.Open(ctx, params, opts)
	if err != nil {
		return foldResult{}, err
	}
	defer cur.Close(ctx)
	res := foldResult{cols: cur.Columns()}
	for cur.Next(ctx) {
		row := make([]string, len(res.cols))
		for i := range row {
			row[i] = string(cur.RawValue(i))
		}
		res.rows = append(res.rows, row)
	}
	res.st = ctx.Snapshot()
	return res, nil
}

// partialCount counts the partial rows its scans stream.
type partialCount struct {
	hbase.Reader
	n int
}

func (c *partialCount) OpenScan(ctx *sim.Ctx, tbl string, spec hbase.ScanSpec) (hbase.RowStream, error) {
	sc, err := c.Reader.OpenScan(ctx, tbl, spec)
	return &partialCounter{RowStream: sc, c: c}, err
}

type partialCounter struct {
	hbase.RowStream
	c *partialCount
}

func (s *partialCounter) Next(ctx *sim.Ctx) (hbase.RowResult, bool) {
	r, ok := s.RowStream.Next(ctx)
	if ok && isPartial(r) {
		s.c.n++
	}
	return r, ok
}

// checkFoldParity runs every case folded and on the client under opts, and
// wants the same columns, rows, row order and value bytes from both. regionSide
// says, per case, whether the reader folds where the rows live: then the
// regions ship partial rows and the rows examined are no more than the client
// fold's; otherwise no partial row reaches the client. It returns the results.
func checkFoldParity(t *testing.T, e *Engine, opts QueryOpts, regionSide func(foldCase) bool) map[string]foldResult {
	t.Helper()
	out := map[string]foldResult{}
	for _, c := range foldCases {
		count := &partialCount{Reader: e.Client()}
		if opts.Reader != nil {
			count.Reader = opts.Reader
		}
		counted := opts
		counted.Reader = count
		got, err := runFold(t, e, c.sql, c.params, counted, true)
		if err != nil {
			t.Fatalf("%s folded: %v", c.name, err)
		}
		want, err := runFold(t, e, c.sql, c.params, opts, false)
		if err != nil {
			t.Fatalf("%s on the client: %v", c.name, err)
		}
		if !slices.Equal(got.cols, want.cols) || !slices.EqualFunc(got.rows, want.rows, slices.Equal) {
			t.Fatalf("%s: folded %q\n%q\non the client %q\n%q", c.name, got.cols, got.rows, want.cols, want.rows)
		}
		if regionSide(c) {
			if count.n == 0 || got.st.RowsScanned > want.st.RowsScanned || got.st.RowsReturned > want.st.RowsReturned {
				t.Fatalf("%s: %d partial rows, charged %+v against the client fold's %+v; want the regions to fold", c.name, count.n, got.st, want.st)
			}
		} else if count.n != 0 {
			t.Fatalf("%s: %d partial rows reached the client, want the rows", c.name, count.n)
		}
		out[c.name] = got
	}
	return out
}

func scans(c foldCase) bool { return c.scans }

// bothPools runs fn over a foldDB with and without scan workers.
func bothPools(t *testing.T, fn func(t *testing.T, e *Engine)) {
	for _, workers := range []bool{false, true} {
		t.Run(fmt.Sprintf("workers=%v", workers), func(t *testing.T) { fn(t, foldDB(t, workers)) })
	}
}

// TestFoldParityClient: through the store client every region folds its
// rows. The results are those of the client fold — and what SQL says they
// are: 199 rows, and no row over an empty range but the one of an ungrouped
// aggregate.
func TestFoldParityClient(t *testing.T) {
	bothPools(t, func(t *testing.T, e *Engine) {
		res := checkFoldParity(t, e, QueryOpts{}, scans)
		if n := res["ungrouped"].rows[0][0]; n != string(appendIntCell(nil, 199)) {
			t.Fatalf("COUNT(*) = %q, want 199", n)
		}
		if len(res["empty-ungrouped"].rows) != 1 || len(res["empty-grouped"].rows) != 0 {
			t.Fatalf("empty range: %q ungrouped, %q grouped; want one row and none", res["empty-ungrouped"].rows, res["empty-grouped"].rows)
		}
		if st := res["ungrouped"].st; st.RPCs != 4 || st.RowsScanned != 199 {
			t.Fatalf("full fold charged %+v, want one RPC per region over 199 rows", st)
		}
	})
}

// TestFoldParityView: a transaction's view folds where the rows live only
// while no write of its own is pending in the scan's range — a region would
// fold the store image of a pending row. With a pending insert, update and
// delete in range the view streams the merged rows and the client folds them.
func TestFoldParityView(t *testing.T) {
	bothPools(t, func(t *testing.T, e *Engine) {
		before := checkFoldParity(t, e, QueryOpts{}, scans)
		m := e.Client().NewBufferedMutator(0)
		for _, w := range []struct {
			sql    string
			params []schema.Value
		}{
			{`INSERT INTO A (id, g, x, f, s) VALUES (?, ?, ?, ?, ?)`, []schema.Value{int64(77), int64(3), int64(5000), 0.5, "pending"}},
			{`UPDATE A SET x = ?, s = ? WHERE id = ?`, []schema.Value{int64(9000), "zzz", int64(60)}},
			{`DELETE FROM A WHERE id = ?`, []schema.Value{int64(120)}},
		} {
			if err := e.Exec(sim.NewCtx(), sqlparser.MustParse(w.sql), w.params, WriteOpts{Mutator: m}); err != nil {
				t.Fatalf("%s: %v", w.sql, err)
			}
		}
		// Pending rows 60, 77 and 120 — and their index entries, of groups 4,
		// 3 and 1 — lie in every range but the tail's and the empty one's.
		res := checkFoldParity(t, e, QueryOpts{Reader: m.View()}, func(c foldCase) bool {
			return c.name == "key-bounded-tail"
		})
		if n := res["ungrouped"].rows[0][0]; n != string(appendIntCell(nil, 199)) {
			t.Fatalf("COUNT(*) = %q, want 199 (one inserted, one deleted)", n)
		}
		if slices.EqualFunc(res["grouped"].rows, before["grouped"].rows, slices.Equal) {
			t.Fatal("the view's grouped result is the store's: the pending writes were not folded")
		}
		m.Discard()
	})
}

// TestFoldParityMVCC: a snapshot read folds what the snapshot sees on the
// regions — neither a writer that stamped after it nor an invalidated one.
func TestFoldParityMVCC(t *testing.T) {
	bothPools(t, func(t *testing.T, e *Engine) {
		opts := QueryOpts{Read: hbase.ReadOpts{ReadTS: snapTS, Excluded: func(ts int64) bool { return ts == 20 }}}
		before := checkFoldParity(t, e, opts, scans)
		ai, _ := e.Catalog().Table("A")
		for _, ts := range []int64{20, 40} { // invalid, then after the snapshot
			put(t, e, ai, schema.Row{"id": int64(77), "g": int64(1), "x": int64(1), "s": "new"}, ts)
			put(t, e, ai, schema.Row{"id": int64(60), "g": int64(2), "x": int64(7777), "s": "upd"}, ts)
			if err := e.Client().DeleteAt(sim.NewCtx(), "A", schema.EncodeKey(int64(120)), ts); err != nil {
				t.Fatal(err)
			}
		}
		after := checkFoldParity(t, e, opts, scans)
		for _, c := range foldCases {
			if !slices.EqualFunc(after[c.name].rows, before[c.name].rows, slices.Equal) {
				t.Fatalf("%s: the snapshot saw a hidden writer: %q, before it %q", c.name, after[c.name].rows, before[c.name].rows)
			}
		}
	})
}

// TestFoldParityOCC: an OCC transaction's tracking reader records the range a
// folded scan covers, so a concurrent insert into it fails validation and one
// outside it does not.
func TestFoldParityOCC(t *testing.T) {
	bothPools(t, func(t *testing.T, e *Engine) {
		clock := int64(1000) // above loadTS: every snapshot sees the loaded rows
		v := occ.NewValidatorWithOracle(nil, func() int64 { clock++; return clock })
		const insert = `INSERT INTO A (id, g, x) VALUES (?, ?, ?)`
		commit := func(tx *occ.Tx, m *hbase.BufferedMutator) error {
			ctx := sim.NewCtx()
			if err := v.Validate(ctx, tx, m.StampPending); err != nil {
				m.Discard()
				return err
			}
			if err := m.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			v.Finalize(ctx, tx)
			return nil
		}
		write := func(id int64) {
			tx, m := v.Begin(sim.NewCtx()), e.Client().NewBufferedMutator(0)
			err := e.Exec(sim.NewCtx(), sqlparser.MustParse(insert), []schema.Value{id, int64(1), int64(1)},
				WriteOpts{Mutator: m, OnWrite: tx.RecordWrite})
			if err != nil {
				t.Fatal(err)
			}
			if err := commit(tx, m); err != nil {
				t.Fatalf("writer of %d: %v", id, err)
			}
		}
		for _, w := range []struct {
			id       int64
			conflict bool
		}{{300, false}, {77, true}} {
			tx, m := v.Begin(sim.NewCtx()), e.Client().NewBufferedMutator(0)
			bounded := foldCases[2] // key-bounded: ids [40, 160)
			rd := tx.Track(m.View())
			got, err := runFold(t, e, bounded.sql, bounded.params, QueryOpts{Reader: rd, Read: tx.ReadOpts()}, true)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runFold(t, e, bounded.sql, bounded.params, QueryOpts{Read: tx.ReadOpts()}, false)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got.rows, want.rows, slices.Equal) {
				t.Fatalf("folded %q, on the client %q", got.rows, want.rows)
			}
			if tx.ReadRanges() != 1 {
				t.Fatalf("read set holds %d ranges, want the folded scan's", tx.ReadRanges())
			}
			write(w.id)
			if err := commit(tx, m); errors.Is(err, occ.ErrConflict) != w.conflict {
				t.Fatalf("reader after a commit of row %d: %v, want conflict %v", w.id, err, w.conflict)
			}
		}
	})
}

// unmarkingScan clears the dirty marker of view row k just before the at-th
// scan of V it serves.
type unmarkingScan struct {
	hbase.Reader
	t         *testing.T
	e         *Engine
	k         int64
	at, scans int
}

func (u *unmarkingScan) OpenScan(ctx *sim.Ctx, tbl string, spec hbase.ScanSpec) (hbase.RowStream, error) {
	if tbl == "V" {
		if u.scans++; u.scans == u.at {
			setDirty(u.t, u.e, u.k, "0", unmarkTS)
		}
	}
	return u.Reader.OpenScan(ctx, tbl, spec)
}

// TestFoldDirtyViewRow: a region that meets a dirty view row while it folds
// answers with that row, which sends the scan into the restart budget: the
// aggregate fails with ErrDirtyRead while the row stays marked and returns
// the clean result once it is cleared.
func TestFoldDirtyViewRow(t *testing.T) {
	bothPools(t, func(t *testing.T, e *Engine) {
		const sql = `SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM V GROUP BY grp`
		opts := QueryOpts{DirtyCheck: true}
		clean, err := runFold(t, e, sql, nil, opts, true)
		if err != nil {
			t.Fatal(err)
		}
		if ref, _ := runFold(t, e, sql, nil, opts, false); !slices.EqualFunc(clean.rows, ref.rows, slices.Equal) || len(clean.rows) != 4 {
			t.Fatalf("folded %q, on the client %q", clean.rows, ref.rows)
		}
		setDirty(t, e, 30, "1", markTS)
		for _, fold := range []bool{true, false} {
			if _, err := runFold(t, e, sql, nil, opts, fold); !errors.Is(err, ErrDirtyRead) {
				t.Fatalf("fold %v over a marked row: %v, want ErrDirtyRead", fold, err)
			}
		}
		opts.Reader = &unmarkingScan{Reader: e.Client(), t: t, e: e, k: 30, at: 2}
		got, err := runFold(t, e, sql, nil, opts, true)
		if err != nil || !slices.EqualFunc(got.rows, clean.rows, slices.Equal) || got.st.Restarts != 1 {
			t.Fatalf("row cleared on the second scan: %q after %d restarts, err %v; want %q after one", got.rows, got.st.Restarts, err, clean.rows)
		}
	})
}
