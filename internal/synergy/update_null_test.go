package synergy_test

import (
	"bytes"
	"testing"

	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// TestUpdateSetNull pins UPDATE … SET col = NULL: the base row, the base
// index, the view and the view index all lose the value. The base put used
// to skip a NULL assignment while the index entries moved to the NULL key, so
// the row kept reading its old value by primary key and vanished by index.
func TestUpdateSetNull(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  synergy.Config
	}{
		{"hierarchical", synergy.Config{Concurrency: synergy.Hierarchical}},
		{"mvcc", synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sys := populatedTPCW(t, mode.cfg, tpcw.Generate(50, 1).Tables)
			ctx, sess := sim.NewCtx(), sys.NewSession()
			query := func(sql string, params ...schema.Value) []schema.Row {
				t.Helper()
				rs, err := sess.Query(ctx, sqlparser.MustParse(sql).(*sqlparser.SelectStmt), params)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				return rs.Rows
			}
			exec := func(sql string, params ...schema.Value) {
				t.Helper()
				if err := sess.Exec(ctx, sqlparser.MustParse(sql), params); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			const byID = `SELECT c_id, c_uname, c_phone FROM Customer WHERE c_id = ?`
			const byUname = `SELECT c_id FROM Customer WHERE c_uname = ?`
			// Q2 without its LIMIT: V_Customer__Orders through its c_uname index.
			const byView = `SELECT c.c_uname, c.c_phone, o.o_id FROM Customer c, Orders o WHERE c.c_id = o.o_c_id AND c.c_uname = ?`
			uname := tpcw.Uname(3)
			orders := len(query(byView, uname))
			if before := query(byID, int64(3)); len(before) != 1 || before[0]["c_phone"] == nil || before[0]["c_uname"] != uname || orders == 0 {
				t.Fatalf("fixture: customer 3 reads %v with %d orders", before, orders)
			}

			// A plain column.
			exec(`UPDATE Customer SET c_phone = ? WHERE c_id = ?`, nil, int64(3))
			if got := query(byID, int64(3)); len(got) != 1 || got[0]["c_phone"] != nil || got[0]["c_uname"] != uname {
				t.Errorf("base row after SET c_phone = NULL: %v", got)
			}
			if got := query(byUname, uname); len(got) != 1 {
				t.Errorf("index read after SET c_phone = NULL: %v", got)
			}
			for _, row := range query(byView, uname) {
				if row["c_phone"] != nil || row["c_uname"] != uname {
					t.Errorf("view row after SET c_phone = NULL: c_phone=%v c_uname=%v", row["c_phone"], row["c_uname"])
				}
			}

			// An indexed column, inside a transaction that reads it back.
			if err := sess.Begin(ctx); err != nil {
				t.Fatal(err)
			}
			exec(`UPDATE Customer SET c_uname = ? WHERE c_id = ?`, nil, int64(3))
			if got := query(byID, int64(3)); len(got) != 1 || got[0]["c_uname"] != nil {
				t.Errorf("base row inside the transaction: %v", got)
			}
			if err := sess.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if got := query(byID, int64(3)); len(got) != 1 || got[0]["c_uname"] != nil || got[0]["c_phone"] != nil {
				t.Errorf("base row after SET c_uname = NULL: %v", got)
			}
			if got := query(byUname, uname); len(got) != 0 {
				t.Errorf("index read by the old name after SET c_uname = NULL: %v", got)
			}
			if got := query(byView, uname); len(got) != 0 {
				t.Errorf("view read by the old name after SET c_uname = NULL: %d rows", len(got))
			}
			// The view rows are still there, without the two values.
			viewRows := 0
			sc, err := sys.Store.NewClient().Scan(ctx, "V_Customer__Orders", hbase.ScanSpec{})
			if err != nil {
				t.Fatal(err)
			}
			for r, ok := sc.Next(ctx); ok; r, ok = sc.Next(ctx) {
				if !bytes.Equal(r.Get("c_id"), phoenix.EncodeValue(int64(3))) {
					continue
				}
				viewRows++
				if r.Get("c_uname") != nil || r.Get("c_phone") != nil || r.Get("c_fname") == nil {
					t.Errorf("view row %q keeps c_uname=%q c_phone=%q (c_fname=%q)", r.Key, r.Get("c_uname"), r.Get("c_phone"), r.Get("c_fname"))
				}
			}
			if viewRows != orders {
				t.Errorf("%d view rows for customer 3, want its %d orders", viewRows, orders)
			}
		})
	}
}
