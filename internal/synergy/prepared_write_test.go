package synergy_test

import (
	"sync"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// TestPreparedWriteSharedBySessions: a PreparedWrite is immutable, so sessions
// may run one at once. W9, which maintains the item's four views, and W6, a
// fresh cart, are prepared once, on one session, and run by four sessions on
// four goroutines, each over items and carts of its own, inside transactions
// and in autocommit. Each item must end with the stock its session wrote
// last, in the base table and in every view row that carries it, and every
// cart must be there. The race step runs it under -race.
func TestPreparedWriteSharedBySessions(t *testing.T) {
	const sessions, writes = 4, 25
	data := tpcw.Generate(40, 7)
	for _, cfg := range []synergy.Config{{}, {Concurrency: synergy.MVCC, MaxVersions: 16}} {
		sys := tpcwSystem(t, data, cfg)
		prep := sys.NewSession()
		w9 := prep.PrepareWrite(sqlparser.MustParse("UPDATE Item SET i_stock = ? WHERE i_id = ?"))
		w6 := prep.PrepareWrite(sqlparser.MustParse("INSERT INTO Shopping_cart (sc_id, sc_time) VALUES (?, ?)"))
		item := func(s, i int) int64 { return int64(1 + (s+sessions*i)%data.Card.Items) }
		var wg sync.WaitGroup
		for s := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess := sys.NewSession()
				for i := range writes {
					ctx := sim.NewCtx()
					txn := i%2 == 0
					if txn {
						if err := sess.Begin(ctx); err != nil {
							t.Error(err)
							return
						}
					}
					cart := int64(1_000_000 + s*writes + i)
					if err := sess.ExecPrepared(ctx, w9, []schema.Arg{schema.IntArg(int64(100*s + i)), schema.IntArg(item(s, i%3))}); err != nil {
						t.Error(err)
						return
					}
					if err := sess.ExecPrepared(ctx, w6, []schema.Arg{schema.IntArg(cart), schema.IntArg(int64(19000 + i))}); err != nil {
						t.Error(err)
						return
					}
					if txn {
						if err := sess.Commit(ctx); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		q := sys.NewSession()
		for s := range sessions {
			for i := writes - 3; i < writes; i++ {
				want := int64(100*s + i)
				for _, sql := range []string{
					"SELECT i_stock FROM Item WHERE i_id = ?",
					"SELECT * FROM Item i, Shopping_cart_line scl WHERE scl.scl_i_id = i.i_id AND i.i_id = ?",
				} {
					rs, err := q.Query(sim.NewCtx(), parseSelect(t, sql), []schema.Value{item(s, i%3)})
					if err != nil {
						t.Fatal(err)
					}
					for _, row := range rs.Rows {
						if got := row["i_stock"]; got != want {
							t.Fatalf("%v: item %d: %s gives i_stock %v, session %d wrote %d last", cfg.Concurrency, item(s, i%3), sql, got, s, want)
						}
					}
				}
			}
			for i := range writes {
				rs, err := q.Query(sim.NewCtx(), parseSelect(t, "SELECT sc_id FROM Shopping_cart WHERE sc_id = ?"), []schema.Value{int64(1_000_000 + s*writes + i)})
				if err != nil || len(rs.Rows) != 1 {
					t.Fatalf("%v: cart %d: %v rows (err %v)", cfg.Concurrency, 1_000_000+s*writes+i, rs, err)
				}
			}
		}
	}
}
