//go:build !race

package synergy_test

import (
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// TestMaintenanceWriteAllocs bounds what TPC-W's W9 allocates through a
// Session when the item has rows in all four of its views, whose locates and
// §VIII-B phases run in one pass for the statement. It takes 37
// allocations hierarchical and 35 under MVCC, and the bounds give each about
// 5 % headroom. What the statement builds and drops — its mutator, its lock
// and mark lists, its bound statement, the cell lists of its rows and index
// entries, the rows it reads and locates, its locates' forks — is its
// transaction's recycled scratch, and the regions compare a lock's value in
// their own scratch (93 and 77 when the unit allocated them); the MVCC
// transaction's bookkeeping allocates nothing — its
// storage is reused, its write set is one arena and the write batches keep
// their notifications in storage it lends them (114 when each Begin made a
// Tx and three maps, each row its own write-set string and each batch its own
// notification list); an index-located view's locate opens its scan in the
// transaction's scanner storage with both bounds cut from one string (100 and
// 120 when each locate allocated its Scanner and concatenated its bounds). The fan-out's writes cost nothing per mutation to ship: the
// regions stamp them by value as they apply them, and a flush groups its
// buffer by region in place (280 and 189 when the client copied every put to
// stamp it and grouped through maps). The memstore cuts the rows it writes
// from blocks, each view-index key is computed once for the mark, the update
// and the un-mark, and nothing records a write set no mechanism reads (131
// and 123 before). (Not built under -race, which makes sync.Pool drop pooled
// buffers at random.)
func TestMaintenanceWriteAllocs(t *testing.T) {
	up := sqlparser.MustParse("UPDATE Item SET i_stock = ? WHERE i_id = ?")
	for _, tc := range []struct {
		name  string
		cfg   synergy.Config
		bound float64
	}{
		{"hierarchical", synergy.Config{}, 39},
		{"mvcc", synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16}, 37},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tpcw.Generate(40, 7)
			sess := tpcwSystem(t, data, tc.cfg).NewSession()
			item := itemInEveryView(t, data)
			stock := int64(0)
			n := testing.AllocsPerRun(50, func() {
				stock++
				if err := sess.Exec(sim.NewCtx(), up, []schema.Value{stock, item}); err != nil {
					t.Fatal(err)
				}
			})
			if n > tc.bound {
				t.Errorf("%v allocations per W9, want at most %v", n, tc.bound)
			}
			t.Logf("%v allocations per W9", n)
		})
	}
}
