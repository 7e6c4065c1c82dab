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
// §VIII-B phases run in one pass for the statement. The bounds are the counts
// of the per-view passes it replaced (296 hierarchical, 199 under MVCC); the
// one pass takes 277 and 188. (Not built under -race, which makes sync.Pool
// drop pooled buffers at random.)
func TestMaintenanceWriteAllocs(t *testing.T) {
	up := sqlparser.MustParse("UPDATE Item SET i_stock = ? WHERE i_id = ?")
	for _, tc := range []struct {
		name  string
		cfg   synergy.Config
		bound float64
	}{
		{"hierarchical", synergy.Config{}, 296},
		{"mvcc", synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16}, 199},
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
