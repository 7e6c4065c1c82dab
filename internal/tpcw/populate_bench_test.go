package tpcw

import (
	"testing"

	"synergy/internal/synergy"
)

// BenchmarkPopulate measures §IX-D1's population procedure on the Synergy
// deployment at NUM_CUST=100: deploy, bulk-load every base table (and base
// index, and lock table), materialize every view and view-index, major
// compact. It is what every figure, example and benchmark run pays before
// its first statement. Generation is outside the timer; rows/s counts stored
// rows over all tables.
func BenchmarkPopulate(b *testing.B) {
	data := Generate(100, 1)
	tables := data.TableNames()
	b.ReportAllocs()
	b.ResetTimer()
	stored := 0
	for i := 0; i < b.N; i++ {
		sys, err := synergy.New(Schema(), Roots(), WorkloadSQL(), synergy.Config{BaseIndexes: BaseIndexes()})
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if err := sys.LoadBase(t, data.Tables[t]); err != nil {
				b.Fatal(err)
			}
		}
		if err := sys.BuildViews(); err != nil {
			b.Fatal(err)
		}
		for _, t := range sys.Store.Tables() {
			stored += sys.Store.RowEstimate(t)
		}
	}
	b.ReportMetric(float64(stored)/b.Elapsed().Seconds(), "rows/s")
}
