//go:build !race

package mvcc

import (
	"testing"

	"synergy/internal/sim"
)

// TestTxnAllocs pins what a transaction's bookkeeping allocates once the
// server's storage has grown: nothing. A read-only Begin, ReadOpts, a
// visibility probe and Commit took 5 allocations when every Begin made a Tx,
// three maps and a filter closure; a writing transaction with one checkpoint
// and three keys took 9, its write set a map of concatenated strings and its
// commit record that map. Now the Tx comes off the free list, its write set
// goes into its arena, and the commit record copies the arena into a pruned
// record's storage. (Not built under -race, whose instrumentation allocates.)
func TestTxnAllocs(t *testing.T) {
	srv := NewServer(nil)
	ctx := sim.NewCtx()
	keys := []string{"1", "2", "3"}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"read-only", func() {
			tx := srv.Begin(ctx)
			if tx.ReadOpts().Excluded(tx.ID() - 1) {
				t.Fatal("a committed stamp hidden")
			}
			if err := srv.Commit(ctx, tx); err != nil {
				t.Fatal(err)
			}
		}},
		{"write", func() {
			tx := srv.Begin(ctx)
			tx.OnWrite()("Item", keys[0])
			tx.Checkpoint(ctx)
			for _, k := range keys[1:] {
				tx.OnWrite()("Item", k)
			}
			if err := srv.Commit(ctx, tx); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.run); n != 0 {
			t.Errorf("%s: %v allocations per transaction, want 0", tc.name, n)
		}
	}
}
