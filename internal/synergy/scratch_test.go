package synergy

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// TestTxScratchHoldsNothing runs write units of every kind — inserts (a new
// root row's deferred lock entry among them), multi-row updates whose view
// index entries move, deletes, a multi-statement transaction that updates and
// deletes rows it inserted, rolled-back transactions (one aborted after its
// update's marks were flushed), an OCC transaction retried after an injected
// conflict — under every mechanism, eagerly shipped too, and with the views
// maintained by the changefeed. After each unit it walks every scratch on the
// System's free list: a reset scratch holds no key, no value bytes, no pointer
// but its own mutator's, nothing pending in that mutator, and no list above
// what a reset keeps. A finished transaction holds no scratch, and no option
// lending one.
func TestTxScratchHoldsNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"hierarchical", Config{}},
		{"hierarchical/sequential", Config{SequentialWrites: true}},
		{"mvcc", Config{Concurrency: MVCC, MaxVersions: 16}},
		{"mvcc/sequential", Config{Concurrency: MVCC, MaxVersions: 16, SequentialWrites: true}},
		{"occ", Config{Concurrency: OCC, MaxVersions: 16}},
		{"hierarchical/async", Config{Maintenance: AsyncMaintenance}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := fanoutSystem(t, 4, 6, tc.cfg)
			var txs []*Tx
			sys.postBegin = func(tx *Tx) { txs = append(txs, tx) }
			check := func(unit string) {
				t.Helper()
				if sys.Feed != nil {
					if err := sys.Feed.Drain(); err != nil {
						t.Fatal(err)
					}
				}
				for _, tx := range txs {
					checkFinished(t, unit, tx)
				}
				txs = txs[:0]
				spare := spareScratches(sys)
				if len(spare) == 0 {
					t.Fatalf("%s: no scratch went back to the free list", unit)
				}
				for i, s := range spare {
					checkScratch(t, fmt.Sprintf("%s: spare[%d]", unit, i), s)
				}
			}

			writeWorkload(t, sys)
			check("autocommit writes")
			stmts, params := txnWorkload(4)
			if err := sys.ExecTxn(sim.NewCtx(), stmts, params); err != nil {
				t.Fatal(err)
			}
			check("multi-statement transaction")

			// Rolled back after an update's phases ran and its writes
			// buffered, then after a failed statement.
			sess := sys.NewSession()
			ctx := sim.NewCtx()
			if err := sess.Begin(ctx); err != nil {
				t.Fatal(err)
			}
			tx := sess.tx
			for i := range stmts[:3] {
				if err := sess.Exec(ctx, stmts[i], params[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := sess.Exec(ctx, sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?"), []schema.Value{"rolled-back", int64(1)}); err != nil {
				t.Fatal(err)
			}
			if err := sess.Rollback(ctx); err != nil {
				t.Fatal(err)
			}
			checkFinished(t, "rollback", tx)
			check("rollback")
			if err := sess.Begin(ctx); err != nil {
				t.Fatal(err)
			}
			tx = sess.tx
			if err := sess.Exec(ctx, stmts[0], params[0]); err != nil {
				t.Fatal(err)
			}
			if err := sess.Exec(ctx, sqlparser.MustParse("UPDATE Leaf00 SET NoSuchColumn = ? WHERE Leaf00ID = ?"), []schema.Value{"x", int64(1)}); err == nil {
				t.Fatal("a statement on an unknown column ran")
			}
			checkFinished(t, "failed statement", tx)
			check("failed statement")

			// A marked update whose statement fails after its marks were
			// flushed: the abort un-marks through the scratch's mutator.
			if sys.cc.locks() && sys.Feed == nil {
				sys.SetAfterPhase(func(phase int) error {
					if phase == phaseMarked {
						return fmt.Errorf("injected failure after the marks")
					}
					return nil
				})
				if err := sys.Exec(sim.NewCtx(), sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?"), []schema.Value{"never", int64(2)}); err == nil {
					t.Fatal("the injected phase failure did not fail the statement")
				}
				sys.SetAfterPhase(nil)
				check("abort after the marks")
			}

			if tc.cfg.Concurrency == OCC {
				up := sqlparser.MustParse("UPDATE Root SET RVal = ? WHERE RID = ?")
				injected := false
				sys.postBegin = func(tx *Tx) {
					txs = append(txs, tx)
					if injected {
						return
					}
					injected = true
					if err := sys.ExecuteTxn(sim.NewCtx(), []sqlparser.Statement{up}, [][]schema.Value{{schema.Value("interloper"), int64(1)}}); err != nil {
						t.Errorf("injected write: %v", err)
					}
				}
				ctx := sim.NewCtx()
				if err := sys.ExecTxn(ctx, []sqlparser.Statement{up}, [][]schema.Value{{schema.Value("final"), int64(1)}}); err != nil {
					t.Fatal(err)
				}
				if got := ctx.Snapshot().OCCRetries; got != 1 {
					t.Fatalf("OCC retries = %d, want 1", got)
				}
				check("OCC retry")
			}
		})
	}
}

// checkFinished reports what a finished transaction still holds of its
// scratch.
func checkFinished(t *testing.T, unit string, tx *Tx) {
	t.Helper()
	if !tx.done {
		t.Errorf("%s: transaction not finished", unit)
	}
	if tx.s != nil || tx.opts.Mutator != nil || tx.opts.Scratch != nil || tx.opts.Reader != nil || tx.opts.Notes != nil {
		t.Errorf("%s: a finished transaction holds its scratch or an option lending it", unit)
	}
	if err := tx.Commit(sim.NewCtx()); err == nil || !strings.Contains(err.Error(), "already finished") {
		t.Errorf("%s: commit of a finished transaction: %v", unit, err)
	}
}

// maxKeptBytes is what a reset keeps of one list, by the path of the field
// that holds it: the bounds of phoenix.WriteScratch's cell slab (4,096
// cells), hbase.ReadBuf's arrays and the scratch's own lists.
func maxKeptBytes(path string) int {
	switch {
	case strings.Contains(path, ".write.cells."):
		return 4 << 10 * int(unsafe.Sizeof(hbase.Cell{}))
	case strings.Contains(path, ".write.read."):
		return 128 << 10
	}
	return maxScratchBytes
}

// spareScratches returns the scratches on sys's free list, put first to put
// last, and leaves them on it in that order.
func spareScratches(sys *System) []*txScratch {
	var spare []*txScratch
	for s := sys.spare.Get(); s != nil; s = sys.spare.Get() {
		spare = append(spare, s)
	}
	slices.Reverse(spare)
	for _, s := range spare {
		sys.spare.Put(s)
	}
	return spare
}

// checkScratch reports what a reset scratch still holds (see
// TestTxScratchHoldsNothing).
func checkScratch(t *testing.T, what string, s *txScratch) {
	t.Helper()
	if s.mutator.Pending() != 0 || s.mutator.FlushTS() != 0 {
		t.Errorf("%s: mutator has %d pending, flush stamp %d", what, s.mutator.Pending(), s.mutator.FlushTS())
	}
	own := reflect.ValueOf(s.mutator).Pointer()
	clientType := reflect.TypeOf((*hbase.Client)(nil))
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.String:
			if v.Len() > 0 {
				t.Errorf("%s: holds %s = %q", what, path, v.String())
			}
		case reflect.Func, reflect.Interface, reflect.Map, reflect.Chan:
			if !v.IsNil() {
				t.Errorf("%s: holds %s (%s)", what, path, v.Type())
			}
		case reflect.Pointer:
			switch {
			case v.IsNil():
			case v.Type() == clientType:
				// The mutator's client is the System's.
			case v.Pointer() == own:
				if path == "scratch.mutator" {
					walk(v.Elem(), path)
				}
			default:
				t.Errorf("%s: holds %s (%s)", what, path, v.Type())
			}
		case reflect.Slice:
			if v.IsNil() {
				return
			}
			if size := v.Cap() * int(v.Type().Elem().Size()); size > maxKeptBytes(path) {
				t.Errorf("%s: keeps %s of %d bytes, above %d", what, path, size, maxKeptBytes(path))
			}
			if v.Type().Elem().Kind() == reflect.Uint8 {
				t.Errorf("%s: holds bytes at %s", what, path)
				return
			}
			all := v.Slice(0, v.Cap())
			for i := range all.Len() {
				walk(all.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Array:
			for i := range v.Len() {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		}
	}
	walk(reflect.ValueOf(s).Elem(), "scratch")
}
