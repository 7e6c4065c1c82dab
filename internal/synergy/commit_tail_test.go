package synergy

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// walOf reads slave s's WAL as the file holds it and parses its records.
func walOf(t *testing.T, sys *System, s *Slave) (string, []walRecord) {
	t.Helper()
	data, err := sys.FS.ReadAll(sim.NewCtx(), s.walPath)
	if err != nil {
		t.Fatal(err)
	}
	var recs []walRecord
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if line == "" {
			continue
		}
		var rec walRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return string(data), recs
}

var renameDept = sqlparser.MustParse("UPDATE Department SET DName = ? WHERE DNo = ?")

// TestSlaveLogsLandedCommitAsCommitted: a transaction a slave runs whose
// commit flush lands, but one of whose locks was freed from under it so the
// release fails, is logged committed: its writes are durable. The commit
// surfaces the lock, the WAL holds the statement and a commit record and no
// abort record, and recovery replays nothing.
func TestSlaveLogsLandedCommitAsCommitted(t *testing.T) {
	stolen := lockRef{"Address", schema.EncodeKey(int64(3))} // not the update's root
	for _, cfg := range []Config{{}, {SequentialWrites: true}} {
		t.Run(fmt.Sprintf("sequential=%v", cfg.SequentialWrites), func(t *testing.T) {
			sys := companySystemWith(t, cfg)
			s := sys.Txn.Slaves()[0]
			sys.postBegin = func(tx *Tx) {
				if err := tx.acquireLock(sim.NewCtx(), stolen.root, stolen.key); err != nil {
					t.Error(err)
				}
				if err := sys.Locks.Release(sim.NewCtx(), stolen.root, stolen.key); err != nil {
					t.Error(err)
				}
			}
			err := s.ExecuteTxn(sim.NewCtx(), []sqlparser.Statement{renameDept}, [][]schema.Value{{"landed", int64(1)}})
			sys.postBegin = nil
			want := fmt.Sprintf("release of %s/%q: lock not held", stolen.root, stolen.key)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("ExecuteTxn returned %v, want an error naming %s", err, want)
			}
			rs, err := sys.Query(sim.NewCtx(), sqlparser.MustParse("SELECT DName FROM Department WHERE DNo = ?").(*sqlparser.SelectStmt), []schema.Value{int64(1)})
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) != 1 || rs.Rows[0]["DName"] != "landed" {
				t.Fatalf("department 1 reads %v, want the landed write", rs.Rows)
			}
			_, recs := walOf(t, sys, s)
			if len(recs) != 2 || recs[0].SQL != renameDept.String() || recs[1].TxID != recs[0].TxID || !recs[1].Commit || recs[1].Abort {
				t.Fatalf("WAL holds %+v, want the statement and its commit record", recs)
			}
			s.Kill()
			if n, err := sys.Txn.DetectAndRecover(sim.NewCtx()); err != nil || n != 1 {
				t.Fatalf("recovered %d slaves: %v", n, err)
			}
			for _, r := range sys.Txn.Slaves() {
				if _, recs := walOf(t, sys, r); len(recs) != 0 {
					t.Fatalf("%s replayed %+v, want nothing: the transaction committed", r.ID, recs)
				}
			}
		})
	}
}

// TestSlaveCommitRecordBesideRelease: a slave-run write appends its commit
// record beside its lock release, so its elapsed time is the statement
// append, the execution through the commit flush, and the longer of the
// release and the record. Its RPCs and its WAL, byte for byte, are what the
// same transaction pays and writes with the record appended after the
// release. Twin deployments measure each part: B runs the steps one after
// another, C releases the update's root lock alone.
func TestSlaveCommitRecordBesideRelease(t *testing.T) {
	root := lockRef{"Department", schema.EncodeKey(int64(1))}
	stmts := []sqlparser.Statement{renameDept}
	params := [][]schema.Value{{"beside", int64(1)}}
	for _, cm := range []struct {
		name string
		cfg  Config
	}{
		{"hierarchical", Config{}},
		{"sequential", Config{SequentialWrites: true}},
		{"occ", Config{Concurrency: OCC, MaxVersions: 16}},
	} {
		t.Run(cm.name, func(t *testing.T) {
			a := companySystemWith(t, cm.cfg)
			ctx := sim.NewCtx()
			if err := a.Txn.Slaves()[0].ExecuteTxn(ctx, stmts, params); err != nil {
				t.Fatal(err)
			}

			b := companySystemWith(t, cm.cfg)
			sb := b.Txn.Slaves()[0]
			pre, run, rec := sim.NewCtx(), sim.NewCtx(), sim.NewCtx()
			args, err := argLists(params)
			if err != nil {
				t.Fatal(err)
			}
			txid, err := sb.log(pre, b.prepareWrites(stmts), args, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.ExecuteTxn(run, stmts, params); err != nil {
				t.Fatal(err)
			}
			if err := sb.logOutcome(rec, txid, true); err != nil {
				t.Fatal(err)
			}

			var release sim.Micros // OCC holds no locks
			if b.cc.locks() {
				c := companySystemWith(t, cm.cfg)
				rctx := sim.NewCtx()
				if err := holding(t, c, []lockRef{root}).Commit(rctx); err != nil {
					t.Fatal(err)
				}
				release = rctx.Elapsed()
			}
			flushed := pre.Elapsed() + run.Elapsed() - release
			want := flushed + max(release, rec.Elapsed())
			if got := ctx.Elapsed(); got != want {
				t.Fatalf("slave-run write took %v, want %v: %v through the commit flush, then the longer of release %v and record %v",
					got, want, flushed, release, rec.Elapsed())
			}
			if release > 0 && ctx.Elapsed() >= pre.Elapsed()+run.Elapsed()+rec.Elapsed() {
				t.Fatalf("slave-run write took %v, the release and the record one after the other", ctx.Elapsed())
			}
			if got, want := ctx.Snapshot().RPCs, pre.Snapshot().RPCs+run.Snapshot().RPCs+rec.Snapshot().RPCs; got != want {
				t.Fatalf("slave-run write paid %d RPCs, want %d", got, want)
			}
			walA, recs := walOf(t, a, a.Txn.Slaves()[0])
			if walB, _ := walOf(t, b, sb); walA != walB {
				t.Fatalf("WAL reads\n%s\nwant\n%s", walA, walB)
			}
			if len(recs) != 2 || !recs[1].Commit {
				t.Fatalf("WAL holds %+v, want the statement and its commit record", recs)
			}
		})
	}
}
