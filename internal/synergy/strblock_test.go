package synergy_test

import (
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// TestKeptStringsPinNoBlock holds the write path to the string block's
// ownership rule: a string a session's statements cut from its block
// (phoenix.StringBlock) dies with its statement or transaction, and nothing
// the System keeps — a row key in a memstore, a lock's root key in the lock
// table, a key in a write set — is ever cut from one, since a kept string pins
// its whole block. Every TPC-W write and read runs through one Session, in
// autocommit and inside transactions, under hierarchical locking (root locks
// resolved up foreign-key chains, view maintenance reading parent rows) and
// MVCC; after each statement the test cuts a byte from the session's block
// and keeps a weak pointer to it, so it holds one into every block the
// statements cut from (none cuts a block's worth in one statement). Once the
// session is dropped, a collection must free every one of those blocks while
// the System stays alive.
func TestKeptStringsPinNoBlock(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  synergy.Config
	}{
		{"hierarchical", synergy.Config{}},
		{"mvcc", synergy.Config{Concurrency: synergy.MVCC, MaxVersions: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tpcw.Generate(40, 7)
			sys := tpcwSystem(t, data, tc.cfg)
			blocks := runOnOneSession(t, sys, data)
			runtime.GC()
			runtime.GC()
			pinned := 0
			for _, b := range blocks {
				if b.Value() != nil {
					pinned++
				}
			}
			if pinned > 0 {
				t.Errorf("the blocks current after %d of %d statements outlive their session: the System keeps a string cut from one", pinned, len(blocks))
			}
			runtime.KeepAlive(sys)
		})
	}
}

// runOnOneSession runs the TPC-W writes and reads through one session and
// returns a weak pointer into the session's block after each statement. It is
// a function of its own so that, once it returns, nothing on the caller's
// stack reaches the session or a probe.
func runOnOneSession(t *testing.T, sys *synergy.System, data *tpcw.Data) []weak.Pointer[byte] {
	t.Helper()
	sess := sys.NewSession()
	var blocks []weak.Pointer[byte]
	mark := func() {
		probe := sess.Strings().Cut([]byte{0})
		blocks = append(blocks, weak.Make(unsafe.StringData(probe)))
	}
	rng := sim.NewRNG(3)
	run := func(st tpcw.Stmt) {
		t.Helper()
		args := unbox(t, st.Params(data, rng.Derive(st.ID)))
		ctx := sim.NewCtx()
		if st.Kind != tpcw.KindWrite {
			p, err := sess.Prepare(parseSelect(t, st.SQL))
			if err != nil {
				t.Fatal(err)
			}
			cur, err := sess.Open(ctx, p, args)
			if err != nil {
				t.Fatalf("%s: %v", st.ID, err)
			}
			for cur.Next(ctx) {
			}
			if err := cur.Close(ctx); err != nil {
				t.Fatalf("%s: %v", st.ID, err)
			}
		} else if err := sess.ExecPrepared(ctx, sess.PrepareWrite(sqlparser.MustParse(st.SQL)), args); err != nil {
			t.Fatalf("%s: %v", st.ID, err)
		}
		mark()
	}
	stmts := append(append(tpcw.WriteStatements(), tpcw.JoinQueries()...), tpcw.PointReads()...)
	for round := range 3 {
		inTxn := round == 1
		if inTxn {
			if err := sess.Begin(sim.NewCtx()); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range stmts {
			if st.ID == "W8" && inTxn {
				continue // its random line may be one an earlier round deleted
			}
			run(st)
		}
		if inTxn {
			if err := sess.Commit(sim.NewCtx()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return blocks
}
