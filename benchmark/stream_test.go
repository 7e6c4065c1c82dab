package main

import (
	"bytes"
	"math"
	"testing"

	"synergy/internal/tpcw"
)

// testStreams generates every workload's stream at a small scale.
func testStreams(t *testing.T, seed int64, stmts int) map[string]*stream {
	t.Helper()
	out := map[string]*stream{}
	for _, w := range workloads {
		var g *gen
		var err error
		if w.scanOnly {
			g, err = newScanGen(tpcw.GenerateCustomers(2000, seed), conns)
		} else {
			g, err = newTPCWGen(tpcw.Generate(50, seed), conns)
		}
		if err != nil {
			t.Fatal(err)
		}
		out[w.name] = generate(g, w.mix(), seed, stmts, 0)
	}
	return out
}

func TestStreamDeterministic(t *testing.T) {
	a, b, c := testStreams(t, 7, 600), testStreams(t, 7, 600), testStreams(t, 8, 600)
	for _, w := range workloads {
		for k := 0; k < conns; k++ {
			if !bytes.Equal(a[w.name].encode(k), b[w.name].encode(k)) {
				t.Errorf("%s connection %d: the same seed gave two different streams", w.name, k)
			}
			if bytes.Equal(a[w.name].encode(k), c[w.name].encode(k)) {
				t.Errorf("%s connection %d: seeds 7 and 8 gave the same stream", w.name, k)
			}
		}
		if bytes.Equal(a[w.name].encode(0), a[w.name].encode(1)) {
			t.Errorf("%s: both connections got the same stream", w.name)
		}
	}
	// order-mvcc replays order's stream against the other deployment.
	for k := 0; k < conns; k++ {
		if !bytes.Equal(a["order"].encode(k), a["order-mvcc"].encode(k)) {
			t.Errorf("connection %d: order and order-mvcc streams differ", k)
		}
	}
}

// TestWritesDisjointAtLockRoots asserts the generator's second rule: no two
// connections ever write under the same root key, the root being resolved
// through Design.LockChain.
func TestWritesDisjointAtLockRoots(t *testing.T) {
	for _, w := range workloads {
		var g *gen
		var err error
		if w.scanOnly {
			g, err = newScanGen(tpcw.GenerateCustomers(2000, 3), conns)
		} else {
			g, err = newTPCWGen(tpcw.Generate(50, 3), conns)
		}
		if err != nil {
			t.Fatal(err)
		}
		st := generate(g, w.mix(), 3, 3000, 0)
		type rootKey struct {
			root string
			key  int64
		}
		owner := map[rootKey]int{}
		writes, rooted := 0, 0
		for k, units := range st.conns {
			for _, u := range units {
				for _, o := range u.ops {
					if st.defs[o.def].class != classWrite {
						continue
					}
					writes++
					// The stamped root must be the design's root of the
					// written relation, reached by a lock chain.
					want, ok := g.design.RootOf(o.back.table)
					if !ok {
						want = ""
					}
					if o.root != want {
						t.Fatalf("%s %s: stamped root %q, design says %q", w.name, st.defs[o.def].id, o.root, want)
					}
					if o.root == "" {
						continue
					}
					if _, ok := g.design.LockChain(o.back.table); !ok {
						t.Fatalf("%s %s: no lock chain for %s", w.name, st.defs[o.def].id, o.back.table)
					}
					rooted++
					if int(o.rootKey%conns) != k {
						t.Fatalf("%s %s on connection %d writes under %s/%d", w.name, st.defs[o.def].id, k, o.root, o.rootKey)
					}
					rk := rootKey{o.root, o.rootKey}
					if prev, seen := owner[rk]; seen && prev != k {
						t.Fatalf("%s: connections %d and %d both write under %s/%d", w.name, prev, k, o.root, o.rootKey)
					}
					owner[rk] = k
				}
			}
		}
		if writes == 0 || rooted == 0 {
			t.Errorf("%s: %d writes, %d under a lock root; the test saw nothing", w.name, writes, rooted)
		}
	}
}

// TestMixShares holds the streams to the documented weights, within two
// points.
func TestMixShares(t *testing.T) {
	streams := testStreams(t, 5, 5000)
	share := func(st *stream, pred func(u *unit, id, class string) bool) float64 {
		var hit, total int
		for _, units := range st.conns {
			for i := range units {
				u := &units[i]
				n := u.statements()
				total += n
				first := st.defs[u.ops[0].def]
				if pred(u, first.id, first.class) {
					hit += n
				}
			}
		}
		return float64(hit) / float64(total)
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%s: share %.3f, documented %.2f", name, got, want)
		}
	}
	class := func(c string) func(*unit, string, string) bool {
		return func(u *unit, _, cl string) bool { return !u.txn && cl == c }
	}
	id := func(want string) func(*unit, string, string) bool {
		return func(u *unit, got, _ string) bool { return !u.txn && got == want }
	}
	near("browse joins", share(streams["browse"], class(classJoin)), 0.70)
	near("browse point reads", share(streams["browse"], class(classPoint)), 0.24)
	near("browse writes", share(streams["browse"], class(classWrite)), 0.06)
	near("browse Q10", share(streams["browse"], id("Q10")), 0.08)
	near("browse Q6", share(streams["browse"], id("Q6")), 0.12)
	for _, name := range []string{"order", "order-mvcc"} {
		near(name+" statements inside transactions", share(streams[name], func(u *unit, _, _ string) bool { return u.txn }), 0.50)
		near(name+" buy-confirm", share(streams[name], func(u *unit, _, _ string) bool { return u.name == "buy-confirm" }), 33.0/130)
		near(name+" R1+Q6", share(streams[name], func(u *unit, id, _ string) bool { return !u.txn && (id == "R1" || id == "Q6") }), 21.0/130)
	}
	near("scan writes", share(streams["scan"], class(classWrite)), 6.0/16)
	near("scan aggregates", share(streams["scan"], id("S3")), 2.0/16)
	near("scan ranges", share(streams["scan"], id("S4")), 4.0/16)
}
