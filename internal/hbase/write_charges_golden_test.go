package hbase

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/sim"
)

// TestWriteChargesGolden pins what the client's single-row writes are charged
// and what they leave in the store: Put, DeleteAt, and CheckAndPut applied and
// failed, with cells the server stamps and cells that arrive stamped, each on
// a warm client and on a cold one, with the per-server queueing model off and
// on (where every write waits behind the ones before it). A line records the
// write's outcome, every sim.Stats counter of its request (elapsed, RPCs,
// queue waits, ...), the WAL syncs and edits it added, the oracle after it,
// and every version and tombstone of the row afterwards with its stamp.
//
// The lines after them pin MutateBatch at the shape that fans out widest: a
// batch of at least 64 puts, row deletes and column deletes over a table
// pre-split into four regions, one per region server, in the same four
// configurations. The second batch carries conditional puts, all in one
// region's group, so the stamps the region gives them follow batch order. A
// batch line records the whole table (every key's versions, hashed) in place
// of one row. The last four lines pin a round of lock releases (see below).
// Run it at -cpu 1,2,4.
func TestWriteChargesGolden(t *testing.T) {
	type op struct {
		name string
		key  string
		do   func(ctx *sim.Ctx, c *Client) (bool, error)
	}
	putOp := func(name, key string, cells ...Cell) op {
		return op{name, key, func(ctx *sim.Ctx, c *Client) (bool, error) { return true, c.Put(ctx, "t", key, cells) }}
	}
	deleteOp := func(name, key string, ts int64, quals ...string) op {
		return op{name, key, func(ctx *sim.Ctx, c *Client) (bool, error) { return true, c.DeleteAt(ctx, "t", key, ts, quals...) }}
	}
	casOp := func(name, key string, expected []byte, cell Cell) op {
		return op{name, key, func(ctx *sim.Ctx, c *Client) (bool, error) {
			return c.CheckAndPut(ctx, "t", key, cell.Qualifier, expected, cell)
		}}
	}
	ops := []op{
		putOp("put", "a", put("v", "one", 0), put("w", "two", 0)),
		putOp("put-stamped", "b", put("v", "pre", 500), put("w", "server", 0)),
		putOp("put-again", "a", put("v", "three", 0)),
		deleteOp("delete-row", "a", 0),
		deleteOp("delete-col-at", "b", 700, "v"),
		casOp("cas-create", "l", nil, put("q", "held", 0)),
		casOp("cas-create-fails", "l", nil, put("q", "other", 0)),
		casOp("cas-swap", "l", []byte("held"), put("q", "free", 0)),
		casOp("cas-swap-fails", "l", []byte("held"), put("q", "free", 0)),
		casOp("cas-stamped-fails", "l", []byte("held"), put("q", "x", 900)),
		casOp("cas-stamped", "l", []byte("free"), put("q", "held", 900)),
	}

	const batchKeys = 48
	batchSplits := []string{scanKey(12), scanKey(24), scanKey(36)}
	mixed := func() []Mutation {
		var muts []Mutation
		for i := 0; i < batchKeys; i++ {
			muts = append(muts, PutMutation("t", scanKey(i), []Cell{put("v", fmt.Sprint("v", i), 0), put("w", "x", 0)}, 0))
		}
		for i := 0; i < batchKeys; i += 6 {
			muts = append(muts, DeleteMutation("t", scanKey(i), 0))
			muts = append(muts, DeleteMutation("t", scanKey(i+1), 0, "w"))
		}
		for i := 0; i < batchKeys; i += 12 {
			muts = append(muts, PutMutation("t", scanKey(i), []Cell{put("v", "back", 0)}, 0))
		}
		return append(muts, PutMutation("t", scanKey(47), []Cell{put("v", "pre", 2)}, 0))
	}
	withCAS := func() []Mutation {
		var muts []Mutation
		for i := 0; i < batchKeys; i++ {
			muts = append(muts, PutMutation("t", scanKey(i), []Cell{put("v", fmt.Sprint("u", i), 0)}, 0))
		}
		for i := 0; i < 12; i++ { // every conditional in the first region
			switch i % 3 {
			case 0:
				muts = append(muts, CheckAndPutMutation("t", scanKey(i), "l", nil, put("l", "held", 0)))
			case 1:
				muts = append(muts, CheckAndPutMutation("t", scanKey(i), "v", []byte("nope"), put("v", "lost", 0)))
			default:
				muts = append(muts, CheckAndPutMutation("t", scanKey(i), "l", nil, put("l", "held", 0)))
				muts = append(muts, CheckAndPutMutation("t", scanKey(i), "l", []byte("held"), put("l", "free", 0)))
			}
		}
		for i := 12; i < batchKeys; i += 4 {
			muts = append(muts, DeleteMutation("t", scanKey(i), 0, "v"))
		}
		return muts
	}
	batches := []struct {
		name string
		muts func() []Mutation
	}{{"batch-mixed", mixed}, {"batch-cas", withCAS}}

	var b strings.Builder
	lineTo := func(w *strings.Builder, hc *HCluster, ctx *sim.Ctx, name string, warm, queueing, ok bool, syncs, edits int64) {
		fmt.Fprintf(w, "%s warm=%v queueing=%v ok=%v", name, warm, queueing, ok)
		st := reflect.ValueOf(ctx.Snapshot())
		for i := 0; i < st.NumField(); i++ {
			fmt.Fprintf(w, " %s=%d", st.Type().Field(i).Name, st.Field(i).Int())
		}
		fmt.Fprintf(w, " WALSyncs=%d WALEdits=%d oracle=%d", hc.WALSyncs()-syncs, totalWALEdits(hc)-edits, hc.CurrentTS())
	}
	line := func(hc *HCluster, ctx *sim.Ctx, name string, warm, queueing, ok bool, syncs, edits int64) {
		lineTo(&b, hc, ctx, name, warm, queueing, ok, syncs, edits)
	}
	for _, queueing := range []bool{false, true} {
		for _, warm := range []bool{true, false} {
			hc := NewHCluster(cluster.NewDefault(nil), nil, nil)
			if queueing {
				hc.cl.EnableQueueing()
			}
			mustCreate(t, hc, TableSpec{Name: "t", MaxVersions: 4})
			client := hc.NewWarmClient()
			for _, o := range ops {
				c := client
				if !warm {
					c = hc.NewClient()
				}
				syncs, edits := hc.WALSyncs(), totalWALEdits(hc)
				ctx := sim.NewCtx()
				ok, err := o.do(ctx, c)
				if err != nil {
					t.Fatal(err)
				}
				line(hc, ctx, o.name, warm, queueing, ok, syncs, edits)
				fmt.Fprintf(&b, " row=%s\n", storedVersions(t, hc, o.key))
			}
		}
	}
	for _, queueing := range []bool{false, true} {
		for _, warm := range []bool{true, false} {
			hc := NewHCluster(cluster.NewDefault(nil), nil, nil)
			if queueing {
				hc.cl.EnableQueueing()
			}
			mustCreate(t, hc, TableSpec{Name: "t", MaxVersions: 4, SplitKeys: batchSplits})
			client := hc.NewWarmClient()
			for _, batch := range batches {
				c := client
				if !warm {
					c = hc.NewClient()
				}
				muts := batch.muts()
				if len(muts) < 64 {
					t.Fatalf("%s holds %d mutations, want at least 64", batch.name, len(muts))
				}
				syncs, edits := hc.WALSyncs(), totalWALEdits(hc)
				ctx := sim.NewCtx()
				if err := c.MutateBatch(ctx, muts); err != nil {
					t.Fatal(err)
				}
				line(hc, ctx, batch.name, warm, queueing, true, syncs, edits)
				h := fnv.New64a()
				for i := 0; i < batchKeys; i++ {
					fmt.Fprintln(h, storedVersions(t, hc, scanKey(i)))
				}
				fmt.Fprintf(&b, " muts=%d table=%016x\n", len(muts), h.Sum64())
			}
		}
	}
	// The last lines pin a lock-release round: four conditional held→free
	// puts over a table split into two regions on two servers, alone and with
	// one check failing (its lock already free), each on a fresh cluster. A
	// line records the four rows afterwards. The round is shipped twice, by
	// MutateBatch and by a mutator's Flush (how a transaction frees its
	// locks); both must render the line and report each check's outcome.
	releaseKeys := []string{scanKey(1), scanKey(2), scanKey(13), scanKey(14)}
	releases := []struct {
		name string
		free int // the index of the lock that is not held, or -1
	}{{"release", -1}, {"release-one-free", 2}}
	ships := []func(ctx *sim.Ctx, c *Client, muts []Mutation) error{
		func(ctx *sim.Ctx, c *Client, muts []Mutation) error { return c.MutateBatch(ctx, muts) },
		func(ctx *sim.Ctx, c *Client, muts []Mutation) error {
			m := c.NewBufferedMutator(0)
			for _, mu := range muts {
				if err := m.CheckAndPut(ctx, mu.Table, mu.Key, mu.CheckQualifier, mu.CheckExpected, mu.Cells[0], mu.Passed); err != nil {
					return err
				}
			}
			return m.Flush(ctx)
		},
	}
	for _, warm := range []bool{true, false} {
		for _, rel := range releases {
			var first string
			for p, ship := range ships {
				var out strings.Builder
				hc := NewHCluster(cluster.NewDefault(nil), nil, nil)
				mustCreate(t, hc, TableSpec{Name: "t", MaxVersions: 4, SplitKeys: []string{scanKey(12)}})
				passed := make([]bool, len(releaseKeys))
				var locks, muts []Mutation
				for i, key := range releaseKeys {
					state := "held"
					if i == rel.free {
						state = "free"
					}
					locks = append(locks, PutMutation("t", key, []Cell{put("l", state, 0)}, 0))
					mu := CheckAndPutMutation("t", key, "l", []byte("held"), put("l", "free", 0))
					mu.Passed = &passed[i]
					muts = append(muts, mu)
				}
				if err := hc.NewWarmClient().MutateBatch(sim.NewCtx(), locks); err != nil {
					t.Fatal(err)
				}
				c := hc.NewWarmClient()
				if !warm {
					c = hc.NewClient()
				}
				syncs, edits := hc.WALSyncs(), totalWALEdits(hc)
				ctx := sim.NewCtx()
				if err := ship(ctx, c, muts); err != nil {
					t.Fatal(err)
				}
				for i, ok := range passed {
					if ok != (i != rel.free) {
						t.Fatalf("%s shipped by path %d: check %d passed=%v", rel.name, p, i, ok)
					}
				}
				lineTo(&out, hc, ctx, rel.name, warm, false, true, syncs, edits)
				out.WriteString(" rows=")
				for _, key := range releaseKeys {
					out.WriteString(storedVersions(t, hc, key))
				}
				out.WriteString("\n")
				if p == 0 {
					first = out.String()
				} else if out.String() != first {
					t.Fatalf("%s charged differently by path %d:\n got  %s want %s", rel.name, p, out.String(), first)
				}
			}
			b.WriteString(first)
		}
	}

	path := filepath.Join("testdata", "write_charges.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("write charges differ from %s at line %d:\n got  %s\n want %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("write charges differ from %s: got %d lines, want %d", path, len(g), len(w))
	}
}

// storedVersions renders every cell the store holds for row key of table "t"
// — versions and tombstones, in the region's order — as qualifier/type@stamp=value.
func storedVersions(t *testing.T, hc *HCluster, key string) string {
	t.Helper()
	tbl, err := hc.lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	r := tbl.regionFor(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, parts := lookupRow(r.mem, r.files, key, nil)
	defer m.release()
	var out []string
	for _, c := range m.fold(parts).cells {
		out = append(out, fmt.Sprintf("%s/%d@%d=%s", c.Qualifier, c.Type, c.TS, c.Value))
	}
	return "[" + strings.Join(out, " ") + "]"
}
