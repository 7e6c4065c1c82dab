package hbase

import (
	"fmt"
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
// and every version and tombstone of the row afterwards with its stamp. Run
// it at -cpu 1,2,4.
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

	var b strings.Builder
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
				fmt.Fprintf(&b, "%s warm=%v queueing=%v ok=%v", o.name, warm, queueing, ok)
				st := reflect.ValueOf(ctx.Snapshot())
				for i := 0; i < st.NumField(); i++ {
					fmt.Fprintf(&b, " %s=%d", st.Type().Field(i).Name, st.Field(i).Int())
				}
				fmt.Fprintf(&b, " WALSyncs=%d WALEdits=%d oracle=%d row=%s\n",
					hc.WALSyncs()-syncs, totalWALEdits(hc)-edits, hc.CurrentTS(), storedVersions(t, hc, o.key))
			}
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
