package hbase

import (
	"testing"

	"synergy/internal/sim"
)

// getEach reads keys one Get at a time through r, on one ctx.
func getEach(t *testing.T, r Reader, keys []string) ([]string, sim.Stats) {
	t.Helper()
	ctx := sim.NewCtx()
	var out []string
	for _, k := range keys {
		res, err := r.Get(ctx, "t", k, ReadOpts{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.String())
	}
	return out, ctx.Snapshot()
}

// getMany reads keys with one GetMany through r.
func getMany(t *testing.T, r Reader, keys []string) ([]string, sim.Stats) {
	t.Helper()
	ctx := sim.NewCtx()
	rows, err := r.GetMany(ctx, "t", keys, ReadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, res := range rows {
		out = append(out, res.String())
	}
	return out, ctx.Snapshot()
}

func sameRows(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d: %s, want %s", i, got[i], want[i])
		}
	}
}

// TestGetMany is the multi-get's contract: the rows a Get per key returns, in
// key order (an absent row empty); one key charged what Get charges; the keys
// of one region in one RPC with a GetSeek each; several regions read in
// parallel, the caller charged the slowest.
func TestGetMany(t *testing.T) {
	_, c := splitCluster(t, 3, 20) // regions [, 6) [6, 13) [13, )
	ctx := sim.NewCtx()
	for i := 0; i < 20; i += 2 {
		if err := c.Put(ctx, "t", scanKey(i), []Cell{put("v", "stored", 0)}); err != nil {
			t.Fatal(err)
		}
	}
	keys := []string{scanKey(4), scanKey(5), scanKey(2), scanKey(16), scanKey(8)}
	want, _ := getEach(t, c, keys)
	got, _ := getMany(t, c, keys)
	sameRows(t, got, want)

	_, one := getEach(t, c, keys[:1])
	if _, many := getMany(t, c, keys[:1]); many != one {
		t.Errorf("one key: %+v, want Get's %+v", many, one)
	}

	region0 := keys[:3]
	_, each := getEach(t, c, region0)
	_, many := getMany(t, c, region0)
	if many.RPCs != 1 || many.RowsReturned != 2 {
		t.Errorf("three keys of one region: %d RPCs, %d rows; want 1 and 2", many.RPCs, many.RowsReturned)
	}
	if many.Elapsed >= each.Elapsed {
		t.Errorf("three keys of one region: %v, not below %v one Get at a time", many.Elapsed, each.Elapsed)
	}

	var slowest sim.Micros
	for _, group := range [][]string{region0, keys[4:], keys[3:4]} {
		_, s := getMany(t, c, group)
		slowest = max(slowest, s.Elapsed)
	}
	if _, all := getMany(t, c, keys); all.RPCs != 3 || all.Elapsed != slowest {
		t.Errorf("three regions: %d RPCs in %v; want 3 in %v, the slowest region's", all.RPCs, all.Elapsed, slowest)
	}
}

// TestReadViewGetMany: through a transaction's view, a multi-get merges the
// pending rows as Get does and serves a pending row delete from the buffer;
// the view of a mutator that flushes at 1 — the paper's client — issues a Get
// per key.
func TestReadViewGetMany(t *testing.T) {
	_, c, m := overlayFixture(t)
	ctx := sim.NewCtx()
	for _, err := range []error{
		m.Put(ctx, "t", scanKey(1), []Cell{put("v", "new-1", 0)}),
		m.Put(ctx, "t", scanKey(2), []Cell{put("v", "overwritten-2", 0)}),
		m.Delete(ctx, "t", scanKey(4), 0),
		m.Delete(ctx, "t", scanKey(6), 0, "w"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	keys := []string{scanKey(1), scanKey(2), scanKey(3), scanKey(4), scanKey(6), scanKey(10)}
	want, _ := getEach(t, m.View(), keys)
	got, stats := getMany(t, m.View(), keys)
	sameRows(t, got, want)
	// Key 4's pending row delete masks the store: five keys reach it, in
	// the store's regions [, 6) and [6, 13).
	if stats.RPCs != 2 {
		t.Errorf("%d RPCs, want 2: one per region, none for the deleted row", stats.RPCs)
	}

	eager := c.NewBufferedMutator(1).View()
	want, each := getEach(t, eager, keys)
	got, many := getMany(t, eager, keys)
	sameRows(t, got, want)
	if many != each {
		t.Errorf("flush-at-1 view: %+v, want a Get per key's %+v", many, each)
	}
}
