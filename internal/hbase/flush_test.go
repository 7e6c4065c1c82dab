package hbase

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/sim"
)

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// recountBytes is Region.sizeBytes from scratch: KVSize of every cell in the
// memstore and, decoded, in every store file.
func recountBytes(r *Region) int64 {
	var n int64
	for k, rd := range r.mem.rows {
		n += rd.sizeBytes(k)
	}
	m := newRowMerger(nil, r.files, "", false, nil)
	defer m.release()
	for {
		key, parts, ok := m.next()
		if !ok {
			return n
		}
		for _, p := range parts {
			n += (&rowData{cells: p.appendCells(nil)}).sizeBytes(key)
		}
	}
}

// TestMemstoreBounded writes fifty flush sizes of inserts, overwrites, version
// pile-ups, tombstones and conditional puts through one region —
// every memstore write site — and holds the region to its bounds after each
// write: the resident memstore is below the flush size plus that write, the
// store files are what the compaction policy leaves behind (each more than
// compactionRatio times everything newer, hence logarithmically many), and
// the incrementally kept footprint equals a recount.
func TestMemstoreBounded(t *testing.T) {
	const flushSize = 4 << 10
	spec := &TableSpec{Name: "t", MaxVersions: 2, SplitThreshold: 1 << 30, FlushSize: flushSize}
	r := newRegion(spec, "", "")
	rng := rand.New(rand.NewSource(7))
	var clock int64
	tick := func() int64 { clock++; return clock }

	var written, maxFiles int64
	for step := 0; written < 50*flushSize; step++ {
		key := scanKey(rng.Intn(400))
		before := r.mem.bytes
		var wrote int64
		switch op := rng.Intn(20); {
		case op < 14:
			ts := tick()
			if op < 3 {
				ts = clock - 1 // the stamp of the write before: overwrites in place when it hit this row
			}
			cells := []Cell{put("a", fmt.Sprint("value-", step), ts), put("b", fmt.Sprint(step), ts)}
			for _, c := range cells {
				wrote += KVSize(key, c)
			}
			r.put(key, cells)
		case op < 16:
			wrote = KVSize(key, Cell{})
			r.deleteRow(key, tick(), nil)
		case op < 17:
			wrote = KVSize(key, Cell{Qualifier: "a"})
			r.deleteRow(key, tick(), []string{"a"})
		case op < 19:
			c := Cell{Qualifier: "l", Value: []byte("held")}
			wrote = KVSize(key, c)
			r.checkAndPut(key, "l", r.readLocked(key, ReadOpts{}, nil).Get("l"), c, tick)
		default:
			c := Cell{Qualifier: "n", Value: make([]byte, 8)}
			wrote = KVSize(key, c)
			r.checkAndPut(key, "n", r.readLocked(key, ReadOpts{}, nil).Get("n"), c, tick)
		}
		written += wrote

		if r.mem.bytes >= flushSize+wrote {
			t.Fatalf("step %d: %d bytes resident in the memstore after a %d-byte write (was %d), flush size %d",
				step, r.mem.bytes, wrote, before, flushSize)
		}
		if got, want := r.sizeBytes(), recountBytes(r); got != want {
			t.Fatalf("step %d: sizeBytes %d, recount %d", step, got, want)
		}
		var newer int64
		for i, f := range r.files {
			if i > 0 && f.size <= compactionRatio*newer {
				t.Fatalf("step %d: file %d of %d holds %d bytes beneath %d newer ones; the policy should have merged it",
					step, i, len(r.files), f.size, newer)
			}
			newer += f.size
		}
		maxFiles = max(maxFiles, int64(len(r.files)))
	}
	// Sizes growing (1+ratio)-fold from a newest file of at least one flush.
	bound := 1 + int64(math.Log(float64(written)/flushSize)/math.Log(1+compactionRatio))
	if maxFiles > bound {
		t.Fatalf("%d store files at once, policy bound %d", maxFiles, bound)
	}
	if f, c := r.stats.flushes.Load(), r.stats.compactions.Load(); f < 25 || c < 10 || r.stats.compactedBytes.Load() == 0 {
		t.Fatalf("%d flushes and %d compactions over %d bytes written at flush size %d", f, c, written, flushSize)
	}
}

// TestFlushChargesNothing pins the decision that flushes and compactions are
// background region server work: the same writes and reads against a table
// that flushes every few writes and one that never does cost the same
// simulated time and count the same work, statement by statement.
func TestFlushChargesNothing(t *testing.T) {
	type deployment struct {
		hc  *HCluster
		c   *Client
		ctx *sim.Ctx
	}
	var ds []deployment
	for _, flushSize := range []int64{512, math.MaxInt64} {
		hc := NewHCluster(cluster.NewDefault(nil), nil, nil)
		mustCreate(t, hc, TableSpec{Name: "t", MaxVersions: 3, FlushSize: flushSize})
		ds = append(ds, deployment{hc, hc.NewWarmClient(), sim.NewCtx()})
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 600; step++ {
		key := scanKey(rng.Intn(120))
		op := rng.Intn(10)
		var rows [2]string
		for i, d := range ds {
			var err error
			switch {
			case op < 4:
				err = d.c.Put(d.ctx, "t", key, []Cell{{Qualifier: "a", Value: []byte(fmt.Sprint("v", step))}, {Qualifier: "b", Value: []byte("w")}})
			case op < 5:
				err = d.c.Delete(d.ctx, "t", key)
			case op < 6:
				var cur RowResult
				if cur, err = d.c.Get(d.ctx, "t", key, ReadOpts{}); err == nil {
					_, err = d.c.CheckAndPut(d.ctx, "t", key, "a", cur.Get("a"), Cell{Qualifier: "a", Value: []byte("cas")})
				}
			case op < 7:
				var cur RowResult
				if cur, err = d.c.Get(d.ctx, "t", key, ReadOpts{}); err == nil {
					_, err = d.c.CheckAndPut(d.ctx, "t", key, "n", cur.Get("n"), Cell{Qualifier: "n", Value: []byte(fmt.Sprint("n", step))})
				}
			case op < 9:
				var row RowResult
				row, err = d.c.Get(d.ctx, "t", key, ReadOpts{})
				rows[i] = row.String()
			default:
				var sc *Scanner
				if sc, err = d.c.Scan(d.ctx, "t", ScanSpec{Start: key, Limit: 25, Reversed: step%2 == 0}); err == nil {
					rows[i] = fmt.Sprint(sc.All(d.ctx))
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if rows[0] != rows[1] {
			t.Fatalf("step %d: flushing table read %s, unflushed table %s", step, rows[0], rows[1])
		}
		if a, b := ds[0].ctx, ds[1].ctx; a.Elapsed() != b.Elapsed() || a.Snapshot() != b.Snapshot() {
			t.Fatalf("step %d: flushing table charged %v %+v, unflushed table %v %+v", step, a.Elapsed(), a.Snapshot(), b.Elapsed(), b.Snapshot())
		}
	}
	flushing, never := ds[0].hc.StoreStats("t"), ds[1].hc.StoreStats("t")
	if flushing.Flushes < 20 || flushing.Compactions < 5 || flushing.Files == 0 || flushing.MemstoreBytes >= 512 {
		t.Fatalf("the flushing table's store stats %+v show little flushing", flushing)
	}
	if never.Flushes != 0 || never.Compactions != 0 || never.Files != 0 || never.MemstoreBytes == 0 {
		t.Fatalf("the unflushed table's store stats %+v show store work", never)
	}
}

// BenchmarkRegionSustainedPuts is the write path a long run exercises. One op
// is 20,000 puts of wide rows into one region — some eighty flush sizes — so
// flushes and tiered compactions are part of every op. The insert-heavy
// variant never repeats a key; the update-heavy one cycles over 2,000, so
// merges keep finding superseded versions to trim. sim-ms/op contains no
// flush or compaction (they charge nothing); resident-B/op is the heap the
// table retains when the puts are done, the figure the memstore bound exists
// for.
func BenchmarkRegionSustainedPuts(b *testing.B) {
	const puts = 20_000
	for _, variant := range []struct {
		name string
		keys int
	}{{"insert", puts}, {"update", 2_000}} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			var simTotal sim.Micros
			var resident uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				hc := NewHCluster(cluster.NewDefault(nil), nil, nil)
				if err := hc.CreateTable(TableSpec{Name: "t"}); err != nil {
					b.Fatal(err)
				}
				c := hc.NewWarmClient()
				ctx := sim.NewCtx()
				quals := wideCells(0, 0)
				before := liveHeap()
				b.StartTimer()
				for p := 0; p < puts; p++ {
					// A 25-column row of fresh 16-byte values, built with two
					// allocations so the counts below are the store's.
					cells := make([]Cell, len(quals))
					values := make([]byte, 16*len(quals))
					for q := range cells {
						v := values[16*q : 16*q+16 : 16*q+16]
						binary.BigEndian.PutUint64(v, uint64(p))
						cells[q] = Cell{Qualifier: quals[q].Qualifier, Value: v}
					}
					if err := c.Put(ctx, "t", scanKey(p%variant.keys), cells); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				resident += liveHeap() - before
				runtime.KeepAlive(hc)
				simTotal += ctx.Elapsed()
				if st := hc.StoreStats("t"); st.Flushes == 0 || st.Compactions == 0 {
					b.Fatalf("store stats %+v: the run was meant to flush and compact", st)
				}
				b.StartTimer()
			}
			b.ReportMetric(simTotal.Milliseconds()/float64(b.N), "sim-ms/op")
			b.ReportMetric(float64(resident)/float64(b.N), "resident-B/op")
		})
	}
}

// TestWritersFlushUnderScanners runs the inline flush and compaction where
// they meet other goroutines: four writers drive one table through hundreds
// of size-triggered flushes while scanners stream it, sequentially and
// scatter-gathered. Every scanned row must be whole (a row's two cells are
// written by one put) and in key order — a chunk's rows alias store file
// blocks and memstore values that a concurrent compaction retires — and every
// written row must be there at the end. The race step runs it under -race.
func TestWritersFlushUnderScanners(t *testing.T) {
	const writers, perWriter = 4, 600
	hc := NewHCluster(cluster.NewDefault(nil), nil, nil)
	mustCreate(t, hc, TableSpec{Name: "t", FlushSize: 2 << 10, SplitKeys: []string{scanKey(perWriter), scanKey(3 * perWriter)}})
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			c, ctx := hc.NewWarmClient(), sim.NewCtx()
			for i := 0; i < perWriter; i++ {
				// Interleaved keys: every writer writes into every region.
				v := fmt.Sprint("v", w, "-", i)
				if err := c.Put(ctx, "t", scanKey(i*writers+w), []Cell{{Qualifier: "a", Value: []byte(v)}, {Qualifier: "b", Value: []byte(v)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var scanning sync.WaitGroup
	for s := 0; s < 2; s++ {
		scanning.Add(1)
		go func() {
			defer scanning.Done()
			c := hc.NewWarmClient()
			for {
				select {
				case <-done:
					return
				default:
				}
				ctx := sim.NewCtx()
				sc, err := c.Scan(ctx, "t", ScanSpec{Sequential: s == 0, Batch: 64})
				if err != nil {
					t.Error(err)
					return
				}
				last := ""
				for row, ok := sc.Next(ctx); ok; row, ok = sc.Next(ctx) {
					if row.Key <= last || len(row.Cells) != 2 || string(row.Get("a")) != string(row.Get("b")) {
						t.Errorf("scanned %s after %q", row, last)
						sc.Close(ctx)
						return
					}
					last = row.Key
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	scanning.Wait()
	rows, _ := drainSpec(t, hc.NewWarmClient(), ScanSpec{})
	if len(rows) != writers*perWriter {
		t.Fatalf("%d rows at the end, wrote %d", len(rows), writers*perWriter)
	}
	if st := hc.StoreStats("t"); st.Flushes < 20 || st.Compactions < 10 {
		t.Fatalf("store stats %+v: the run was meant to flush and compact throughout", st)
	}
}
