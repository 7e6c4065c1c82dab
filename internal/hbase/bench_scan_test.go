package hbase

import (
	"fmt"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/sim"
)

// BenchmarkScanMultiRegion compares a sequential and a fanned-out scan of an
// 8-region table, reporting both wall-clock time and the deterministic
// simulated response time (sim-ms/op). The consumer walks the regions in
// either case, so the fork/join gain is in sim-ms/op only.
func BenchmarkScanMultiRegion(b *testing.B) {
	const regions, rows = 8, 64_000
	_, c := buildScanFixture(b, rows, regions)
	for _, mode := range []struct {
		name string
		spec ScanSpec
	}{
		{"sequential", ScanSpec{Sequential: true}},
		{"parallel", ScanSpec{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var simTotal sim.Micros
			for i := 0; i < b.N; i++ {
				ctx := sim.NewCtx()
				sc, err := c.Scan(ctx, "t", mode.spec)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					if _, ok := sc.Next(ctx); !ok {
						break
					}
					n++
				}
				if n == 0 {
					b.Fatal("scan returned no rows")
				}
				simTotal += ctx.Elapsed()
			}
			b.ReportMetric(simTotal.Milliseconds()/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkScanGuideposts scans one 20,000-row region whole and folds it,
// each without fan-out and cut into one wave of eight 2,500-row units,
// reporting the simulated response time (sim-ms/op) beside wall-clock time
// and allocations. The units run one after another, so the fan-out is a
// simulated gain only; allocs/op pins what cutting a scan costs.
func BenchmarkScanGuideposts(b *testing.B) {
	_, c := buildScanFixture(b, 20_000, 1)
	for _, mode := range []struct {
		name string
		spec ScanSpec
	}{
		{"scan/sequential", ScanSpec{Sequential: true}},
		{"scan/fanned", ScanSpec{}},
		{"fold/sequential", ScanSpec{Fold: newLenFold, Sequential: true}},
		{"fold/fanned", ScanSpec{Fold: newLenFold}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var simTotal sim.Micros
			for i := 0; i < b.N; i++ {
				ctx := sim.NewCtx()
				sc, err := c.Scan(ctx, "t", mode.spec)
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, ok := sc.Next(ctx); !ok {
						break
					}
				}
				if ctx.Snapshot().RowsScanned != 20_000 {
					b.Fatalf("scan examined %d rows", ctx.Snapshot().RowsScanned)
				}
				simTotal += ctx.Elapsed()
			}
			b.ReportMetric(simTotal.Milliseconds()/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkMajorCompact exercises the heap-based k-way store-file merge.
// The store files are immutable and shared across iterations; each
// iteration compacts a fresh Region wrapper around them.
func BenchmarkMajorCompact(b *testing.B) {
	const files, rowsPerFile = 8, 4_000
	spec := &TableSpec{Name: "t", MaxVersions: 1, SplitThreshold: 1 << 30}
	built := newRegion(spec, "", "")
	for f := 0; f < files; f++ {
		for i := 0; i < rowsPerFile; i++ {
			// Staggered keys so files interleave and most rows need a
			// multi-way cell merge.
			key := scanKey(i*2 + f%2)
			built.put(key, []Cell{put("v", fmt.Sprintf("f%d-%d", f, i), int64(f*rowsPerFile+i+1))})
		}
		built.flush()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := newRegion(spec, "", "")
		r.files = append([]*hfile(nil), built.files...)
		r.majorCompact()
	}
}

// BenchmarkRowDataRead measures the per-row materialization cost that every
// scanned row pays: tombstone resolution, version filtering and result-map
// construction.
func BenchmarkRowDataRead(b *testing.B) {
	rd := &rowData{}
	for q := 0; q < 8; q++ {
		for v := 0; v < 3; v++ {
			rd.apply(put(fmt.Sprintf("q%02d", q), fmt.Sprintf("val-%d-%d", q, v), int64(v+1)), 3)
		}
	}
	rd.apply(Cell{Qualifier: "q03", TS: 2, Type: TypeDeleteCol}, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := rd.read(ReadOpts{}); len(out) == 0 {
			b.Fatal("read returned nothing")
		}
	}
}

// BenchmarkScanChunkMerge isolates the server-side chunk path: heap merge
// across store files plus per-row reads, no client or RPC accounting.
func BenchmarkScanChunkMerge(b *testing.B) {
	const rows = 8_000
	spec := &TableSpec{Name: "t", MaxVersions: 1, SplitThreshold: 1 << 30}
	r := newRegion(spec, "", "")
	for f := 0; f < 4; f++ {
		for i := f; i < rows; i += 4 {
			r.put(scanKey(i), []Cell{put("v", fmt.Sprint(i), int64(i+1))})
		}
		r.flush()
	}
	buf := &chunkBuf{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.reset()
		if _, _, next := r.scanChunk(buf, "", r.edge(false), 0, &ScanSpec{}, nil); next != "" {
			b.Fatalf("next = %q, want exhausted", next)
		}
		if len(buf.rows) != rows {
			b.Fatalf("rows = %d, want %d", len(buf.rows), rows)
		}
	}
}

// compactedWideTable is a table whose rows live only in one compacted store
// file, 25 columns each — the shape of a materialized view, which is what a
// TPC-W browse statement scans.
func compactedWideTable(b *testing.B, rows int) *Client {
	hc := NewHCluster(cluster.NewDefault(nil), nil, nil)
	if err := hc.CreateTable(TableSpec{Name: "t"}); err != nil {
		b.Fatal(err)
	}
	bulk := make([]BulkRow, rows)
	for i := range bulk {
		bulk[i] = BulkRow{Key: scanKey(i), Cells: wideCells(i, 0)}
	}
	if err := hc.BulkLoad("t", bulk); err != nil {
		b.Fatal(err)
	}
	if err := hc.MajorCompact("t"); err != nil {
		b.Fatal(err)
	}
	return hc.NewWarmClient()
}

// BenchmarkScanCompactedWide is the store file read kernel on its home
// ground: a client scan over file-only wide rows, no memstore part to merge.
// sim-ms/op pins the charged work; allocs/op pins the per-chunk (never
// per-row) allocation profile.
func BenchmarkScanCompactedWide(b *testing.B) {
	const rows = 8_000
	c := compactedWideTable(b, rows)
	b.ReportAllocs()
	b.ResetTimer()
	var simTotal sim.Micros
	for i := 0; i < b.N; i++ {
		ctx := sim.NewCtx()
		sc, err := c.Scan(ctx, "t", ScanSpec{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			row, ok := sc.Next(ctx)
			if !ok {
				break
			}
			if len(row.Cells) != 25 {
				b.Fatalf("row %s has %d cells", row.Key, len(row.Cells))
			}
			n++
		}
		if n != rows {
			b.Fatalf("scan returned %d rows, want %d", n, rows)
		}
		simTotal += ctx.Elapsed()
	}
	b.ReportMetric(simTotal.Milliseconds()/float64(b.N), "sim-ms/op")
}

// BenchmarkGetCompacted is a point read served from a compacted store file:
// key seek, block lookup and one packed row read into a fresh result.
func BenchmarkGetCompacted(b *testing.B) {
	const rows = 8_000
	c := compactedWideTable(b, rows)
	b.ReportAllocs()
	b.ResetTimer()
	var simTotal sim.Micros
	for i := 0; i < b.N; i++ {
		ctx := sim.NewCtx()
		row, err := c.Get(ctx, "t", scanKey(i*7919%rows), ReadOpts{})
		if err != nil || len(row.Cells) != 25 {
			b.Fatalf("get: %d cells, err %v", len(row.Cells), err)
		}
		simTotal += ctx.Elapsed()
	}
	b.ReportMetric(simTotal.Milliseconds()/float64(b.N), "sim-ms/op")
}
