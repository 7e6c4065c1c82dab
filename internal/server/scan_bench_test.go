package server

import (
	"fmt"
	"sync/atomic"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/synergy"
)

// The scan benchmarks measure the server's full-table read path through a
// real socket: one client scanning a table per iteration, text and binary row
// protocols. allocs/op is the headline: the per-row encode works out of the
// connection's reused scratch and the cursor's raw cell views, so the
// allocations stay near-constant as the table grows (TestStreamedScanAllocsFlat
// holds them to it).

var tableSeq atomic.Int64

// serveTable serves one hierarchical deployment of rel, loaded with rows,
// over an in-process listener, and returns its address.
func serveTable(tb testing.TB, rel *schema.Relation, rows []schema.Row) (addr string) {
	tb.Helper()
	s := schema.New()
	s.AddRelation(rel)
	if err := s.Validate(); err != nil {
		tb.Fatal(err)
	}
	sys, err := synergy.New(s, []string{rel.Name}, nil, synergy.Config{Concurrency: synergy.Hierarchical})
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.LoadBase(rel.Name, rows); err != nil {
		tb.Fatal(err)
	}
	if err := sys.BuildViews(); err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Config{Backends: []Backend{{Name: "synergy", System: sys}}})
	if err != nil {
		tb.Fatal(err)
	}
	addr = fmt.Sprintf("table-%d", tableSeq.Add(1))
	l, err := ListenInproc(addr)
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(l)
	tb.Cleanup(func() { srv.Close() })
	return addr
}

// benchScanServer serves table KV with rows rows.
func benchScanServer(b testing.TB, rows int) (addr string) {
	b.Helper()
	data := make([]schema.Row, 0, rows)
	for i := 1; i <= rows; i++ {
		data = append(data, schema.Row{
			"K": int64(i), "VS": fmt.Sprintf("value-%08d", i),
			"VI": int64(i * 7), "VF": float64(i) / 3,
		})
	}
	return serveTable(b, &schema.Relation{
		Name: "KV",
		Columns: []schema.Column{
			{Name: "K", Type: schema.TInt},
			{Name: "VS", Type: schema.TString},
			{Name: "VI", Type: schema.TInt},
			{Name: "VF", Type: schema.TFloat},
		},
		PK: []string{"K"},
	}, data)
}

func benchScan(b *testing.B, rows int, binary bool) {
	addr := benchScanServer(b, rows)
	c, err := Dial("inproc", addr, "bench", "")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	scan := func() (int, error) {
		var rs *ClientRows
		var err error
		if binary {
			st, err := c.Prepare("SELECT * FROM KV")
			if err != nil {
				return 0, err
			}
			defer st.Close()
			rs, err = st.QueryStream()
			if err != nil {
				return 0, err
			}
		} else {
			rs, err = c.QueryStream("SELECT * FROM KV")
			if err != nil {
				return 0, err
			}
		}
		n := 0
		for rs.Next() {
			n++
		}
		return n, rs.Close()
	}
	if n, err := scan(); err != nil || n != rows {
		b.Fatalf("warmup scan: %d rows, err %v", n, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := scan()
		if err != nil {
			b.Fatal(err)
		}
		if n != rows {
			b.Fatalf("scan returned %d rows, want %d", n, rows)
		}
	}
}

func BenchmarkServerScanStreamed(b *testing.B)       { benchScan(b, 2000, false) }
func BenchmarkServerScanStreamedBinary(b *testing.B) { benchScan(b, 2000, true) }
