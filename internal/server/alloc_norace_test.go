//go:build !race

package server

import (
	"fmt"
	"testing"

	"synergy/internal/schema"
)

// TestStreamedScanAllocsFlat holds the streamed result set to O(scan chunk)
// memory, counted in allocations: a SELECT * through the in-process server —
// the server's cursor, encoder and flush buffer plus a client that reads and
// discards every row — may allocate at most one allocation per 100 rows more
// over 20,000 rows than over 2,000. A delivery that buffers or decodes per row
// allocates at least one per row. (The file is not built under -race: the race
// detector makes sync.Pool drop items at random, so a share of the scan's
// pooled chunk buffers would be allocated again.)
func TestStreamedScanAllocsFlat(t *testing.T) {
	allocs := func(rows int) float64 {
		c, err := Dial("inproc", benchScanServer(t, rows), "test", "")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		scan := func() {
			rs, err := c.QueryStream("SELECT * FROM KV")
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for rs.Next() {
				n++
			}
			if err := rs.Close(); err != nil || n != rows {
				t.Fatalf("scan of %d rows returned %d (err %v)", rows, n, err)
			}
		}
		scan() // warm the pools and the connection's scratch
		return testing.AllocsPerRun(5, scan)
	}
	small, large := allocs(2000), allocs(20000)
	t.Logf("streamed SELECT *: %.0f allocations at 2,000 rows, %.0f at 20,000", small, large)
	if extra := large - small; extra > (20000-2000)/100 {
		t.Fatalf("20,000 rows allocate %.0f more than 2,000 (%.0f vs %.0f), bound %d", extra, large, small, (20000-2000)/100)
	}
}

// TestWireRoundTripAllocs pins what one EXECUTE round trip allocates, both
// ends of the wire and the engine under them counted, on a table of two int
// and two string columns: a prepared autocommit UPDATE with two int and two string parameters, and a prepared point SELECT
// whose one row is read as raw bytes. Each is bounded at its measured count
// plus a little slack: the write measures 17, the point read 6. Of the
// write's, the server's decoding makes four: one copy of the string
// parameters, and the boxing of three parameters into schema.Value. The
// EXECUTE encoder, writing into a warmed scratch, allocates nothing.
func TestWireRoundTripAllocs(t *testing.T) {
	var rows []schema.Row
	for i := int64(1); i <= 16; i++ {
		rows = append(rows, schema.Row{"ID": i, "Name": fmt.Sprintf("name-%d", i), "Note": "", "N": i * 300})
	}
	addr := serveTable(t, &schema.Relation{
		Name: "Acct",
		Columns: []schema.Column{
			{Name: "ID", Type: schema.TInt},
			{Name: "Name", Type: schema.TString},
			{Name: "Note", Type: schema.TString},
			{Name: "N", Type: schema.TInt},
		},
		PK: []string{"ID"},
	}, rows)
	c, err := Dial("inproc", addr, "test", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	write, err := c.Prepare("UPDATE Acct SET Name = ?, Note = ?, N = ? WHERE ID = ?")
	if err != nil {
		t.Fatal(err)
	}
	read, err := c.Prepare("SELECT * FROM Acct WHERE ID = ?")
	if err != nil {
		t.Fatal(err)
	}
	wargs := []schema.Value{"renamed", "a longer note", int64(4000), int64(7)}
	rargs := []schema.Value{int64(7)}
	for _, tc := range []struct {
		name  string
		bound float64
		run   func() error
	}{
		{"write", 19, func() error { return write.Exec(wargs...) }},
		{"point-read", 8, func() error {
			rs, err := read.QueryStream(rargs...)
			if err != nil {
				return err
			}
			n := 0
			for rs.Next() {
				n += len(rs.RawBytes())
			}
			if err := rs.Close(); err != nil || n == 0 {
				return fmt.Errorf("point read: %d bytes, err %v", n, err)
			}
			return nil
		}},
	} {
		var err error
		run := func() {
			if e := tc.run(); e != nil && err == nil {
				err = e
			}
		}
		run() // warm the connection's scratches
		got := testing.AllocsPerRun(200, run)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f allocations per round trip", tc.name, got)
		if got > tc.bound {
			t.Errorf("%s allocates %.0f per round trip, bound %.0f", tc.name, got, tc.bound)
		}
	}

	b, _ := appendExecute(nil, 1, wargs)
	if got := testing.AllocsPerRun(100, func() { b, _ = appendExecute(b[:0], 1, wargs) }); got != 0 {
		t.Errorf("the EXECUTE encoder allocates %.0f into a warmed scratch, want 0", got)
	}
}
