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
// and two string columns: a prepared autocommit UPDATE with two int and two
// string parameters, and a prepared point SELECT whose one row is read as raw
// bytes. Each is bounded at its measured count plus one: the write measures 3,
// the point read 1. The server's decoding makes none: the parameters are
// decoded unboxed (schema.Arg), and the string parameters and the read's key
// range are cut from the session's string block. They measured 4 and 2 when
// each EXECUTE copied its strings into a string of its own and each execution
// its key range, the write 7 when decoding boxed each parameter but an int
// below 256 into a schema.Value, and 17 and 6 before the write unit recycled
// its scratch and the plan its block. The EXECUTE encoder, writing into a
// warmed scratch, allocates nothing.
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
		{"write", 4, func() error { return write.Exec(wargs...) }},
		{"point-read", 2, func() error {
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

// TestExecuteAllocsFlatInParams: an EXECUTE's parameters cost it nothing,
// however many it binds, since its string parameters are cut from the
// session's string block. A prepared point SELECT whose extra parameters are
// filter constants, and a prepared autocommit UPDATE whose extra parameters
// are assigned values, each run at 1, 4 and 8 parameters — never NULL, ints
// above 255 (which a boxed schema.Value would allocate), floats and strings, a
// string at every width — and allocate the same count at every width, both
// ends of the wire and the engine counted: the read 1, the write 3, each
// bounded at that. They measured 3 and 4 when an EXECUTE copied its strings
// into a string of its own and each execution its key range.
func TestExecuteAllocsFlatInParams(t *testing.T) {
	var rows []schema.Row
	for i := int64(1); i <= 16; i++ {
		rows = append(rows, schema.Row{"K": fmt.Sprintf("key-%02d", i), "N1": 1000 + i, "N2": 2000 + i, "N3": 3000 + i,
			"F1": float64(i) + 0.5, "F2": float64(i) + 0.25, "S1": fmt.Sprintf("s1-%d", i), "S2": fmt.Sprintf("s2-%d", i)})
	}
	cols := []schema.Column{{Name: "K", Type: schema.TString}}
	for _, c := range []string{"N1", "N2", "N3"} {
		cols = append(cols, schema.Column{Name: c, Type: schema.TInt})
	}
	for _, c := range []string{"F1", "F2"} {
		cols = append(cols, schema.Column{Name: c, Type: schema.TFloat})
	}
	for _, c := range []string{"S1", "S2"} {
		cols = append(cols, schema.Column{Name: c, Type: schema.TString})
	}
	addr := serveTable(t, &schema.Relation{Name: "Wide", Columns: cols, PK: []string{"K"}}, rows)
	c, err := Dial("inproc", addr, "test", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every filter holds for key-07, so each width reads the same row.
	reads := []struct {
		sql  string
		args []schema.Value
	}{
		{"SELECT * FROM Wide WHERE K = ?", []schema.Value{"key-07"}},
		{"SELECT * FROM Wide WHERE K = ? AND N1 >= ? AND F1 <= ? AND S1 <> ?",
			[]schema.Value{"key-07", int64(300), 1e9, "none"}},
		{"SELECT * FROM Wide WHERE K = ? AND N1 >= ? AND F1 <= ? AND S1 <> ? AND N2 < ? AND F2 > ? AND S2 >= ? AND N3 <> ?",
			[]schema.Value{"key-07", int64(300), 1e9, "none", int64(1 << 40), -2.5, "a", int64(999)}},
	}
	writes := []struct {
		sql  string
		args []schema.Value
	}{
		{"UPDATE Wide SET N1 = 5 WHERE K = ?", []schema.Value{"key-09"}},
		{"UPDATE Wide SET N1 = ?, F1 = ?, S1 = ? WHERE K = ?",
			[]schema.Value{int64(4000), 7.25, "renamed", "key-09"}},
		{"UPDATE Wide SET N1 = ?, N2 = ?, N3 = ?, F1 = ?, F2 = ?, S1 = ?, S2 = ? WHERE K = ?",
			[]schema.Value{int64(4000), int64(5000), int64(6000), 7.25, 8.5, "renamed", "also renamed", "key-09"}},
	}
	measure := func(sql string, args []schema.Value, read bool) float64 {
		t.Helper()
		st, err := c.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		run := func() {
			if !read {
				err = st.Exec(args...)
				return
			}
			rs, qerr := st.QueryStream(args...)
			if qerr != nil {
				err = qerr
				return
			}
			n := 0
			for rs.Next() {
				n++
			}
			if cerr := rs.Close(); cerr != nil || n != 1 {
				err = fmt.Errorf("%s: %d rows, err %v", sql, n, cerr)
			}
		}
		run() // warm the connection's scratches and the plan's block
		got := testing.AllocsPerRun(200, run)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d params: %.0f allocations per round trip of %s", len(args), got, sql)
		return got
	}
	for _, kind := range []struct {
		name  string
		read  bool
		bound float64
		cases []struct {
			sql  string
			args []schema.Value
		}
	}{{"point read", true, 1, reads}, {"write", false, 3, writes}} {
		base := measure(kind.cases[0].sql, kind.cases[0].args, kind.read)
		if base > kind.bound {
			t.Errorf("%s: 1 param allocates %.0f per round trip, bound %.0f", kind.name, base, kind.bound)
		}
		for _, tc := range kind.cases[1:] {
			if got := measure(tc.sql, tc.args, kind.read); got != base {
				t.Errorf("%s: %d params allocate %.0f per round trip, 1 param %.0f", kind.name, len(tc.args), got, base)
			}
		}
	}
}
