package occ

import (
	"synergy/internal/hbase"
	"synergy/internal/sim"
)

// Range is one scan's key range in a table's keyspace: [Start, Stop), with ""
// meaning unbounded on that side.
type Range struct {
	Table string
	Start string
	Stop  string
}

// contains reports whether a row key of the range's table falls inside it.
func (r Range) contains(key string) bool {
	if key < r.Start {
		return false
	}
	return r.Stop == "" || key < r.Stop
}

// ReadSet is what a transaction read: point gets by (table, key) and scan
// ranges. Scan ranges — not the rows a scan happened to return — are what
// backward validation compares against committed write sets, so an insert
// into a scanned range (a would-be phantom) conflicts even though the scan
// never saw the row.
type ReadSet struct {
	points map[string]struct{} // "table\x00key"
	ranges []Range
}

// AddPoint records a point read.
func (rs *ReadSet) AddPoint(table, key string) {
	if rs.points == nil {
		rs.points = map[string]struct{}{}
	}
	rs.points[table+"\x00"+key] = struct{}{}
}

// AddRange records a scan range.
func (rs *ReadSet) AddRange(r Range) { rs.ranges = append(rs.ranges, r) }

// Len reports the read-set size (points + ranges), the quantity the
// validation cost model scales with.
func (rs *ReadSet) Len() int { return len(rs.points) + len(rs.ranges) }

// RangeOf derives the read-set range of a scan spec.
func RangeOf(table string, spec hbase.ScanSpec) Range {
	return Range{Table: table, Start: spec.Start, Stop: spec.Stop}
}

// trackingReader wraps a Reader (the transaction's read-your-writes view, or
// a plain store client) so every point get and scan range lands in the read
// set. The phoenix openScan/GetCells choke points read through it, which is
// what makes the captured set complete: SELECT scans, index-nested-loop
// probes, the read-before-write of UPDATE/DELETE and view-maintenance
// locator reads (index probes and their multi-gets) all pass through one of
// its methods.
type trackingReader struct {
	inner hbase.Reader
	rs    *ReadSet
}

// GetInto records a point read.
func (t *trackingReader) GetInto(ctx *sim.Ctx, tbl, key string, opts hbase.ReadOpts, buf *hbase.ReadBuf) (hbase.RowResult, error) {
	t.rs.AddPoint(tbl, key)
	return t.inner.GetInto(ctx, tbl, key, opts, buf)
}

// GetRow records a point read, as GetInto does.
func (t *trackingReader) GetRow(ctx *sim.Ctx, tbl, key string, spec hbase.ScanSpec) (hbase.RowResult, error) {
	t.rs.AddPoint(tbl, key)
	return t.inner.GetRow(ctx, tbl, key, spec)
}

// GetMany records every key as a point read, as that many Gets would.
func (t *trackingReader) GetMany(ctx *sim.Ctx, tbl string, keys []string, opts hbase.ReadOpts, buf *hbase.ReadBuf) ([]hbase.RowResult, error) {
	for _, key := range keys {
		t.rs.AddPoint(tbl, key)
	}
	return t.inner.GetMany(ctx, tbl, keys, opts, buf)
}

// OpenScan records the scan's range and opens it in the caller's scanner
// storage, sc.
func (t *trackingReader) OpenScan(ctx *sim.Ctx, tbl string, spec hbase.ScanSpec, sc *hbase.Scanner) (hbase.RowStream, error) {
	t.rs.AddRange(RangeOf(tbl, spec))
	return t.inner.OpenScan(ctx, tbl, spec, sc)
}
