package phoenix

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
)

// Value cell encoding: one type-tag byte followed by the payload. NULLs are
// stored as absent cells, as Phoenix does.
const (
	tagInt    = 'i'
	tagFloat  = 'f'
	tagString = 's'
)

// coerce gives a constant the kind its column declares: an integral float
// bound to an INT column is the integer, an integer bound to a FLOAT column the
// float (and -0 is 0). Writes store what it returns and every key is built from
// it, so a column holds one kind, a key column one key tag, and a constant
// finds the rows it equals however the client typed it (a driver that binds
// every number as a DOUBLE, a literal 5.0). NULL passes. ok is false for a
// value the column cannot hold — a fraction or a string for an INT, a number
// for a STRING — which equals nothing stored there; it comes back as it was.
func coerce(t schema.ColType, a schema.Arg) (schema.Arg, bool) {
	switch a.Kind() {
	case schema.ArgNull:
		return a, true
	case schema.ArgInt:
		if t == schema.TFloat {
			return schema.FloatArg(float64(a.Int())), true
		}
		return a, t == schema.TInt
	case schema.ArgFloat:
		x := a.Float()
		switch {
		case t == schema.TInt && x >= -1<<63 && x < 1<<63 && x == math.Trunc(x):
			return schema.IntArg(int64(x)), true
		case t == schema.TFloat && x == 0:
			return schema.FloatArg(0), true
		}
		return a, t == schema.TFloat
	default:
		return a, t == schema.TString
	}
}

// EncodeValue renders a typed value into cell bytes.
func EncodeValue(v schema.Value) []byte {
	a := mustArg(v)
	if a.Kind() == schema.ArgNull {
		return nil
	}
	return AppendArg(make([]byte, 0, encodedLen(a)), a)
}

// encodedLen is the size of a non-NULL value's cell encoding.
func encodedLen(a schema.Arg) int {
	if a.Kind() == schema.ArgString {
		return 1 + len(a.Str())
	}
	return 9
}

// AppendValue appends a value's cell encoding to buf, nothing for NULL.
func AppendValue(buf []byte, v schema.Value) []byte { return AppendArg(buf, mustArg(v)) }

// AppendArg appends a value's cell encoding to buf, nothing for NULL: the one
// cell encoder, which AppendValue feeds boxed values.
func AppendArg(buf []byte, a schema.Arg) []byte {
	switch a.Kind() {
	case schema.ArgInt:
		return appendIntCell(buf, a.Int())
	case schema.ArgFloat:
		return appendFloatCell(buf, a.Float())
	case schema.ArgString:
		return append(append(buf, tagString), a.Str()...)
	default:
		return buf
	}
}

// mustArg unboxes a value bound for a cell.
func mustArg(v schema.Value) schema.Arg {
	a, ok := schema.ArgOf(v)
	if !ok {
		panic(fmt.Sprintf("phoenix: unencodable value %T", v))
	}
	return a
}

func appendIntCell(buf []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, tagInt), uint64(x))
}

func appendFloatCell(buf []byte, x float64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, tagFloat), math.Float64bits(x))
}

// DecodeValue parses cell bytes back into a typed value.
func DecodeValue(b []byte) schema.Value {
	if len(b) == 0 {
		return nil
	}
	switch b[0] {
	case tagInt:
		return int64(binary.BigEndian.Uint64(b[1:]))
	case tagFloat:
		return math.Float64frombits(binary.BigEndian.Uint64(b[1:]))
	case tagString:
		return string(b[1:])
	default:
		panic(fmt.Sprintf("phoenix: bad value tag %q", b[0]))
	}
}

// RowToCells encodes a row's non-nil attributes as cells, in qualifier order —
// the order the store keeps a row in and returns it in, so an encoded row
// merges, keys (AppendKeyOfCells) and bulk-loads without a search per cell.
// The values of one row are windows into one buffer, each clipped to its own
// bytes: a stored row costs one value allocation instead of one per column (a
// 9-byte number alone would occupy a 16-byte block), and like every cell value
// they are immutable once handed to the store. It sorts the row's own
// columns; TableInfo.EncodeRows encodes a table's rows in the order the
// catalog sorted once.
func RowToCells(row schema.Row) []hbase.Cell {
	var e rowEncoder
	return e.encode(slices.Sorted(maps.Keys(row)), row)
}

// EncodeRows encodes rows of t into dst, dst[i] what RowToCells makes of
// rows[i], in t's sorted column order; a row that carries a column t lacks is
// RowToCells' to order. The rows' cells and values are cut from shared
// blocks, so an encoded row costs no allocation of its own; its cells and
// values are capped at their own length.
func (t *TableInfo) EncodeRows(dst [][]hbase.Cell, rows []schema.Row) {
	e := rowEncoder{cellBlock: encodeBlockCells, byteBlock: encodeBlockBytes}
	for i, row := range rows {
		dst[i] = e.encode(t.quals, row)
	}
}

// rowEncoder is the one row encoder. It cuts rows from blocks of at least
// cellBlock cells and byteBlock value bytes; at zero, a row's exact size.
type rowEncoder struct {
	cellBlock, byteBlock int
	cells                []hbase.Cell
	buf                  []byte
	vals                 []schema.Value // the row being encoded, in qualifier order
	size                 int            // its values' encoded bytes
}

const (
	encodeBlockCells = 4096
	encodeBlockBytes = 64 << 10
)

// gather reads row's values under quals into vals and reports whether they
// are all of row's columns.
func (e *rowEncoder) gather(quals []string, row schema.Row) bool {
	e.vals, e.size = e.vals[:0], 0
	present := 0
	for _, q := range quals {
		v, ok := row[q]
		if ok {
			present++
		}
		e.vals = append(e.vals, v)
		if v != nil {
			e.size += encodedLen(mustArg(v))
		}
	}
	return present == len(row)
}

// encode cuts the cells of row's non-nil values in the order of quals, which
// are sorted, or in its own sorted column order if quals lack one of them.
func (e *rowEncoder) encode(quals []string, row schema.Row) []hbase.Cell {
	if !e.gather(quals, row) {
		quals = slices.Sorted(maps.Keys(row))
		e.gather(quals, row)
	}
	if n := len(row); cap(e.cells)-len(e.cells) < n {
		e.cells = make([]hbase.Cell, 0, max(n, e.cellBlock))
	}
	if cap(e.buf)-len(e.buf) < e.size {
		e.buf = make([]byte, 0, max(e.size, e.byteBlock))
	}
	start := len(e.cells)
	for i, v := range e.vals {
		if v == nil {
			continue
		}
		at := len(e.buf)
		e.buf = AppendValue(e.buf, v)
		e.cells = append(e.cells, hbase.Cell{Qualifier: quals[i], Value: e.buf[at:len(e.buf):len(e.buf)]})
	}
	return e.cells[start:len(e.cells):len(e.cells)]
}

// AppendRowCells is CellsToRow without the decoding: it appends a stored row's
// attribute cells to dst, marker columns (leading underscore) dropped,
// qualifier order kept, value bytes shared with the store.
func AppendRowCells(dst []hbase.Cell, res hbase.RowResult) []hbase.Cell {
	dst = slices.Grow(dst, len(res.Cells))
	for _, p := range res.Cells {
		if len(p.Qualifier) > 0 && p.Qualifier[0] == '_' {
			continue
		}
		dst = append(dst, hbase.Cell{Qualifier: p.Qualifier, Value: p.Value})
	}
	return dst
}

// GetCells reads the row under key through r — the store client, a
// transaction's read-your-writes view, an OCC transaction's tracking reader —
// and returns its attribute cells (AppendRowCells), nil for a row that has
// none. It is the point read of the write path: what it returns is keyed,
// merged and put back without decoding a value. The row read and the cells
// returned are cut from sc.
func GetCells(ctx *sim.Ctx, r hbase.Reader, table, key string, read hbase.ReadOpts, sc *WriteScratch) ([]hbase.Cell, error) {
	res, err := r.GetInto(ctx, table, key, read, sc.ReadBuf())
	if err != nil || res.Empty() {
		return nil, err
	}
	return AppendRowCells(sc.Cells(len(res.Cells)), res), nil
}

// MergeCells appends to dst the qualifier-ordered union of two encoded rows,
// over's cell where both carry a qualifier. It is the one row merge of the
// write path and of population: a view row is its parent row under the child's
// (a schema's attribute names are unique, so they share none), an updated row
// is the stored row under the assignment — whose column tombstones (a NULL
// assignment) take the stored cell away and leave none.
func MergeCells(dst, under, over []hbase.Cell) []hbase.Cell {
	for len(under) > 0 && len(over) > 0 {
		c := strings.Compare(under[0].Qualifier, over[0].Qualifier)
		if c < 0 {
			dst, under = append(dst, under[0]), under[1:]
			continue
		}
		if c == 0 {
			under = under[1:]
		}
		if over[0].Type == hbase.TypePut {
			dst = append(dst, over[0])
		}
		over = over[1:]
	}
	dst = append(dst, under...)
	for _, c := range over {
		if c.Type == hbase.TypePut {
			dst = append(dst, c)
		}
	}
	return dst
}

// appendKeyPart appends the key part of one encoded value — the bytes
// schema.EncodeKey gives the decoded value, through the same per-type
// appenders — preceded by the separator when buf already holds a part. An
// empty value is a NULL part; null reports that.
func appendKeyPart(buf, v []byte) (key []byte, null bool) {
	if len(buf) > 0 {
		buf = append(buf, schema.KeySep)
	}
	switch RawCellKind(v) {
	case CellInt:
		return schema.AppendKeyInt(buf, RawCellInt(v)), false
	case CellFloat:
		return schema.AppendKeyFloat(buf, RawCellFloat(v)), false
	case CellString:
		return schema.AppendKeyString(buf, RawCellBytes(v)), false
	default:
		return schema.AppendKeyNull(buf), true
	}
}

// AppendKeyOfCells appends to buf the row key an encoded row (cells in
// qualifier order) has over cols, continuing the key buf already holds. It is
// the write path's one key builder — row keys, index keys, foreign keys, lock
// keys. An absent cell is a NULL part; null reports whether there was one.
func AppendKeyOfCells(buf []byte, cells []hbase.Cell, cols []string) (key []byte, null bool) {
	for _, col := range cols {
		var v []byte
		if i, ok := slices.BinarySearchFunc(cells, col, func(c hbase.Cell, q string) int { return strings.Compare(c.Qualifier, q) }); ok {
			v = cells[i].Value
		}
		var n bool
		buf, n = appendKeyPart(buf, v)
		null = null || n
	}
	return buf, null
}

// AppendKeyOfRow is AppendKeyOfCells over a row as a read returns it, for
// keys compared or taken where the row is read (a scan filter, a maintenance
// index entry) without copying its cells first.
func AppendKeyOfRow(buf []byte, row hbase.Cells, cols []string) []byte {
	for _, col := range cols {
		buf, _ = appendKeyPart(buf, row.Get(col))
	}
	return buf
}

// AppendIndexKey appends the key of the entry a row (cells in qualifier order)
// has in index idx of table t: the indexed columns, then the table's key.
func AppendIndexKey(buf []byte, t *TableInfo, idx *IndexInfo, cells []hbase.Cell) []byte {
	buf, _ = AppendKeyOfCells(buf, cells, idx.On)
	buf, _ = AppendKeyOfCells(buf, cells, t.Key)
	return buf
}

// IndexCells returns the cells an index entry stores for a row whose own
// cells (qualifier order) are already encoded. A covered index stores the
// row's attributes unchanged, so its entry is the row's cell slice itself —
// cells are immutable once encoded, and the store copies what it stamps; a
// key-only index keeps just its key attributes, value bytes shared, in a list
// cut from sc.
func IndexCells(t *TableInfo, idx *IndexInfo, cells []hbase.Cell, sc *WriteScratch) []hbase.Cell {
	if !idx.KeyOnly {
		return cells
	}
	out := sc.Cells(len(idx.On) + len(t.Key))
	for _, c := range cells {
		if slices.Contains(idx.On, c.Qualifier) || slices.Contains(t.Key, c.Qualifier) {
			out = append(out, c)
		}
	}
	return out
}

// CellsToRow decodes a stored row back into typed attributes. Marker columns
// (leading underscore) are skipped. The pair slice arrives sorted by
// qualifier, so this is a single ordered pass.
func CellsToRow(res hbase.RowResult) schema.Row {
	row := make(schema.Row, len(res.Cells))
	for i := range res.Cells {
		q := res.Cells[i].Qualifier
		if len(q) > 0 && q[0] == '_' {
			continue
		}
		row[q] = DecodeValue(res.Cells[i].Value)
	}
	return row
}

// CellKind classifies an encoded cell value by its type tag, letting wire
// encoders branch on the stored type without decoding (and, for strings,
// without allocating).
type CellKind byte

// Cell kinds. CellNull covers empty (absent) values.
const (
	CellNull   CellKind = 0
	CellInt    CellKind = tagInt
	CellFloat  CellKind = tagFloat
	CellString CellKind = tagString
)

// RawCellKind reports the kind of an encoded cell value.
func RawCellKind(b []byte) CellKind {
	if len(b) == 0 {
		return CellNull
	}
	switch b[0] {
	case tagInt:
		return CellInt
	case tagFloat:
		return CellFloat
	case tagString:
		return CellString
	default:
		return CellNull
	}
}

// RawCellInt decodes an int-tagged cell value. Callers must have checked
// RawCellKind.
func RawCellInt(b []byte) int64 { return int64(binary.BigEndian.Uint64(b[1:])) }

// RawCellFloat decodes a float-tagged cell value. Callers must have checked
// RawCellKind.
func RawCellFloat(b []byte) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b[1:])) }

// RawCellBytes returns a string-tagged cell value's payload without copying.
// The bytes are store-owned and immutable; callers must not modify them.
func RawCellBytes(b []byte) []byte { return b[1:] }

// IsDirty reports whether a stored row carries the Synergy dirty marker.
func IsDirty(res hbase.RowResult) bool {
	v := res.Cells.Get(DirtyQualifier)
	return len(v) > 0 && v[len(v)-1] == '1'
}
