package hbase

import (
	"encoding/binary"
	"slices"
	"strings"
)

// blockSize bounds a store file data block (HBase's default HFile block
// size). Rows never straddle blocks: a row that does not fit the open block
// starts the next one, and a row larger than a block gets a block to itself.
// It is a constant, not a knob, because it is also the unit of value
// lifetime — a Pair.Value handed out by a read is a window into one block,
// so retaining it pins at most that block, never the whole file.
const blockSize = 64 << 10

// rowUniform flags a row body whose cells are one TypePut per non-empty
// qualifier, all at one non-negative timestamp — every bulk-loaded or
// compacted single-version row. The timestamp is then stored once and the
// read kernel decides visibility once per row.
const rowUniform = 1

// hfile is an immutable, sorted store file produced by a memstore flush, a
// bulk load or a compaction — always by hfileBuilder. It is the packed
// counterpart of a []Cell per row: no field below is a per-row or per-cell
// pointer, so a resident file costs the garbage collector one mark per
// block, not one per cell.
//
//   - keys: every row key concatenated in sort order; key i is
//     keys[keyOff[i]:keyOff[i+1]] (a substring, no allocation), so seek is
//     a binary search over keyOff.
//   - blocks: row bodies in blocks of at most blockSize bytes (see
//     hfileBuilder.add for the body layout); row i starts at rowOff[i]
//     within the block b for which blockRow[b] <= i < blockRow[b+1].
//   - dict: the file's qualifier dictionary; cell headers carry indexes
//     into it, so a qualifier string is stored once per file.
//
// A region split hands each daughter the parent's file with a narrower
// [lo, hi) row window; the arrays and blocks stay shared.
type hfile struct {
	dict     []string
	keys     string
	keyOff   []uint32
	rowOff   []uint16
	blockRow []uint32
	blocks   [][]byte
	lo, hi   int
	// size is the KeyValue-format footprint (Σ KVSize) of the rows in the
	// window, recorded when the file is built so Region.sizeBytes never
	// walks store files.
	size int64
	// uniform records that every row the builder was given is rowUniform.
	uniform bool
}

// compacted reports whether a major compaction of this file alone would
// write it back as it is: only uniform rows, and the window the whole file,
// not the share of it a split left a daughter.
func (f *hfile) compacted() bool { return f.uniform && f.lo == 0 && f.hi == len(f.rowOff) }

func (f *hfile) len() int { return f.hi - f.lo }

func (f *hfile) key(i int) string { return f.keys[f.keyOff[i]:f.keyOff[i+1]] }

// keyBytes is the total key length of the window.
func (f *hfile) keyBytes() int { return int(f.keyOff[f.hi] - f.keyOff[f.lo]) }

// seek returns the first row of the window with key >= key (f.hi if none).
func (f *hfile) seek(key string) int {
	lo, hi := f.lo, f.hi
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.key(mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// blockOf returns the block holding row i.
func (f *hfile) blockOf(i int) int {
	lo, hi := 0, len(f.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(f.blockRow[mid+1]) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// row returns the packed body of row i, which lives in block blk.
func (f *hfile) row(i, blk int) packedRow {
	return packedRow{file: f, body: f.blocks[blk][f.rowOff[i]:]}
}

// find returns the packed body of the row stored under key.
func (f *hfile) find(key string) (packedRow, bool) {
	i := f.seek(key)
	if i < f.hi && f.key(i) == key {
		return f.row(i, f.blockOf(i)), true
	}
	return packedRow{}, false
}

// split cuts the window at key: rows below it go left, the rest right. A
// side with no rows is nil. The KeyValue footprint of the left side is
// recounted (a split is rare and already rewrites the region map); the right
// side is the remainder.
func (f *hfile) split(key string) (left, right *hfile) {
	cut := f.seek(key)
	switch cut {
	case f.lo:
		return nil, f
	case f.hi:
		return f, nil
	}
	l, r := *f, *f
	l.hi, r.lo = cut, cut
	l.size = 0
	var cells []Cell
	for i, blk := f.lo, f.blockOf(f.lo); i < cut; i++ {
		if i >= int(f.blockRow[blk+1]) {
			blk++
		}
		key := f.key(i)
		cells = f.row(i, blk).appendCells(cells[:0])
		for _, c := range cells {
			l.size += KVSize(key, c)
		}
	}
	r.size = f.size - l.size
	return &l, &r
}

// packedRow is one encoded row body inside a store file block: the bytes
// from the row's first byte to the end of its block (the encoding is
// self-delimiting) and the file whose dictionary its qualifier ids index.
type packedRow struct {
	file *hfile
	body []byte
}

// uvarint decodes the unsigned varint at body[off:], returning the value and
// the offset past it. Qualifier ids and most value lengths fit one byte.
func uvarint(body []byte, off int) (uint64, int) {
	if c := body[off]; c < 0x80 {
		return uint64(c), off + 1
	}
	v, n := binary.Uvarint(body[off:])
	return v, off + n
}

// value decodes the length-prefixed value at body[off:]. The stored length
// is len+1, with 0 standing for a nil value, so nil and empty round-trip
// exactly. The returned slice is capacity-clipped: appending to a value
// handed out by a read can never write into the block.
func value(body []byte, off int) ([]byte, int) {
	n, off := uvarint(body, off)
	if n == 0 {
		return nil, off
	}
	end := off + int(n) - 1
	return body[off:end:end], end
}

// uniformCell decodes one cell entry of a uniform row — uvarint(qual-id)
// value — taking both one-byte headers in a single test.
func uniformCell(body []byte, off int) (id uint64, v []byte, next int) {
	id, n := uint64(body[off]), uint64(body[off+1])
	if id|n < 0x80 {
		off += 2
	} else { // a two-byte id, or a value of 127 bytes and up
		id, off = uvarint(body, off)
		n, off = uvarint(body, off)
	}
	if n == 0 {
		return id, nil, off
	}
	end := off + int(n) - 1
	return id, body[off:end:end], end
}

// generalCell decodes one cell entry of a non-uniform row — uvarint(qual-id)
// varint(ts) type value.
func generalCell(body []byte, off int) (id uint64, ts int64, typ CellType, v []byte, next int) {
	id, off = uvarint(body, off)
	ts, n := binary.Varint(body[off:])
	typ = CellType(body[off+n])
	v, next = value(body, off+n+1)
	return id, ts, typ, v, next
}

// readInto is rowData.readInto over the packed form, with the same contract:
// the row's latest visible value per qualifier is appended to dst and
// returned both as the extended arena and as the row's capacity-clipped
// window (nil when nothing is visible). Values are windows into the block.
//
// A uniform row takes the fast path — one visibility check, then a straight
// emit loop with no version, tombstone or qualifier-group logic. Any other
// row streams through the same newest-visible-version resolution as
// rowData.readInto, cell by cell, without materializing a []Cell.
//
// want, when non-nil, keeps the read to the cells whose dictionary id it holds
// true (ColumnSet.in); the others are stepped over by their length.
//
//cellsvet:owner
func (p packedRow) readInto(dst Cells, opts ReadOpts, want []bool) (arena, row Cells) {
	body, dict := p.body, p.file.dict
	start := len(dst)
	if body[0]&rowUniform != 0 {
		ts, n := binary.Varint(body[1:])
		cnt, off := uvarint(body, 1+n)
		if !opts.visible(ts) {
			return dst, nil
		}
		dst = slices.Grow(dst, int(cnt))
		for ; cnt > 0; cnt-- {
			var id uint64
			var v []byte
			id, v, off = uniformCell(body, off)
			if want == nil || want[id] {
				dst = append(dst, Pair{Qualifier: dict[id], Value: v})
			}
		}
		if len(dst) == start {
			return dst, nil
		}
		return dst, dst[start:len(dst):len(dst)]
	}

	cnt, off := uvarint(body, 1)
	quals, off := uvarint(body, off)
	// rowDel is the newest visible row tombstone; settled marks a qualifier
	// group whose newest visible cell has been seen (emitted or hidden).
	rowDel, rowDelSeen := int64(-1), false
	group, settled := ^uint64(0), false
	var q string
	for ; cnt > 0; cnt-- {
		id, ts, typ, v, next := generalCell(body, off)
		off = next
		if id != group {
			group, q, settled = id, dict[id], false
		}
		if q == "" {
			if !rowDelSeen && typ == TypeDeleteRow && opts.visible(ts) {
				rowDel, rowDelSeen = ts, true
			}
			continue
		}
		if settled || !opts.visible(ts) || want != nil && !want[id] {
			continue
		}
		settled = true
		if typ == TypeDeleteCol || ts <= rowDel {
			continue // hidden by a column or row tombstone, with everything older
		}
		if dst == nil {
			dst = make(Cells, 0, quals)
		}
		dst = append(dst, Pair{Qualifier: q, Value: v})
	}
	if len(dst) == start {
		return dst, nil
	}
	return dst, dst[start:len(dst):len(dst)]
}

// appendCells decodes every cell of the row onto dst, in stored (cellLess)
// order — the form the mutable paths work on: multi-part merges, compaction,
// split recounts.
func (p packedRow) appendCells(dst []Cell) []Cell {
	body, dict := p.body, p.file.dict
	if body[0]&rowUniform != 0 {
		ts, n := binary.Varint(body[1:])
		cnt, off := uvarint(body, 1+n)
		dst = slices.Grow(dst, int(cnt))
		for ; cnt > 0; cnt-- {
			var id uint64
			var v []byte
			id, v, off = uniformCell(body, off)
			dst = append(dst, Cell{Qualifier: dict[id], Value: v, TS: ts})
		}
		return dst
	}
	cnt, off := uvarint(body, 1)
	_, off = uvarint(body, off)
	dst = slices.Grow(dst, int(cnt))
	for ; cnt > 0; cnt-- {
		id, ts, typ, v, next := generalCell(body, off)
		off = next
		dst = append(dst, Cell{Qualifier: dict[id], Value: v, TS: ts, Type: typ})
	}
	return dst
}

// hfileBuilder is the one encoder of store files: BulkLoad, memstore flushes
// and major compaction all feed it rows in ascending key order and take the
// finished file.
type hfileBuilder struct {
	f    hfile
	keys strings.Builder
	// cur is the open block. It is one reusable buffer: sealing copies the
	// finished block out at its exact size, so a file holds no slack and a
	// small flush never allocates a full block.
	cur []byte
	ids map[string]uint32
	// hint remembers the qualifier and id at each cell position of the
	// previous row. Rows of one table repeat the same qualifier sequence, so
	// the id of cell i is almost always hint[i].id — one string compare
	// (pointer-equal in the common case) instead of a map lookup per cell.
	hint []qualID
}

type qualID struct {
	qualifier string
	id        uint32
}

// newHFileBuilder sizes the key string and the per-row indexes for rows rows
// totalling keyBytes of keys (upper bounds are fine: finish trims).
func newHFileBuilder(rows, keyBytes int) *hfileBuilder {
	b := &hfileBuilder{ids: make(map[string]uint32)}
	b.f.uniform = true
	b.keys.Grow(keyBytes)
	b.f.keyOff = make([]uint32, 0, rows+1)
	b.f.rowOff = make([]uint16, 0, rows)
	return b
}

func (b *hfileBuilder) id(pos int, qualifier string) uint32 {
	if pos < len(b.hint) && b.hint[pos].qualifier == qualifier {
		return b.hint[pos].id
	}
	id, ok := b.ids[qualifier]
	if !ok {
		id = uint32(len(b.f.dict))
		b.f.dict = append(b.f.dict, qualifier)
		b.ids[qualifier] = id
	}
	if pos < len(b.hint) {
		b.hint[pos] = qualID{qualifier, id}
	} else if pos == len(b.hint) {
		b.hint = append(b.hint, qualID{qualifier, id})
	}
	return id
}

// add appends one row. Keys must arrive in strictly ascending order and
// cells in cellLess order (same-coordinate duplicates allowed, as merges
// leave them). The row body is
//
//	flags
//	uniform:  varint(ts) uvarint(ncells) { uvarint(qual-id) value }*
//	general:  uvarint(ncells) uvarint(nquals) { uvarint(qual-id) varint(ts) type value }*
//
// with value = uvarint(len+1 | 0 for nil) bytes — general enough for
// multi-version MVCC rows and both tombstone kinds, two header bytes per
// cell for the single-version rows that make up a loaded database.
func (b *hfileBuilder) add(key string, cells []Cell) {
	if b.keys.Len()+len(key) > 1<<32-1 {
		panic("hbase: store file row keys exceed 4 GiB")
	}
	row := len(b.f.rowOff)
	b.f.keyOff = append(b.f.keyOff, uint32(b.keys.Len()))
	b.keys.WriteString(key)

	// Rows stamped below zero stay on the general path, which keeps
	// rowData.readInto's "no row tombstone" sentinel of -1 to the letter.
	uniform := len(cells) > 0 && cells[0].TS >= 0
	quals := 0
	for i := range cells {
		c := &cells[i]
		if i == 0 || c.Qualifier != cells[i-1].Qualifier {
			quals++
		} else {
			uniform = false
		}
		if c.Type != TypePut || c.TS != cells[0].TS || c.Qualifier == "" {
			uniform = false
		}
	}

	b.f.uniform = b.f.uniform && uniform

	start := len(b.cur)
	buf := b.cur
	if uniform {
		buf = append(buf, rowUniform)
		buf = binary.AppendVarint(buf, cells[0].TS)
		buf = binary.AppendUvarint(buf, uint64(len(cells)))
	} else {
		buf = append(buf, 0)
		buf = binary.AppendUvarint(buf, uint64(len(cells)))
		buf = binary.AppendUvarint(buf, uint64(quals))
	}
	for i := range cells {
		c := &cells[i]
		buf = binary.AppendUvarint(buf, uint64(b.id(i, c.Qualifier)))
		if !uniform {
			buf = binary.AppendVarint(buf, c.TS)
			buf = append(buf, byte(c.Type))
		}
		if c.Value == nil {
			buf = append(buf, 0)
		} else {
			buf = binary.AppendUvarint(buf, uint64(len(c.Value))+1)
			buf = append(buf, c.Value...)
		}
		b.f.size += KVSize(key, *c)
	}
	b.cur = buf
	if len(b.cur) > blockSize && start > 0 {
		// The row does not fit the open block: seal what came before it and
		// make it the first row of the next block.
		b.seal(start)
		start = 0
	}
	if start == 0 {
		b.f.blockRow = append(b.f.blockRow, uint32(row))
	}
	b.f.rowOff = append(b.f.rowOff, uint16(start))
}

// seal closes the open block at n bytes and moves any bytes past n (a row
// that overflowed it) to the front of the next block.
func (b *hfileBuilder) seal(n int) {
	b.f.blocks = append(b.f.blocks, slices.Clone(b.cur[:n]))
	b.cur = b.cur[:copy(b.cur, b.cur[n:])]
}

// finish seals the last block and returns the file — a copy, so the file
// does not keep the builder's block buffer and id map reachable. The builder
// must not be used afterwards.
func (b *hfileBuilder) finish() *hfile {
	if len(b.cur) > 0 {
		b.seal(len(b.cur))
	}
	f := new(hfile)
	*f = b.f
	f.keys = b.keys.String()
	f.keyOff = append(f.keyOff, uint32(len(f.keys)))
	f.blockRow = append(f.blockRow, uint32(len(f.rowOff)))
	f.hi = len(f.rowOff)
	if rows := f.hi; cap(f.rowOff) > rows+rows/8 {
		// Sized from an upper bound (a compaction that dropped rows): trim
		// the key string and the per-row indexes to what the file holds.
		f.keys = strings.Clone(f.keys)
		f.keyOff = slices.Clone(f.keyOff)
		f.rowOff = slices.Clone(f.rowOff)
	}
	return f
}
