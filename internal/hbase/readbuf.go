package hbase

import (
	"unsafe"

	"synergy/internal/sim"
)

// ReadBuf is storage a caller lends its point reads and multi-gets (GetInto,
// GetMany): the rows they return are cut from it back to back, so a caller
// that reads many rows and drops them together — a transaction's write path —
// pays for their storage once, not once per row. A row read through it stays
// valid until the caller's Reset, which empties the buffer for its next user:
// nothing read through a ReadBuf may be kept past that but the values and the
// keys, which are the store's and the caller's. A nil *ReadBuf allocates
// every row, as a point read always has, and the caller may keep it for good.
//
// A ReadBuf belongs to one request at a time, like the mutator whose reads it
// serves.
type ReadBuf struct {
	pairs Slab[Pair]      // the rows' pairs
	rows  Slab[RowResult] // GetMany's results
	// The scratch of one multi-get, dead when it returns.
	fetch   []string
	at      []int
	regions []*Region
	forks   []sim.Ctx
}

// maxReadBufKept is the most bytes Reset keeps of any one array of a
// ReadBuf: the rows an ordering-mix transaction reads fit, and one larger
// transaction pins nothing for the next.
const maxReadBufKept = 128 << 10

// Reset empties the buffer for its next user, dropping every reference it
// holds into the store.
func (b *ReadBuf) Reset() {
	b.pairs.Reset(maxReadBufKept / int(unsafe.Sizeof(Pair{})))
	b.rows.Reset(maxReadBufKept / int(unsafe.Sizeof(RowResult{})))
	b.fetch = Emptied(b.fetch, maxReadBufKept)
	b.at = Emptied(b.at, maxReadBufKept)
	b.regions = Emptied(b.regions, maxReadBufKept)
	b.forks = Emptied(b.forks, maxReadBufKept)
}

// rowRoom is the free room of the buffer's slab a row is read into: with
// less, the row gets a list of its own.
const rowRoom = 64

// arena is where the next row's pairs go: the free room of the buffer's slab,
// or nil for a read that allocates its row.
func (b *ReadBuf) arena() Cells {
	if b == nil {
		return nil
	}
	return b.pairs.Free(rowRoom)
}

// grew records the list a read appended its row to: free, the list arena
// returned, grown.
func (b *ReadBuf) grew(free, grown Cells) {
	if b != nil {
		b.pairs.Keep(free, grown)
	}
}

// rowList returns n empty results for a multi-get, cut from the buffer's
// slab, or allocated without a buffer.
func (b *ReadBuf) rowList(n int) []RowResult {
	if b == nil {
		return make([]RowResult, n)
	}
	return b.rows.Take(n)[:n]
}

// regionList returns a list of n regions for a multi-get, the buffer's when
// it has one.
func (b *ReadBuf) regionList(n int) []*Region {
	if b == nil {
		return make([]*Region, n)
	}
	b.regions = append(b.regions[:0], make([]*Region, n)...)
	return b.regions
}

// forkList returns n fresh forks of a request for a multi-get's region
// groups, reusing the buffer's when it has one.
func (b *ReadBuf) forkList(n int) []sim.Ctx {
	if b == nil {
		return make([]sim.Ctx, n)
	}
	if cap(b.forks) < n {
		b.forks = make([]sim.Ctx, n)
	}
	b.forks = b.forks[:n]
	clear(b.forks)
	return b.forks
}

// Slab hands out lists back to back from one block and learns its size: a
// list that does not fit in the block is allocated alone, and Reset sizes the
// next block to hold all that was handed out since the last Reset. A list
// once handed out is never moved or copied, so a user's first round allocates
// what it would without a slab and later rounds of the same size nothing. The
// zero Slab is empty.
type Slab[T any] struct {
	block []T
	used  int // elements handed out since Reset
	want  int // the size of the next block
}

// Take returns an empty list with room for n elements.
func (s *Slab[T]) Take(n int) []T {
	s.used += n
	if s.block == nil && s.want > 0 {
		s.block = make([]T, 0, s.want)
	}
	at := len(s.block)
	if cap(s.block)-at < n {
		return make([]T, 0, n)
	}
	s.block = s.block[:at+n]
	return s.block[at : at : at+n]
}

// Free returns the slab's free room as an empty list for a producer that
// appends one list to it without knowing its length first, or nil when less
// than n is free, which the next block makes room for. Keep records what the
// producer appended.
func (s *Slab[T]) Free(n int) []T {
	if s.block == nil && s.want > 0 {
		s.block = make([]T, 0, s.want)
	}
	if cap(s.block)-len(s.block) < n {
		s.used += n
		return nil
	}
	return s.block[len(s.block):len(s.block)]
}

// Keep records list, which a producer appended to free, Free's list: unless
// the append outgrew free's room and moved the list out of the block, the
// slab hands out the next list after it.
func (s *Slab[T]) Keep(free, list []T) {
	s.used += len(list)
	switch {
	case free == nil:
	case cap(list) == cap(free):
		s.block = s.block[:len(s.block)+len(list)]
	default:
		// What the producer wrote before it outgrew the room is past the
		// block's length, where Reset would not clear it.
		clear(free[:cap(free)])
	}
}

// Reset clears what the slab handed out from its block and readies it for
// its next user: a block too small for what was handed out since the last
// Reset is dropped, and the next Take or Free allocates one that holds it, up
// to max elements.
func (s *Slab[T]) Reset(max int) {
	clear(s.block)
	s.block = s.block[:0]
	if want := min(s.used, max); want > cap(s.block) {
		s.block, s.want = nil, want
	}
	s.used = 0
}
