package hbase

// chunkBuf is the unit of scan memory: one scanner chunk's worth of
// materialized rows plus the single []Pair arena every row's Cells is a
// window into. The pair is what turns the read path's per-row allocations
// into per-chunk ones — Region.scanChunk fills one chunkBuf per scanner RPC
// (the row read kernels append each row's visible pairs to the shared arena),
// and the buffer cycles through the Client's chunkPool once the consumer
// releases it.
//
// Ownership protocol (the release points that make pooling safe under the
// Cells lifetime rule): a Scanner owns one chunk, which the consumer refills
// in place from one region or unit after another — each refill is a Next
// call, which is exactly when previously returned rows become invalid. The
// chunk returns to the pool at exhaustion or Close; a Next that returns the
// limit-th row keeps it, since that row still lives in it, until Close.
type chunkBuf struct {
	rows  []RowResult
	arena Cells
	// dirty is the arena's high-water mark since the last reset: pairs up to
	// it may hold references. It can lie beyond len(arena) — a row the filter
	// drops hands its pairs back — so len alone does not bound what a fill
	// wrote; rows needs no mark, whoever pops a row zeroes it (readChunk).
	dirty int
}

// wrote records that a row read has grown the arena to its current length.
func (b *chunkBuf) wrote() { b.dirty = max(b.dirty, len(b.arena)) }

// reset drops every row and value reference while keeping both backing
// arrays at capacity. It clears what the fills since the last reset wrote,
// not the capacity: a buffer that once served a thousand wide rows costs a
// point read that borrows it one row's worth of clearing.
func (b *chunkBuf) reset() {
	clear(b.rows)
	b.rows = b.rows[:0]
	clear(b.arena[:b.dirty])
	b.arena, b.dirty = b.arena[:0], 0
}
