package hbase

// chunkBuf is the unit of scan memory: one scanner chunk's worth of
// materialized rows plus the single []Pair arena every row's Cells is a
// window into. The pair is what turns the read path's per-row allocations
// into per-chunk ones — Region.scanChunk fills one chunkBuf per scanner RPC
// (the row read kernels append each row's visible pairs to the shared arena),
// and the buffer cycles through a Client-owned sync.Pool once the consumer
// releases it.
//
// Ownership protocol (the release points that make pooling safe under the
// Cells lifetime rule):
//
//   - the sequential Scanner owns one chunkBuf and refills it in place —
//     each refill is a Next call, which is exactly when previously returned
//     rows become invalid; the buffer returns to the pool at exhaustion or
//     Close;
//   - scatter-gather workers (parScanner.drainRegion) fetch each chunk into
//     a fresh pooled buffer and hand it over the prefetch channel; the
//     consumer releases chunk N when it installs chunk N+1 (refill), or at
//     natural exhaustion;
//   - a closing scan releases only chunks no consumer ever saw: buffers
//     drained from the prefetch channels after the workers stop, and
//     buffers a cancelled worker failed to send. The consumer-visible
//     current chunk is deliberately left to the GC — Scanner.Next returns a
//     row and trims the scan in the same call when the limit is reached, so
//     that chunk may still back a row the caller is holding.
type chunkBuf struct {
	rows  []RowResult
	arena Cells
}

// reset drops every row and value reference while keeping both backing
// arrays at capacity, so a pooled buffer never pins row keys or cell
// values while idle.
func (b *chunkBuf) reset() {
	clear(b.rows[:cap(b.rows)])
	b.rows = b.rows[:0]
	clear(b.arena[:cap(b.arena)])
	b.arena = b.arena[:0]
}
