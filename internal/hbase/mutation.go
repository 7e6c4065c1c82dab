package hbase

import "synergy/internal/sim"

// Mutation is one row write — a put or a delete — destined for a batch RPC.
// A batch may span tables: the Synergy write path fans one logical write
// into base-table, view and index mutations, and the client groups them by
// region regardless of table.
type Mutation struct {
	Table string
	Key   string
	// Cells are the put payload; ignored for deletes.
	Cells []Cell
	// TS stamps the tombstone (deletes) or any zero-timestamp cell (puts);
	// 0 uses the server clock at apply time.
	TS int64
	// Qualifiers restricts a delete to specific columns; empty deletes the
	// whole row.
	Qualifiers []string
	// Delete marks the mutation as a tombstone write instead of a put. It
	// sits beside CheckAndPut so the two flags share one padded word: a
	// transaction buffers every mutation it has pending.
	Delete bool
	// CheckAndPut marks the mutation conditional: at apply time the single
	// cell in Cells lands via the region's atomic CheckAndPut iff the
	// current visible value of (Key, CheckQualifier) equals CheckExpected
	// (nil = must be absent). A failed check is not an error — the mutation
	// is simply skipped, and only applied conditionals pay the put/WAL
	// costs. Client.CheckAndPut is one of these on its own; the Synergy
	// commit protocol batches them instead of paying a round trip each: it
	// folds fresh lock entries into the commit flush and frees a
	// transaction's locks in one flush after it.
	CheckAndPut    bool
	CheckQualifier string
	CheckExpected  []byte
	// Passed, when not nil on a conditional put, receives whether its check
	// passed (and so the put applied) once the mutation is applied: one
	// result per conditional, as HBase's batch checkAndMutate returns.
	Passed *bool
}

// PutMutation builds a put.
func PutMutation(tbl, key string, cells []Cell, ts int64) Mutation {
	return Mutation{Table: tbl, Key: key, Cells: cells, TS: ts}
}

// DeleteMutation builds a row (or column) tombstone write.
func DeleteMutation(tbl, key string, ts int64, qualifiers ...string) Mutation {
	return Mutation{Table: tbl, Key: key, Delete: true, TS: ts, Qualifiers: qualifiers}
}

// CheckAndPutMutation builds a conditional single-cell put, resolved
// atomically against the row's current state at apply time (expected nil =
// the qualifier must be absent).
func CheckAndPutMutation(tbl, key, qualifier string, expected []byte, cell Cell) Mutation {
	return Mutation{Table: tbl, Key: key, Cells: []Cell{cell}, CheckAndPut: true, CheckQualifier: qualifier, CheckExpected: expected}
}

// bytes approximates the wire size of the mutation inside a batch RPC, the
// same whether it travels alone (Put, DeleteAt, CheckAndPut) or batched, so
// batched and sequential runs stay byte-for-byte comparable.
func (m *Mutation) bytes() int {
	if m.Delete {
		return len(m.Key) + 32
	}
	n := 0
	for _, c := range m.Cells {
		n += len(m.Key) + len(c.Qualifier) + len(c.Value) + kvOverhead
	}
	if m.CheckAndPut {
		n += len(m.CheckExpected)
	}
	return n
}

// regionGroup is the slice of a batch destined for one region, applied under
// one (or, above MutateMaxBatch, a few) simulated RPCs.
type regionGroup struct {
	region *Region
	muts   []Mutation
	// casTS is the highest stamp the region gave an applied conditional put
	// of the group (they are stamped at apply time, not with the batch).
	casTS int64
}

// MutateBatch applies a group of puts and deletes as real HBase's
// Table.batch/BufferedMutator does: mutations are grouped by region, each
// region's group travels in one batch RPC with one WAL sync (groups larger
// than Costs.MutateMaxBatch split into several RPCs), and independent
// regions are dispatched in parallel with fork/join cost accounting — the
// caller waits for the slowest region, not the sum.
//
// Mutations keep their relative order within a row (same row ⇒ same region ⇒
// same ordered group). Zero timestamps are stamped in batch order before
// dispatch, so results are deterministic and match what the same sequence of
// Put/DeleteAt calls would have written. The exception is a conditional put:
// its cell is stamped by the region inside the compare's critical section.
// A conditional whose check fails is skipped, not an error; its Passed, when
// set, reports the outcome, and the batch's other mutations land regardless.
func (c *Client) MutateBatch(ctx *sim.Ctx, muts []Mutation) error {
	_, err := c.mutateBatch(ctx, muts)
	return err
}

// mutateBatch is MutateBatch plus the batch's high timestamp: the largest
// stamp assigned to (or carried by) any mutation in the batch, which is the
// commit timestamp the changefeed records for asynchronously maintained
// views. Zero when the batch is empty.
func (c *Client) mutateBatch(ctx *sim.Ctx, muts []Mutation) (int64, error) {
	if len(muts) == 0 {
		return 0, nil
	}
	if len(muts) == 1 {
		ts, casTS, err := c.mutateOne(ctx, muts[0])
		return max(ts, casTS), err
	}
	// Resolve tables first so an unknown table fails before any mutation is
	// applied, and the meta-cache charges land once per table.
	tables := make(map[string]*table)
	for i := range muts {
		if _, ok := tables[muts[i].Table]; ok {
			continue
		}
		t, err := c.open(ctx, muts[i].Table)
		if err != nil {
			return 0, err
		}
		tables[muts[i].Table] = t
	}
	// Stamp server-side timestamps in batch order, one per mutation as
	// mutateOne does, then group by region preserving arrival order.
	var maxTS int64
	var groups []*regionGroup
	byRegion := make(map[*Region]*regionGroup)
	for _, m := range muts {
		maxTS = max(maxTS, c.stamp(&m))
		r := tables[m.Table].regionFor(m.Key)
		g := byRegion[r]
		if g == nil {
			g = &regionGroup{region: r}
			byRegion[r] = g
			groups = append(groups, g)
		}
		g.muts = append(g.muts, m)
	}

	if len(groups) == 1 {
		c.applyGroup(ctx, groups[0])
		return max(maxTS, groups[0].casTS), nil
	}
	// Independent regions dispatch in parallel in the modeled system: each
	// group applies on the caller, charged to its own fork, and the Join
	// charges the caller max(region elapsed), not the sum, as GetMany does.
	children := make([]*sim.Ctx, len(groups))
	for i, g := range groups {
		children[i] = ctx.Fork()
		c.applyGroup(children[i], g)
		maxTS = max(maxTS, g.casTS)
	}
	ctx.Join(children...)
	return maxTS, nil
}

// mutateOne applies one mutation as one region's group of one: nothing to
// group or fork. It is every single-row write of the client — Put, DeleteAt,
// CheckAndPut — and every flush of a mutator that flushes at 1, the paper's
// client. It returns the highest stamp the mutation holds (stamp) and, for a
// conditional put, the stamp the region gave it: zero when the check failed.
func (c *Client) mutateOne(ctx *sim.Ctx, m Mutation) (ts, casTS int64, err error) {
	t, err := c.open(ctx, m.Table)
	if err != nil {
		return 0, 0, err
	}
	ts = c.stamp(&m)
	one := [1]Mutation{m}
	return ts, c.applyChunk(ctx, t.regionFor(m.Key), one[:]), nil
}

// stamp gives an unstamped mutation the next server timestamp and a put a
// private copy of its cells carrying it, and returns the highest stamp the
// mutation now holds. A conditional put is stamped by the region at apply
// time, on the cell it takes by value, so it needs neither.
func (c *Client) stamp(m *Mutation) int64 {
	switch {
	case m.CheckAndPut:
		return max(m.TS, m.Cells[0].TS)
	case m.TS == 0:
		m.TS = c.hc.NextTS()
	}
	if m.Delete {
		return m.TS
	}
	maxTS := m.TS
	stamped := make([]Cell, len(m.Cells))
	for i, cell := range m.Cells {
		if cell.TS == 0 {
			cell.TS = m.TS
		}
		maxTS = max(maxTS, cell.TS)
		stamped[i] = cell
	}
	m.Cells = stamped
	return maxTS
}

// applyGroup ships one region's mutations, splitting at MutateMaxBatch.
func (c *Client) applyGroup(ctx *sim.Ctx, g *regionGroup) {
	maxBatch := c.hc.costs.MutateMaxBatch
	if maxBatch <= 0 {
		maxBatch = len(g.muts)
	}
	for off := 0; off < len(g.muts); off += maxBatch {
		g.casTS = max(g.casTS, c.applyChunk(ctx, g.region, g.muts[off:min(off+maxBatch, len(g.muts))]))
	}
}

// applyChunk ships one sub-batch to its region: one RPC + batch overhead + one
// WAL sync, plus the per-mutation apply costs. A single-mutation sub-batch
// pays no batch overhead — there is nothing to amortize — so it is charged
// what the paper's one-RPC-per-mutation client is charged for the write. It
// returns the highest stamp the region gave an applied conditional put.
func (c *Client) applyChunk(ctx *sim.Ctx, region *Region, chunk []Mutation) (casTS int64) {
	hc := c.hc
	// Resolve the hosting server per sub-batch RPC: a balancer move between
	// sub-batches routes the rest of the group (and its WAL edits) to the
	// region's new owner.
	srv := region.Server()
	bytes := 0
	cas := 0
	for i := range chunk {
		bytes += chunk[i].bytes()
		if chunk[i].CheckAndPut {
			cas++
		}
	}
	hc.cl.RPC(ctx, c.node, srv, bytes)
	// Unconditional mutations pay PutApply up front; conditionals pay the
	// CheckAndPut compare, and the apply cost only if the check passes.
	serverCost := sim.Micros(int64(len(chunk)-cas) * int64(hc.costs.PutApply))
	serverCost += sim.Micros(int64(cas) * int64(hc.costs.CheckAndPut))
	if len(chunk) > 1 {
		serverCost += hc.costs.MutateBatchOverhead
		serverCost += sim.Micros(int64(len(chunk)) * int64(hc.costs.MutatePerMutation))
	}
	hc.serverWork(ctx, srv, serverCost)
	if cas == 0 {
		hc.walAppendBatch(ctx, srv, bytes, len(chunk))
		for i := range chunk {
			m := &chunk[i]
			if m.Delete {
				region.deleteRow(m.Key, m.TS, m.Qualifiers)
			} else {
				region.put(m.Key, m.Cells)
			}
		}
		return 0
	}
	// Conditional mutations reach the WAL only when applied, so the sub-batch
	// applies first and syncs the surviving edits after, one sync for all.
	walBytes, walMuts := 0, 0
	for i := range chunk {
		m := &chunk[i]
		switch {
		case m.CheckAndPut:
			ok, ts := region.checkAndPut(m.Key, m.CheckQualifier, m.CheckExpected, m.Cells[0], hc.NextTS)
			if m.Passed != nil {
				*m.Passed = ok
			}
			if ok {
				casTS = max(casTS, ts)
				hc.serverWork(ctx, srv, hc.costs.PutApply)
				walBytes += m.bytes()
				walMuts++
			}
		case m.Delete:
			region.deleteRow(m.Key, m.TS, m.Qualifiers)
			walBytes += m.bytes()
			walMuts++
		default:
			region.put(m.Key, m.Cells)
			walBytes += m.bytes()
			walMuts++
		}
	}
	if walMuts > 0 {
		hc.walAppendBatch(ctx, srv, walBytes, walMuts)
	}
	return casTS
}

// BufferedMutator is the client-side write pipeline: it accumulates mutations
// and ships them as region-grouped batch RPCs, one WAL sync per region group.
// When it ships is the one thing that varies between its users, and it is
// data — the flushAt it was built with.
//
// Buffered mutations are additionally indexed into a read-your-writes
// overlay (see ReadView): a transaction that owns the mutator reads its own
// pending writes merged over the store, while nothing is visible to anyone
// else until Flush. Discard drops the pending buffer without applying it —
// the abort path of a transaction.
//
// A BufferedMutator is not safe for concurrent use; like a Scanner it
// belongs to one request.
type BufferedMutator struct {
	c *Client
	// flushAt is the pending count at which the mutator flushes by itself;
	// zero leaves every flush to the owner.
	flushAt int
	muts    []Mutation
	overlay map[string]*overlayTable
	seq     int64 // synthetic overlay timestamps for unstamped mutations
	// flushTS is the high timestamp across every flush so far — the commit
	// timestamp a transaction's changefeed deltas are tagged with.
	flushTS int64
}

// NewBufferedMutator returns a mutator that flushes by itself once flushAt
// mutations are pending. At zero nothing reaches the store before an explicit
// Flush — a protocol phase barrier or the owner's commit — so an abort's
// Discard leaves nothing behind, and conditional puts (a fresh root row's lock
// entry) can ride the commit flush; a flush still splits oversized region
// groups at Costs.MutateMaxBatch per RPC. At one the mutator is the paper's
// client: every mutation is its own RPC and WAL sync the moment it is issued,
// charged what Client.Put, DeleteAt or CheckAndPut is charged. Such a
// mutator gives up what buffering bought: nothing can be deferred to commit,
// Discard has nothing left to drop — what was issued is published, and §VIII-B
// has no undo — and there is never a pending write to read back, so it keeps
// no overlay.
func (c *Client) NewBufferedMutator(flushAt int) *BufferedMutator {
	return &BufferedMutator{c: c, flushAt: flushAt}
}

// Pending reports the buffered, unflushed mutation count.
func (m *BufferedMutator) Pending() int { return len(m.muts) }

// Put buffers a row put.
func (m *BufferedMutator) Put(ctx *sim.Ctx, tbl, key string, cells []Cell) error {
	return m.add(ctx, PutMutation(tbl, key, cells, 0))
}

// Delete buffers a row/column tombstone with an explicit timestamp (0 =
// server clock).
func (m *BufferedMutator) Delete(ctx *sim.Ctx, tbl, key string, ts int64, qualifiers ...string) error {
	return m.add(ctx, DeleteMutation(tbl, key, ts, qualifiers...))
}

// CheckAndPut buffers a conditional single-cell put resolved atomically when
// it ships. When passed is not nil it receives whether the check passed once
// the mutation has shipped: after the Flush that carries it, or at once on a
// mutator that flushes at 1. Deferred conditionals suit lock-table
// housekeeping, where nothing is decided until the flush: a fresh lock entry
// (outcome ignored) and a lock release (a failed check means the lock was
// not held).
func (m *BufferedMutator) CheckAndPut(ctx *sim.Ctx, tbl, key, qualifier string, expected []byte, cell Cell, passed *bool) error {
	mut := CheckAndPutMutation(tbl, key, qualifier, expected, cell)
	mut.Passed = passed
	return m.add(ctx, mut)
}

func (m *BufferedMutator) add(ctx *sim.Ctx, mut Mutation) error {
	if m.flushAt == 1 {
		// Never pending: no pooled buffer to fill and no overlay to index,
		// only to drop both one line later.
		one := [1]Mutation{mut}
		return m.ship(ctx, one[:])
	}
	if m.muts == nil {
		m.muts = m.c.getMutBuf()
	}
	m.muts = append(m.muts, mut)
	m.overlayApply(mut)
	if len(m.muts) == m.flushAt {
		return m.Flush(ctx)
	}
	return nil
}

// ship applies muts as one batch and records its high timestamp.
func (m *BufferedMutator) ship(ctx *sim.Ctx, muts []Mutation) error {
	ts, err := m.c.mutateBatch(ctx, muts)
	m.flushTS = max(m.flushTS, ts)
	return err
}

// overlayApply indexes one buffered mutation into the read-your-writes
// overlay. The buffered Mutation itself is left untouched (its zero
// timestamps are stamped at flush time); the overlay applies copies carrying
// either the mutation's explicit timestamp or a synthetic one above every
// store timestamp, so the pending version wins the merge exactly as the
// flushed version will.
func (m *BufferedMutator) overlayApply(mut Mutation) {
	if mut.CheckAndPut {
		// Conditional outcomes are unknowable client-side, and the lock
		// housekeeping that uses them is never read through the overlay.
		return
	}
	if m.overlay == nil {
		m.overlay = m.c.getOverlay()
	}
	ot := m.overlay[mut.Table]
	if ot == nil {
		ot = m.c.getOverlayTable()
		m.overlay[mut.Table] = ot
	}
	rd := ot.upsert(mut.Key)
	ts := mut.TS
	if ts == 0 {
		m.seq++
		ts = overlayTSBase + m.seq
	}
	if mut.Delete {
		if len(mut.Qualifiers) == 0 {
			rd.apply(Cell{TS: ts, Type: TypeDeleteRow}, overlayKeep)
			return
		}
		for _, q := range mut.Qualifiers {
			rd.apply(Cell{Qualifier: q, TS: ts, Type: TypeDeleteCol}, overlayKeep)
		}
		return
	}
	for _, c := range mut.Cells {
		if c.TS == 0 {
			c.TS = ts
		}
		rd.apply(c, overlayKeep)
	}
}

// pendingTable returns the overlay index for a table, or nil when nothing
// is pending there.
func (m *BufferedMutator) pendingTable(tbl string) *overlayTable {
	if m.overlay == nil {
		return nil
	}
	return m.overlay[tbl]
}

// pendingRow returns the pending cells of one row, or nil.
func (m *BufferedMutator) pendingRow(tbl, key string) *rowData {
	if ot := m.pendingTable(tbl); ot != nil {
		return ot.rows[key]
	}
	return nil
}

// StampPending assigns a store timestamp to every unstamped pending
// mutation in buffer order, drawing from next (cells inherit the mutation's
// stamp at flush, as flush-time stamping does). OCC commits call this under
// the validator's lock, so a commit's stamps form a block that no snapshot
// horizon or other commit's watermark can land inside — which is what makes
// a multi-mutation commit atomic to snapshot readers and the validator's
// fully-visible-iff-older check sound. Returns the pending mutation count.
func (m *BufferedMutator) StampPending(next func() int64) int {
	for i := range m.muts {
		if m.muts[i].TS == 0 {
			m.muts[i].TS = next()
		}
	}
	return len(m.muts)
}

// Flush ships every buffered mutation. A flush boundary is also an ordering
// barrier: everything buffered before it is applied before anything added
// after, which is what the dirty-mark / update / un-mark phases of the
// Synergy write protocol rely on. Once flushed, the overlay empties — the
// writes are in the store and plain reads see them.
func (m *BufferedMutator) Flush(ctx *sim.Ctx) error {
	if len(m.muts) == 0 {
		return nil
	}
	muts := m.muts
	m.muts = nil
	if m.overlay != nil {
		m.c.putOverlay(m.overlay)
		m.overlay = nil
	}
	err := m.ship(ctx, muts)
	m.c.putMutBuf(muts)
	return err
}

// FlushTS reports the highest store timestamp any flush of this mutator has
// stamped (zero before the first flush). After a transaction's final flush
// it is the transaction's commit timestamp: every cell the transaction wrote
// carries a stamp ≤ FlushTS, so a view watermark at FlushTS covers it.
func (m *BufferedMutator) FlushTS() int64 { return m.flushTS }

// Discard drops every buffered mutation (and the overlay) without applying
// anything — the abort path of a transaction. Mutations already flushed
// (phase barriers, the mutator's own threshold) are durable and are not
// undone here; transaction layers handle their visibility (MVCC
// invalidation, dirty-mark cleanup).
func (m *BufferedMutator) Discard() {
	if m.muts != nil {
		m.c.putMutBuf(m.muts)
		m.muts = nil
	}
	if m.overlay != nil {
		m.c.putOverlay(m.overlay)
		m.overlay = nil
	}
}
