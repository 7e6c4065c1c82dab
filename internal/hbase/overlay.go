package hbase

import (
	"slices"
	"sort"

	"synergy/internal/sim"
)

// RowStream is the minimal streaming-read contract shared by a plain
// Scanner and the overlay-merging scanner a ReadView returns. A fully
// drained stream needs no Close; abandoning one early must Close it so the
// work its units already did is charged.
type RowStream interface {
	Next(ctx *sim.Ctx) (RowResult, bool)
	Close(ctx *sim.Ctx)
}

// Reader serves point gets, multi-gets and scans: either a Client (store
// reads) or a ReadView (transaction reads that merge a BufferedMutator's
// pending mutations over the store). The SQL layer reads through this
// interface so the read-before-write of a transaction sees the transaction's
// own buffered writes.
type Reader interface {
	// GetInto reads one row, its pairs cut from buf (see ReadBuf) —
	// Client.GetInto's point read.
	GetInto(ctx *sim.Ctx, tbl, key string, opts ReadOpts, buf *ReadBuf) (RowResult, error)
	// GetRow reads the one row of the range [key, key\x00) that spec would
	// scan, as a Get — Client.GetRow's point read.
	GetRow(ctx *sim.Ctx, tbl, key string, spec ScanSpec) (RowResult, error)
	// GetMany reads the rows of keys, the results in key order (an absent
	// row empty) and cut from buf — Client.GetMany's multi-get.
	GetMany(ctx *sim.Ctx, tbl string, keys []string, opts ReadOpts, buf *ReadBuf) ([]RowResult, error)
	// OpenScan opens a scan of spec. sc, when non-nil, is the storage of the
	// store scanner the stream reads through: the caller owns it, and the
	// store fills it in place, keeping the chunk and the fan-out units of the
	// scan it held last. It must not be handed to another OpenScan until this
	// stream is drained or closed, and handing it to the next one ends the
	// rows this stream handed out; nil allocates one.
	OpenScan(ctx *sim.Ctx, tbl string, spec ScanSpec, sc *Scanner) (RowStream, error)
}

// OpenScan opens a scan in sc, the caller's scanner storage (see Reader), or a
// new Scanner for nil, which is then the stream.
func (c *Client) OpenScan(ctx *sim.Ctx, tbl string, spec ScanSpec, sc *Scanner) (RowStream, error) {
	if sc == nil {
		sc = new(Scanner)
	}
	if err := c.scanInto(ctx, tbl, spec, sc); err != nil {
		return nil, err
	}
	return sc, nil
}

// overlayTSBase lifts the synthetic timestamps of unstamped (TS == 0)
// buffered mutations above any store timestamp, so pending writes win the
// version merge the same way they will after the flush stamps them with
// fresh server timestamps. Explicitly stamped mutations (MVCC transactions
// write at their transaction id) keep their own timestamps.
const overlayTSBase = int64(1) << 60

// overlayKeep retains every pending version in the overlay; visibility is
// decided at read time, never by version trimming.
const overlayKeep = 1 << 30

// SnapshotRead returns the visibility filter of a begin-timestamp snapshot
// that still admits a transaction's own pending writes: store cells stamped
// above snap are hidden, while the synthetic overlay timestamps of unstamped
// buffered mutations (which live at overlayTSBase and above, far beyond any
// oracle-issued stamp) stay visible. OCC transactions read through this —
// their buffered writes carry no store timestamp until the commit flush, so
// a plain ReadTS filter would hide the transaction from itself.
func SnapshotRead(snap int64) ReadOpts {
	return ReadOpts{Excluded: func(ts int64) bool { return ts > snap && ts < overlayTSBase }}
}

// overlayTable indexes one table's pending mutations by row key, in the
// same (key -> sorted cells) shape as a region memstore.
type overlayTable struct {
	rows   map[string]*rowData
	keys   []string
	sorted bool
	free   []*rowData // recycled rows (Client.putOverlay)
}

func newOverlayTable() *overlayTable {
	return &overlayTable{rows: make(map[string]*rowData)}
}

func (o *overlayTable) upsert(key string) *rowData {
	rd := o.rows[key]
	if rd == nil {
		if n := len(o.free); n > 0 {
			rd = o.free[n-1]
			o.free[n-1] = nil
			o.free = o.free[:n-1]
		} else {
			rd = &rowData{}
		}
		o.rows[key] = rd
		o.keys = append(o.keys, key)
		o.sorted = false
	}
	return rd
}

func (o *overlayTable) sortedKeys() []string {
	if !o.sorted {
		sort.Strings(o.keys)
		o.sorted = true
	}
	return o.keys
}

// keysInRange returns the pending keys in [start, stop); stop == "" is
// unbounded.
func (o *overlayTable) keysInRange(start, stop string) []string {
	keys := o.sortedKeys()
	lo := sort.SearchStrings(keys, start)
	hi := len(keys)
	if stop != "" {
		hi = sort.SearchStrings(keys, stop)
	}
	if lo >= hi {
		return nil
	}
	return keys[lo:hi]
}

// rowTombstoned reports whether the pending cells carry a visible row-wide
// tombstone, which masks the entire store row: such reads are served from
// the buffer alone, with no store RPC.
func rowTombstoned(rd *rowData, opts ReadOpts) bool {
	for _, c := range rd.cells {
		if c.Qualifier != "" {
			return false
		}
		if c.Type == TypeDeleteRow && opts.visible(c.TS) {
			return true
		}
	}
	return false
}

// overlayRow merges pending cells over the store-visible cells of one row.
// Store cells are re-injected at timestamp 0 — they already passed the
// store-side visibility filter, and every pending cell (synthetic or
// transaction-stamped) sorts at or above them — so the standard rowData
// version merge resolves precedence: pending row tombstones hide the store
// row, pending column tombstones hide their qualifier, pending puts win.
// The base pairs arrive already sorted by qualifier (every RowResult is),
// so the re-injection is a straight copy with no sort. cols is the scan's
// column set: the store cut base to it, and the pending cells are cut alike.
// The merged row's pairs are cut from buf.
func overlayRow(key string, pending *rowData, base Cells, opts ReadOpts, cols *ColumnSet, buf *ReadBuf) RowResult {
	if len(base) > 0 {
		bcells := make([]Cell, len(base))
		for i, p := range base {
			bcells[i] = Cell{Qualifier: p.Qualifier, Value: p.Value}
		}
		pending = merged(pending, &rowData{cells: bcells})
	}
	free := buf.arena()
	grown, cells := pending.readInto(free, opts, cols)
	buf.grew(free, grown)
	return RowResult{Key: key, Cells: cells}
}

// ReadView is the read-your-writes view of a transaction: point gets and
// scans merge the mutator's pending (buffered, unflushed) mutations over
// store reads in key order, so a transaction observes its own uncommitted
// writes while concurrent requests — which read through their own clients —
// never do. Once the mutator flushes (phase barrier or commit), the overlay
// empties and the view degenerates to plain store reads.
//
// Like the mutator it wraps, a ReadView belongs to one request and is not
// safe for concurrent use.
type ReadView struct {
	m *BufferedMutator
}

// View returns the mutator's read-your-writes view: one per mutator, made
// with it.
func (m *BufferedMutator) View() *ReadView { return &m.view }

// GetInto reads one row, merging pending mutations over the store row (GetRow
// with nothing but the read options), its pairs cut from buf (see ReadBuf).
func (v *ReadView) GetInto(ctx *sim.Ctx, tbl, key string, opts ReadOpts, buf *ReadBuf) (RowResult, error) {
	return v.getRow(ctx, tbl, key, ScanSpec{Read: opts}, buf)
}

// GetRow is Client.GetRow with the row's pending mutations merged over the
// store row, as the overlay scanner merges a row of [key, key\x00). A pending
// row-wide tombstone short-circuits: the buffer masks the store entirely and
// no store RPC is paid. A row with pending cells is fetched unfiltered and
// spec.Filter judges the merged row client-side; a row with none is
// Client.GetRow's.
func (v *ReadView) GetRow(ctx *sim.Ctx, tbl, key string, spec ScanSpec) (RowResult, error) {
	return v.getRow(ctx, tbl, key, spec, nil)
}

// getRow is GetRow with the row's pairs cut from buf.
func (v *ReadView) getRow(ctx *sim.Ctx, tbl, key string, spec ScanSpec, buf *ReadBuf) (RowResult, error) {
	pending := v.m.pendingRow(tbl, key)
	if pending == nil {
		return v.m.c.getRow(ctx, tbl, key, spec, buf)
	}
	var base Cells
	if !rowTombstoned(pending, spec.Read) {
		inner := spec
		inner.Filter = nil
		res, err := v.m.c.getRow(ctx, tbl, key, inner, buf)
		if err != nil {
			return RowResult{}, err
		}
		base = res.Cells
	}
	res := overlayRow(key, pending, base, spec.Read, spec.Columns, buf)
	if !res.Empty() && spec.Filter != nil && !spec.Filter.Keep(res) {
		res.Cells = nil
	}
	return res, nil
}

// GetMany reads several rows like Get, the store rows in one multi-get: rows a
// pending row-wide tombstone masks are served from the buffer, the rest are
// fetched together and merged under their pending cells. The view of a mutator
// that flushes at 1 — the paper's client — issues one Get per key instead, one
// at a time. The results and their rows are cut from buf, as the client's.
func (v *ReadView) GetMany(ctx *sim.Ctx, tbl string, keys []string, opts ReadOpts, buf *ReadBuf) ([]RowResult, error) {
	if v.m.flushAt == 1 {
		out := buf.rowList(len(keys))
		for i, key := range keys {
			var err error
			if out[i], err = v.GetInto(ctx, tbl, key, opts, buf); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	ot := v.m.pendingTable(tbl)
	if ot == nil {
		return v.m.c.GetMany(ctx, tbl, keys, opts, buf)
	}
	out := buf.rowList(len(keys))
	var fetch []string
	var at []int // out index of each fetched key
	if buf != nil {
		fetch, at = buf.fetch[:0], buf.at[:0]
	}
	for i, key := range keys {
		if pending := ot.rows[key]; pending != nil && rowTombstoned(pending, opts) {
			free := buf.arena()
			grown, cells := pending.readInto(free, opts, nil)
			buf.grew(free, grown)
			out[i] = RowResult{Key: key, Cells: cells}
			continue
		}
		fetch = append(fetch, key)
		at = append(at, i)
	}
	if buf != nil {
		buf.fetch, buf.at = fetch, at
	}
	base, err := v.m.c.GetMany(ctx, tbl, fetch, opts, buf)
	if err != nil {
		return nil, err
	}
	for j, i := range at {
		out[i] = base[j]
		if pending := ot.rows[keys[i]]; pending != nil {
			out[i] = overlayRow(keys[i], pending, base[j].Cells, opts, nil, buf)
		}
	}
	return out, nil
}

// OpenScan opens a key-ordered scan that folds the pending rows for the
// table into the store stream. Tables with no pending mutations in range
// pass straight through to the store scanner.
//
// Filters split into a store-safe part and a merged-row part (the ROADMAP
// predicate-split follow-up): a row whose key has no pending mutations
// merges to exactly its store image, so the filter may drop it server-side
// (HBase pushdown preserved); rows whose keys carry pending cells are
// exempted from the pushed filter — the store must ship them so the client
// can filter the merged row. Filters must therefore be pure row predicates,
// which every SQL-layer filter is.
//
// A fold (ScanSpec.Fold) runs where the rows live only while none is pending
// in range: a region would fold the store image of a pending row, which the
// merge must replace. With pending keys in range the view ignores the fold
// and streams the merged rows, for the caller to fold.
func (v *ReadView) OpenScan(ctx *sim.Ctx, tbl string, spec ScanSpec, sc *Scanner) (RowStream, error) {
	ot := v.m.pendingTable(tbl)
	var keys []string
	if ot != nil {
		keys = ot.keysInRange(spec.Start, spec.Stop)
	}
	if len(keys) == 0 {
		return v.m.c.OpenScan(ctx, tbl, spec, sc)
	}
	if spec.Reversed {
		// The pending keys fold into the store stream in its order.
		keys = slices.Clone(keys)
		slices.Reverse(keys)
	}
	inner := spec
	inner.Fold = nil
	if spec.Filter != nil {
		pend := make(map[string]struct{}, len(keys))
		for _, k := range keys {
			pend[k] = struct{}{}
		}
		f := spec.Filter
		inner.Filter = FilterFunc(func(r RowResult) bool {
			if _, hasPending := pend[r.Key]; hasPending {
				return true // must reach the client for the merged-row check
			}
			return f.Keep(r)
		})
	}
	if spec.Limit > 0 {
		// Each pending key can hide at most one store row (and is the only
		// kind of shipped row that can still fail the filter), so Limit +
		// pending suffices to produce Limit merged rows (or exhaust).
		inner.Limit = spec.Limit + len(keys)
	}
	if sc == nil {
		sc = new(Scanner)
	}
	if err := v.m.c.scanInto(ctx, tbl, inner, sc); err != nil {
		return nil, err
	}
	return &overlayScanner{store: sc, spec: spec, ot: ot, keys: keys}, nil
}

// overlayScanner merges one table's pending rows into the store stream in
// the scan's key order (keys arrives sorted along it), applying the original
// spec's filter and limit to the merged rows. The filter was pushed to the
// store, so pure store rows already passed it server-side and only
// pending-merged rows are re-checked client-side.
type overlayScanner struct {
	store *Scanner
	spec  ScanSpec
	ot    *overlayTable
	keys  []string
	ki    int

	srow   RowResult
	shave  bool // srow holds an unconsumed store row
	sdone  bool
	merged bool // last step() row involved pending cells
	sent   int
	done   bool
}

// Next returns the next merged row. ok is false when the scan is exhausted.
func (s *overlayScanner) Next(ctx *sim.Ctx) (RowResult, bool) {
	if s.done {
		return RowResult{}, false
	}
	for {
		row, ok := s.step(ctx)
		if !ok {
			s.done = true
			return RowResult{}, false
		}
		if s.spec.Filter != nil && s.merged && !s.spec.Filter.Keep(row) {
			continue
		}
		s.sent++
		if s.spec.Limit > 0 && s.sent >= s.spec.Limit {
			s.done = true
			if !s.merged {
				// Close recycles the store chunk a pure store row points
				// into; the limit-th row must outlive it.
				row = row.Clone()
			}
			s.store.Close(ctx)
		}
		return row, true
	}
}

// step yields the next merged row before filter/limit are applied, marking
// whether it was built from pending cells (s.merged).
func (s *overlayScanner) step(ctx *sim.Ctx) (RowResult, bool) {
	for {
		if !s.shave && !s.sdone {
			if r, ok := s.store.Next(ctx); ok {
				s.srow, s.shave = r, true
			} else {
				s.sdone = true
			}
		}
		// A pending key is due when it sorts at or before the buffered store
		// row along the scan direction.
		if s.ki < len(s.keys) && (!s.shave || s.keys[s.ki] == s.srow.Key || (s.keys[s.ki] < s.srow.Key) != s.spec.Reversed) {
			key := s.keys[s.ki]
			s.ki++
			var base Cells
			if s.shave && s.srow.Key == key {
				base = s.srow.Cells
				s.shave = false
			}
			res := overlayRow(key, s.ot.rows[key], base, s.spec.Read, s.spec.Columns, nil)
			if len(res.Cells) == 0 {
				continue // pending delete (or invisible pending row)
			}
			s.merged = true
			return res, true
		}
		if s.shave {
			s.shave = false
			s.merged = false
			return s.srow, true
		}
		if s.sdone {
			return RowResult{}, false
		}
	}
}

// Close releases an unfinished merged scan.
func (s *overlayScanner) Close(ctx *sim.Ctx) {
	if !s.done {
		s.store.Close(ctx)
		s.done = true
	}
}
