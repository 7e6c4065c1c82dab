package phoenix

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// ---------------------------------------------------------------------------
// Access paths

type accessKind int

const (
	accessFullScan accessKind = iota
	accessPKPrefix
	accessIndexPrefix
)

// accessPlan is how a table binding's rows are fetched.
type accessPlan struct {
	kind   accessKind
	index  *IndexInfo // for accessIndexPrefix
	eqCols []string   // leading key columns bound by equality
	// lo and hi bound the key column after eqCols — what the binding's <, <=,
	// >, >= conjuncts on it put after the equality prefix of a row key, "" for
	// an open end — and filter is the local predicates left for the scan to
	// filter by (see keyBounds).
	lo, hi  string
	filter  []localPred
	rowsEst int
	// ordered marks a path whose key order is the statement's ORDER BY (see
	// scanOrder): the scan delivers the rows sorted — backwards through the
	// keys when reversed — and project has nothing left to sort.
	ordered  bool
	reversed bool
}

// accessPath is one way into a table binding's rows, fixed when the statement
// is compiled: the primary key or a covered index's On ++ Key, how many of its
// leading columns the binding's local equalities bind, and whether reading it
// in key order delivers the statement's ORDER BY (see scanOrder).
type accessPath struct {
	keyCols []string
	index   *IndexInfo // nil for the primary key
	eq      int
	ordered bool
}

// planPaths lists a table binding's candidate access paths: the primary key,
// then every covered index. Which one an execution reads is chooseAccess's
// call — it turns on the values the key bounds take and the table's size.
func (p *Plan) planPaths(b *binding) {
	eq := map[string]bool{}
	for _, lp := range b.local {
		if !lp.colVsCol && lp.op == sqlparser.OpEq {
			eq[lp.col] = true
		}
	}
	order, desc, wantOrder := p.scanOrder(b, eq)
	b.desc = desc
	add := func(keyCols []string, idx *IndexInfo) {
		n := 0
		for n < len(keyCols) && eq[keyCols[n]] {
			n++
		}
		b.paths = append(b.paths, accessPath{keyCols: keyCols, index: idx, eq: n, ordered: wantOrder && deliversOrder(keyCols, eq, order)})
	}
	add(b.info.Key, nil)
	for _, idx := range b.info.Indexes {
		if !idx.KeyOnly { // maintenance indexes cannot answer queries
			add(append(slices.Clone(idx.On), b.info.Key...), idx)
		}
	}
}

// scanOrder is the order a statement may ask of its scan instead of a sort:
// the ORDER BY columns of a plain single-table SELECT, when they all run one
// way. Columns a local equality binds are constant over the scanned rows and
// drop out. ok is false for every other shape — a join, an aggregate and a
// derived table reorder or replace the scanned rows, and mixed directions
// match no key.
func (p *Plan) scanOrder(b *binding, eq map[string]bool) (cols []string, desc, ok bool) {
	if len(p.bindings) != 1 || b.info == nil || p.aggregated || len(p.orderBy) == 0 {
		return nil, false, false
	}
	for _, k := range p.orderBy {
		col := b.refs[k.src.i]
		if eq[col] {
			continue
		}
		if len(cols) > 0 && k.desc != desc {
			return nil, false, false
		}
		cols, desc = append(cols, col), k.desc
	}
	return cols, desc, true
}

// deliversOrder reports whether rows read in the order of key keyCols are
// sorted by the columns order: order must be a prefix of the key once the
// equality-bound key columns — constant over the scanned rows — are skipped.
// It rests on schema.EncodeKey ordering each column as schema.CompareValues
// does (NULL first). Where order stops short of the full key, rows that tie
// on it come out in key order.
func deliversOrder(keyCols []string, eq map[string]bool, order []string) bool {
	i := 0
	for _, k := range keyCols {
		switch {
		case i == len(order):
			return true
		case k == order[i]:
			i++
		case !eq[k]:
			return false
		}
	}
	return i == len(order)
}

// chooseAccess picks the cheapest of a binding's access paths given its local
// equality predicates and the range conjuncts on the key column after them.
// extraEqCols supplies join-derived equalities (for INL probes). Among paths
// estimated to read the same number of rows, one whose key order serves the
// statement's ORDER BY wins — a covered index is worth a full read for its
// order alone — but never over a path binding a longer equality prefix.
func (q *query) chooseAccess(b *binding, extraEqCols []string) accessPlan {
	local := q.execs[b.idx].local
	est := max(q.eng.cat.Store().RowEstimate(b.info.Name), 1)
	best := accessPlan{kind: accessFullScan, filter: local, rowsEst: est, ordered: b.paths[0].ordered}
	for _, path := range b.paths {
		keyCols, n := path.keyCols, path.eq
		if len(extraEqCols) > 0 {
			n = 0
			for _, k := range keyCols {
				if _, ok := localEqValue(local, k); !ok && !slices.Contains(extraEqCols, k) {
					break
				}
				n++
			}
		}
		lo, hi, filter := "", "", local
		if n < len(keyCols) {
			lo, hi, filter = b.keyBounds(local, keyCols[n])
		}
		// Unbound, the primary key is the full scan, and an index is worth
		// a full read only for its order.
		if n == 0 && lo == "" && hi == "" && (path.index == nil || !path.ordered) {
			continue
		}
		// Selectivity heuristic: each bound key column divides the
		// table, each bounded end of the next one quarters what is left;
		// a fully bound key yields ~1 row.
		rows := est
		if n == len(keyCols) {
			rows = 1
		} else {
			for i := 0; i < n && rows > 1; i++ {
				rows = rows / 100
			}
			if lo != "" {
				rows /= 4
			}
			if hi != "" {
				rows /= 4
			}
			if rows < 1 {
				rows = 1
			}
		}
		kind := accessPKPrefix
		if path.index != nil {
			kind = accessIndexPrefix
		}
		better := rows < best.rowsEst
		if rows == best.rowsEst {
			if path.ordered != best.ordered {
				better = path.ordered && n >= len(best.eqCols)
			} else {
				better = best.kind == accessFullScan
			}
		}
		if better {
			best = accessPlan{kind: kind, index: path.index, eqCols: keyCols[:n], lo: lo, hi: hi, filter: filter, rowsEst: rows, ordered: path.ordered}
		}
	}
	best.reversed = best.ordered && b.desc
	return best
}

// localEqValue returns the value a local equality predicate binds col to.
func localEqValue(local []localPred, col string) (schema.Arg, bool) {
	for _, p := range local {
		if !p.colVsCol && p.op == sqlparser.OpEq && p.col == col {
			return p.value, true
		}
	}
	return schema.Arg{}, false
}

// table names the store table the plan reads: the covered index for an index
// prefix, the binding's own table otherwise.
func (p accessPlan) table(b *binding) string {
	if p.kind == accessIndexPrefix {
		return p.index.Name
	}
	return b.info.Name
}

// keyBounds returns the start and stop the range conjuncts among local — the
// binding's, with this execution's values — on key column col put on a scan,
// as the bytes that follow the equality prefix in a row key ("" = that end is
// open), and rest, the local predicates the scan still filters by. A conjunct
// the bounds absorb leaves the filter: one that went on rejecting rows past
// the bound is what walks a scan to the region's end. The constant takes the
// column's kind first (coerce), so it is compared with parts of its own tag;
// one the column cannot hold, a NULL and a NaN order against stored values as
// no key does and stay filters. An inclusive lower bound is the constant's key
// part; an exclusive lower and an inclusive upper bound append KeySep 0xFF,
// which sorts after every key whose part equals the constant (the next part
// opens with a tag, and a NUL inside a string part is escaped 0x00 0xFF, a
// longer string).
func (b *binding) keyBounds(local []localPred, col string) (lo, hi string, rest []localPred) {
	typ, _ := b.info.Col(col)
	rest = local
	absorbed := 0
	for i, p := range local {
		v, ok := coerce(typ, p.value)
		if p.col != col || p.colVsCol || p.op == sqlparser.OpEq || p.op == sqlparser.OpNe || !ok ||
			v.Kind() == schema.ArgNull || v.Kind() == schema.ArgFloat && math.IsNaN(v.Float()) {
			if absorbed > 0 {
				rest = append(rest, p)
			}
			continue
		}
		if absorbed++; absorbed == 1 {
			rest = local[:i:i] // rest parts from local here: appends copy
		}
		var buf [64]byte
		part := schema.AppendKeyArg(buf[:0], v)
		if p.op == sqlparser.OpGt || p.op == sqlparser.OpLe {
			part = append(part, schema.KeySep, 0xFF)
		}
		if p.op == sqlparser.OpGt || p.op == sqlparser.OpGe {
			if lo == "" || string(part) > lo {
				lo = string(part)
			}
		} else if hi == "" || string(part) < hi {
			hi = string(part)
		}
	}
	return lo, hi, rest
}

// keyRange restricts spec to the rows under the plan's bound key prefix — vals,
// each given its key column's kind — and, below it, between the plan's bounds
// on the next key column. A prefix that is the whole row key is the single
// row [key, key+\x00), which openScan reads with one Get rather than a scan
// that would walk on to the region's end. A value its key column cannot hold
// equals no key, and the range is empty (see openScan), as it is under
// contradictory bounds. Start and Stop are cut from one string (keyWindow), cut
// from strs.
func (p accessPlan) keyRange(b *binding, vals []schema.Arg, strs *StringBlock, spec *hbase.ScanSpec) {
	var small [96]byte
	buf := small[:0]
	for i, c := range p.eqCols {
		typ, _ := b.info.Col(c)
		var ok bool
		if buf, ok = appendKeyValue(buf, i, typ, vals[i]); !ok {
			spec.Start, spec.Stop = noKey, noKey
			return
		}
	}
	buf, w := p.closeRange(b, buf, 0)
	w.set(strs.Cut(buf), spec)
}

// appendKeyValue appends key part i — KeySep first, but for the first part —
// of a key column of kind typ holding v; ok is false for a value the column
// cannot hold (coerce).
func appendKeyValue(buf []byte, i int, typ schema.ColType, v schema.Arg) (key []byte, ok bool) {
	if v, ok = coerce(typ, v); !ok {
		return buf, false
	}
	if i > 0 {
		buf = append(buf, schema.KeySep)
	}
	return schema.AppendKeyArg(buf, v), true
}

// appendKeyCell is appendKeyValue of an encoded value: what it appends for
// DecodeValue(cell), without decoding the value.
func appendKeyCell(buf []byte, i int, typ schema.ColType, cell []byte) (key []byte, ok bool) {
	var v schema.Arg
	switch RawCellKind(cell) {
	case CellString:
		if typ != schema.TString {
			return buf, false // a string in a numeric column
		}
		if i > 0 {
			buf = append(buf, schema.KeySep)
		}
		return schema.AppendKeyString(buf, RawCellBytes(cell)), true
	case CellInt:
		v = schema.IntArg(RawCellInt(cell))
	case CellFloat:
		v = schema.FloatArg(RawCellFloat(cell))
	}
	return appendKeyValue(buf, i, typ, v)
}

// keyWindow is where a key range's Start and Stop lie in the string its
// bounds were built into: both are cut from it, so a range costs one string
// however it is bounded, and the probes of a join share one (joinNode.probe).
type keyWindow struct {
	start, startEnd, stop, stopEnd int
	empty                          bool // the range holds no key
}

// set gives spec the range w cuts from s.
func (w keyWindow) set(s string, spec *hbase.ScanSpec) {
	if w.empty {
		spec.Start, spec.Stop = noKey, noKey
		return
	}
	spec.Start, spec.Stop = s[w.start:w.startEnd], s[w.stop:w.stopEnd]
}

// closeRange ends the key range whose bound prefix — the key parts of every
// column of eqCols, in order — buf holds from index from: it appends what the
// range needs past the prefix and says where its bounds lie. A whole row key
// is [key, key\x00); a partial one is every key under key+KeySep — up to
// 0xFF 0xFF 0xFF 0xFF after it, which no key part opens with — or, with bounds
// on the next key column, [prefix+lo, prefix+hi). An open lower end starts at
// the first non-NULL part (tag 0x02): a NULL satisfies no comparison, as the
// filter had it. No prefix and no bounds is the whole table.
func (p accessPlan) closeRange(b *binding, buf []byte, from int) ([]byte, keyWindow) {
	keyLen := len(b.info.Key)
	if p.kind == accessIndexPrefix {
		keyLen += len(p.index.On)
	}
	w := keyWindow{start: from, stop: from}
	switch {
	case len(p.eqCols) == keyLen:
		w.startEnd = len(buf)
		buf = append(buf, 0)
	case p.lo == "" && p.hi == "":
		if len(p.eqCols) > 0 {
			buf = append(buf, schema.KeySep)
			w.startEnd = len(buf)
			buf = append(buf, 0xFF, 0xFF, 0xFF, 0xFF)
		}
	default:
		if len(p.eqCols) > 0 {
			buf = append(buf, schema.KeySep)
		}
		prefix := len(buf)
		lo, hi := p.lo, p.hi
		if lo == "" {
			lo = "\x02"
		}
		if hi == "" {
			hi = noKey
		}
		buf = append(buf, lo...)
		w.startEnd, w.stop = len(buf), len(buf)
		buf = append(append(buf, buf[from:prefix]...), hi...)
	}
	w.stopEnd = len(buf)
	return buf, w
}

// noKey sorts after every row key (a key opens with a type tag): [noKey, noKey)
// is how keyRange spells the empty range.
const noKey = "\xff"

// noRows is the scan of an empty key range.
type noRows struct{}

func (noRows) Next(*sim.Ctx) (hbase.RowResult, bool) { return hbase.RowResult{}, false }
func (noRows) Close(*sim.Ctx)                        {}

// oneRow is the scan of a single-row key range: what its Get found, once.
type oneRow struct{ r hbase.RowResult }

func (s *oneRow) Next(*sim.Ctx) (hbase.RowResult, bool) {
	r := s.r
	s.r = hbase.RowResult{}
	return r, !r.Empty()
}
func (*oneRow) Close(*sim.Ctx) {}

// singleRow reports the key of a range that can hold one row only,
// [key, key\x00) — what keyRange makes of a fully bound row key.
func singleRow(spec hbase.ScanSpec) (string, bool) {
	n := len(spec.Start)
	return spec.Start, len(spec.Stop) == n+1 && spec.Stop[n] == 0 && spec.Stop[:n] == spec.Start
}

// openScan opens a binding scan through the query's reader: the Reader when
// one is set (a transaction's overlay view, or an OCC transaction's tracking
// reader over it), else the plain store client. Every table read of a query
// funnels through here, which is what makes it the read-set capture choke
// point. A key range that holds no key is read here, with no RPC and nothing
// for a read set to track; one that holds a single key is that row's Get on
// the same reader, under the same spec — a point in the read set, not a
// range — streamed as one row, from one, the caller's. Any other range is a
// scan in sc, the caller's scanner storage.
func (q *query) openScan(ctx *sim.Ctx, tbl string, spec hbase.ScanSpec, one *oneRow, sc *hbase.Scanner) (hbase.RowStream, error) {
	if spec.Stop != "" && spec.Start >= spec.Stop {
		return noRows{}, nil
	}
	var rd hbase.Reader = q.eng.client
	if q.opts.Reader != nil {
		rd = q.opts.Reader
	}
	if key, ok := singleRow(spec); ok {
		r, err := rd.GetRow(ctx, tbl, key, spec)
		if err != nil {
			return nil, err
		}
		*one = oneRow{r}
		return one, nil
	}
	return rd.OpenScan(ctx, tbl, spec, sc)
}

// columnSet is the qualifiers a scan of table binding b reads under the pushed
// filter preds: the columns the statement reads of it, the ones the filter
// compares, the dirty marker where the scan checks it, and a key column when
// none of those is one — a stored row always carries its key, so a row whose
// wanted columns are all NULL still comes back (the part Phoenix's empty key
// value plays). It is nil when the statement reads every column: a SELECT *
// scans as it did before scans named their columns. The set is the plan's
// (binding.sets): every execution that reads the same columns reads them
// through one.
func (q *query) columnSet(b *binding, preds []localPred) *hbase.ColumnSet {
	if len(b.refs) == len(b.cols) {
		return nil
	}
	var small [24]string
	quals := append(small[:0], b.refs...)
	for _, p := range preds {
		quals = append(quals, p.col)
		if p.colVsCol {
			quals = append(quals, p.rcol)
		}
	}
	if q.opts.DirtyCheck && b.info.IsView {
		quals = append(quals, DirtyQualifier)
	}
	keyed := false
	for _, k := range b.info.Key {
		keyed = keyed || slices.Contains(quals, k)
	}
	if !keyed {
		quals = append(quals, b.info.Key[0])
	}
	slices.Sort(quals)
	return b.sets.of(slices.Compact(quals))
}

// columnSets is a binding's column sets, one per qualifier list its scans
// have read — a handful: which range conjuncts the key bounds absorb, and
// whether the scan checks the dirty marker, are all that vary between
// executions, which share it on any goroutine. It holds at most maxPlanSets;
// past that a scan gets a set of its own.
type columnSets struct {
	mu   sync.Mutex
	sets []*hbase.ColumnSet
	few  [2]*hbase.ColumnSet // backs sets while the binding has read two lists at most
}

const maxPlanSets = 8

// of returns the set of quals, ascending and distinct, which it does not keep.
func (c *columnSets) of(quals []string) *hbase.ColumnSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sets {
		if s.Holds(quals) {
			return s
		}
	}
	set := hbase.NewColumnSet(slices.Clone(quals)...)
	if c.sets == nil {
		c.sets = c.few[:0]
	}
	if len(c.sets) < maxPlanSets {
		c.sets = append(c.sets, set)
	}
	return set
}

// scanSpec builds the store scan of a table binding under its access plan:
// the key range its local equalities and range conjuncts bind, the rest of its
// local predicates as the pushed-down filter — compiled into f, the scan's
// storage for it — and the columns it reads. A scan fans out in whole waves of
// equal units over its regions (Phoenix intra-query parallelism); a
// single-row lookup is one Get.
func (q *query) scanSpec(b *binding, plan accessPlan, f *predFilter) (string, hbase.ScanSpec, error) {
	spec := hbase.ScanSpec{Read: q.opts.Read, Filter: f.compile(plan.filter), Reversed: plan.reversed, Columns: q.columnSet(b, plan.filter)}
	if plan.kind != accessFullScan {
		var small [8]schema.Arg
		vals := small[:0]
		for _, c := range plan.eqCols {
			v, ok := localEqValue(q.execs[b.idx].local, c)
			if !ok {
				return "", spec, fmt.Errorf("phoenix: internal: missing eq value for %s.%s", b.name, c)
			}
			vals = append(vals, v)
		}
		plan.keyRange(b, vals, q.opts.Strings, &spec)
	}
	return plan.table(b), spec, nil
}

// copyRefs points dst at the referenced columns of a stored row, one encoded
// value per entry of refs (empty where the row has no such cell).
func copyRefs(refs []string, cells hbase.Cells, dst [][]byte) {
	for i, c := range refs {
		dst[i] = cellOf(cells, c)
	}
}

// valueSize is an encoded value's share of a tuple's spill footprint.
func valueSize(v []byte) int {
	if RawCellKind(v) == CellString {
		return len(v) - 1
	}
	return 9
}

// rowSize is the spill footprint of a full stored row under binding bind:
// per column its "bind.column" name plus the value (string payload bytes, 9
// for anything else), read off the encoded cells so no column needs decoding.
func rowSize(bind string, cells hbase.Cells) int {
	n := 0
	for i := range cells {
		q := cells[i].Qualifier
		if len(q) > 0 && q[0] == '_' {
			continue
		}
		n += len(bind) + 1 + len(q) + valueSize(cells[i].Value)
	}
	return n
}

// spillSize is rowSize for statements that can spill, 0 for the rest.
func (q *query) spillSize(b *binding, r hbase.RowResult) int {
	if !q.spills {
		return 0
	}
	return rowSize(b.name, r.Cells)
}

// newVals takes the values of a tuple read from binding b off the slab and
// returns them with b's segment: wide for the statement's first binding (the
// full joined layout), narrow — just the segment — for a join's inner side.
func (q *query) newVals(b *binding, wide bool) (vals, seg [][]byte) {
	vals = q.slab.take(q.tupleWidth(b, wide))
	if !wide {
		return vals, vals
	}
	return vals, vals[b.off:]
}

// tupleWidth is the width of a tuple read from binding b (see newVals).
func (q *query) tupleWidth(b *binding, wide bool) int {
	if wide {
		return q.width
	}
	return len(b.refs)
}

// scanTuple turns a scanned row into a tuple.
func (q *query) scanTuple(b *binding, r hbase.RowResult, wide bool) tuple {
	vals, seg := q.newVals(b, wide)
	copyRefs(b.refs, r.Cells, seg)
	return tuple{vals: vals, size: q.spillSize(b, r)}
}

// dirtyChecked reports whether reads of binding b check for the dirty marker
// (§VIII-C): those of a view, under QueryOpts.DirtyCheck.
func (q *query) dirtyChecked(b *binding) bool {
	return q.opts.DirtyCheck && b.info != nil && b.info.IsView
}

// maxRestarts bounds the reads of one table that may meet a dirty row before
// the statement fails with ErrDirtyRead.
const maxRestarts = 50

// read reads tbl under spec to its end, handing every row to add: the one read
// loop of a scan that does not stream and of an index nested-loop probe (one
// backs a single-row range's stream and scanner any other's, see openScan). A
// read that checks for dirty view rows and meets one abandons the scan, takes
// back what it added (undo) and, charged the restart, reads again from the
// top — §VIII-C: "if a marked row is present ... re-scan" — failing with
// ErrDirtyRead once maxRestarts reads have met one.
func (q *query) read(ctx *sim.Ctx, tbl string, spec hbase.ScanSpec, dirtyChecked bool, one *oneRow, scanner *hbase.Scanner, add func(hbase.RowResult), undo func()) error {
	for attempt := 1; ; attempt++ {
		sc, err := q.openScan(ctx, tbl, spec, one, scanner)
		if err != nil {
			return err
		}
		dirty := false
		for !dirty {
			r, ok := sc.Next(ctx)
			if !ok {
				break
			}
			if dirty = dirtyChecked && IsDirty(r); !dirty {
				add(r)
			}
		}
		if !dirty {
			return nil
		}
		sc.Close(ctx) // abandon in-flight region fetches
		undo()
		ctx.CountRestart()
		ctx.Charge(q.eng.costs.DirtyRestartPenalty)
		if attempt >= maxRestarts {
			return fmt.Errorf("%w: %s after %d restarts", ErrDirtyRead, tbl, attempt)
		}
		// The penalty is the modeled wait; the writer that marked the row is
		// a real goroutine between its mark and un-mark barriers, so the read
		// backs off in real time too, 1 µs doubling to 1 ms. Measured on a
		// 2-core box without the sleep, TestNoDirtyRowEverVisible failed 10
		// of 200 runs (-count=200) and 9 of 40 (-race -cpu 4 -count=40), each
		// a read that spent its budget inside one writer's marked window;
		// with it, 0 of 200 and 0 of 40.
		time.Sleep(time.Duration(1<<min(attempt-1, 10)) * time.Microsecond)
	}
}

// derivedCols is where what the statement reads of a derived table lies in
// the rows its subquery left: each local conjunct's col and rcol (pos) and
// each of the binding's refs (src), and, for a statement that can spill, the
// positions a tuple's spill footprint counts — each distinct non-literal
// column once — and the bytes of their "bind.column" names.
type derivedCols struct {
	pos       [][2]int
	src       []int
	sized     []int
	nameBytes int
}

func (p *Plan) derivedCols(b *binding) derivedCols {
	d := derivedCols{pos: make([][2]int, len(b.local)), src: make([]int, len(b.refs))}
	for i, lp := range b.local {
		d.pos[i] = [2]int{b.colPos(lp.col), b.colPos(lp.rcol)}
	}
	for i, c := range b.refs {
		d.src[i] = b.colPos(c)
	}
	if p.spills {
		for j, c := range b.cols {
			if !b.sub.out[j].literal && b.colPos(c) == j {
				d.sized = append(d.sized, j)
				d.nameBytes += len(b.name) + 1 + len(c)
			}
		}
	}
	return d
}

// scanDerived filters a derived table's materialized rows by the binding's
// local predicates, compiled into f, and re-slots the referenced columns into tuples. It
// re-indexes the read's arrivals at, in place, to the rows it keeps: a row
// filtered out hands its arrival on to the next row kept.
func (q *query) scanDerived(b *binding, wide bool, at sim.Arrivals, f *predFilter) ([]tuple, sim.Arrivals) {
	sub, rows, d := b.sub, q.execs[b.idx].derived, &b.derived
	f.compile(q.execs[b.idx].local)
	preds := f.preds
	out := make([]tuple, 0, len(rows))
	q.slab.reserve(len(rows), q.tupleWidth(b, wide))
	k := 0 // the next arrival to re-index
rows:
	for n, r := range rows {
		for ; k < len(at) && at[k].I <= n; k++ {
			at[k].I = len(out)
		}
		for i := range preds {
			var rv []byte
			if preds[i].colVsCol {
				rv = sub.value(r, d.pos[i][1])
			}
			if !preds[i].holds(sub.value(r, d.pos[i][0]), rv) {
				continue rows
			}
		}
		vals, seg := q.newVals(b, wide)
		t := tuple{vals: vals, size: d.nameBytes}
		for i, j := range d.src {
			seg[i] = sub.value(r, j)
		}
		for _, j := range d.sized {
			t.size += valueSize(sub.value(r, j))
		}
		out = append(out, t)
	}
	for ; k < len(at); k++ {
		at[k].I = len(out)
	}
	return out, at
}

// fullPlan is a binding's access plan from its local predicates alone (no
// join-derived equalities): what the first scan of a statement and a hash
// join's build side read by. It is chosen once per execution.
func (q *query) fullPlan(b *binding) accessPlan {
	x := &q.execs[b.idx]
	if b.sub != nil {
		return accessPlan{kind: accessFullScan, rowsEst: len(x.derived)}
	}
	if !x.planned {
		x.plan, x.planned = q.chooseAccess(b, nil), true
	}
	return x.plan
}

// Key tags: every component of a join or group key is self-delimiting — a
// tag byte, then a fixed 8-byte payload or a length-prefixed one — so
// distinct value lists can never encode alike.
const (
	keyNull   = 0
	keyInt    = 1 // any number with an exact int64 value, int64(5) ≡ float64(5)
	keyFloat  = 2
	keyString = 3
)

// appendKey appends the hash key of the encoded values vals[slots...] to buf:
// values of different types, or different values of one type, never share a
// key, except that a number keys alike as int64 and as float64. Callers reuse
// buf across rows; a keyTable copies the keys it keeps.
func appendKey(buf []byte, vals [][]byte, slots []int) []byte {
	for _, s := range slots {
		switch v := vals[s]; RawCellKind(v) {
		case CellInt:
			buf = append(append(buf, keyInt), v[1:9]...) // stored big-endian, as the key wants it
		case CellFloat:
			if x := RawCellFloat(v); float64(int64(x)) == x {
				buf = binary.BigEndian.AppendUint64(append(buf, keyInt), uint64(int64(x)))
			} else {
				buf = append(append(buf, keyFloat), v[1:9]...)
			}
		case CellString:
			buf = append(binary.AppendUvarint(append(buf, keyString), uint64(len(v)-1)), v[1:]...)
		default:
			buf = append(buf, keyNull)
		}
	}
	return buf
}
