package phoenix

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
func localEqValue(local []localPred, col string) (schema.Value, bool) {
	for _, p := range local {
		if !p.colVsCol && p.op == sqlparser.OpEq && p.col == col {
			return p.value, true
		}
	}
	return nil, false
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
		f, _ := v.(float64)
		if p.col != col || p.colVsCol || p.op == sqlparser.OpEq || p.op == sqlparser.OpNe || !ok || v == nil || math.IsNaN(f) {
			if absorbed > 0 {
				rest = append(rest, p)
			}
			continue
		}
		if absorbed++; absorbed == 1 {
			rest = local[:i:i] // rest parts from local here: appends copy
		}
		var buf [64]byte
		part := schema.AppendKey(buf[:0], v)
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
// that would walk on to the region's end. An open lower end starts at the
// first non-NULL part (tag 0x02): a NULL satisfies no comparison, as the
// filter had it. A value its key column cannot hold equals no key, and the
// range is empty (see openScan), as it is under contradictory bounds.
func (p accessPlan) keyRange(b *binding, vals []schema.Value, spec *hbase.ScanSpec) {
	for i, c := range p.eqCols {
		typ, _ := b.info.Col(c)
		var ok bool
		if vals[i], ok = coerce(typ, vals[i]); !ok {
			spec.Start, spec.Stop = noKey, noKey
			return
		}
	}
	keyLen := len(b.info.Key)
	if p.kind == accessIndexPrefix {
		keyLen += len(p.index.On)
	}
	if len(p.eqCols) == keyLen {
		spec.Start = schema.EncodeKey(vals...)
		spec.Stop = spec.Start + "\x00"
		return
	}
	prefix := schema.KeyPrefix(vals...)
	if p.lo == "" && p.hi == "" {
		spec.Prefix = prefix
		return
	}
	spec.Start, spec.Stop = prefix+"\x02", prefix+noKey
	if p.lo != "" {
		spec.Start = prefix + p.lo
	}
	if p.hi != "" {
		spec.Stop = prefix + p.hi
	}
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
	return spec.Start, spec.Prefix == "" && len(spec.Stop) == n+1 && spec.Stop[n] == 0 && spec.Stop[:n] == spec.Start
}

// openScan opens a binding scan through the query's reader: an explicit
// Reader when one is set (an OCC transaction's tracking view), else the
// transaction overlay view (read-your-writes), else the plain store client.
// Every table read of a query funnels through here, which is what makes it
// the read-set capture choke point. A key range that holds no key is read
// here, with no RPC and nothing for a read set to track; one that holds a
// single key is that row's Get on the same reader, under the same spec — a
// point in the read set, not a range — streamed as one row.
func (q *query) openScan(ctx *sim.Ctx, tbl string, spec hbase.ScanSpec) (hbase.RowStream, error) {
	if spec.Stop != "" && spec.Start >= spec.Stop {
		return noRows{}, nil
	}
	var rd hbase.Reader = q.eng.client
	switch {
	case q.opts.Reader != nil:
		rd = q.opts.Reader
	case q.opts.View != nil:
		rd = q.opts.View
	}
	if key, ok := singleRow(spec); ok {
		r, err := rd.GetRow(ctx, tbl, key, spec)
		if err != nil {
			return nil, err
		}
		return &oneRow{r}, nil
	}
	return rd.OpenScan(ctx, tbl, spec)
}

// columnSet is the qualifiers a scan of table binding b reads under the pushed
// filter preds: the columns the statement reads of it, the ones the filter
// compares, the dirty marker where the scan checks it, and a key column when
// none of those is one — a stored row always carries its key, so a row whose
// wanted columns are all NULL still comes back (the part Phoenix's empty key
// value plays). It is nil when the statement reads every column: a SELECT *
// scans as it did before scans named their columns.
func (q *query) columnSet(b *binding, preds []localPred) *hbase.ColumnSet {
	if len(b.refs) == len(b.cols) {
		return nil
	}
	quals := append(make([]string, 0, len(b.refs)+2*len(preds)+2), b.refs...)
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
	return hbase.NewColumnSet(quals...)
}

// scanSpec builds the store scan of a table binding under its access plan:
// the key range its local equalities and range conjuncts bind, the rest of its
// local predicates as the pushed-down filter, and the columns it reads. A scan
// spanning several regions scatter-gathers across them (Phoenix intra-query
// parallelism); a single-row lookup spans one.
func (q *query) scanSpec(b *binding, plan accessPlan) (string, hbase.ScanSpec, error) {
	spec := hbase.ScanSpec{Read: q.opts.Read, Filter: scanFilter(plan.filter), Reversed: plan.reversed, Columns: q.columnSet(b, plan.filter)}
	if plan.kind != accessFullScan {
		vals := make([]schema.Value, 0, len(plan.eqCols))
		for _, c := range plan.eqCols {
			v, ok := localEqValue(q.execs[b.idx].local, c)
			if !ok {
				return "", spec, fmt.Errorf("phoenix: internal: missing eq value for %s.%s", b.name, c)
			}
			vals = append(vals, v)
		}
		plan.keyRange(b, vals, &spec)
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
	if !wide {
		vals = q.slab.take(len(b.refs))
		return vals, vals
	}
	vals = q.slab.take(q.width)
	return vals, vals[b.off:]
}

// scanTuple turns a scanned row into a tuple.
func (q *query) scanTuple(b *binding, r hbase.RowResult, wide bool) tuple {
	vals, seg := q.newVals(b, wide)
	copyRefs(b.refs, r.Cells, seg)
	return tuple{vals: vals, size: q.spillSize(b, r)}
}

// scanBinding fetches a binding's rows via its access plan, applying all
// local predicates (pushed down server-side) and converting to tuples.
func (q *query) scanBinding(ctx *sim.Ctx, b *binding, plan accessPlan, wide bool) ([]tuple, error) {
	if b.sub != nil {
		return q.scanDerived(b, wide), nil
	}
	tableName, spec, err := q.scanSpec(b, plan)
	if err != nil {
		return nil, err
	}
	if b.info.IsView && q.opts.OnViewScan != nil {
		if err := q.opts.OnViewScan(ctx, b.info.Name); err != nil {
			return nil, err
		}
	}

	dirtyChecked := q.opts.DirtyCheck && b.info.IsView
	for attempt := 0; ; attempt++ {
		sc, err := q.openScan(ctx, tableName, spec)
		if err != nil {
			return nil, err
		}
		var out []tuple
		dirty := false
		for {
			r, ok := sc.Next(ctx)
			if !ok {
				break
			}
			if dirtyChecked && IsDirty(r) {
				dirty = true
				sc.Close(ctx) // abandon in-flight region fetches
				break
			}
			out = append(out, q.scanTuple(b, r, wide))
		}
		if !dirty {
			return out, nil
		}
		// §VIII-C: "if a marked row is present ... re-scan".
		if err := q.restart(ctx, tableName, attempt); err != nil {
			return nil, err
		}
	}
}

// restart accounts for the attempt-th read of tableName (from 0) that met a
// dirty row and waits before the next one, or fails with ErrDirtyRead once
// the MaxRestarts budget (default 50) is spent.
func (q *query) restart(ctx *sim.Ctx, tableName string, attempt int) error {
	ctx.CountRestart()
	ctx.Charge(q.eng.costs.DirtyRestartPenalty)
	maxRestarts := q.opts.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 50
	}
	if attempt+1 >= maxRestarts {
		return fmt.Errorf("%w: %s after %d restarts", ErrDirtyRead, tableName, attempt+1)
	}
	// The penalty is the modeled wait; the writer that marked the row is a
	// real goroutine between its mark and un-mark barriers. Back off in real
	// time too (1 µs doubling to 1 ms), or the budget is spent in one
	// writer's marked window — a descheduled writer's most of all.
	time.Sleep(time.Duration(1<<min(attempt, 10)) * time.Microsecond)
	return nil
}

// scanDerived filters a derived table's materialized rows by the binding's
// local predicates and re-slots the referenced columns into tuples.
func (q *query) scanDerived(b *binding, wide bool) []tuple {
	sub := q.execs[b.idx].derived
	preds := compilePreds(q.execs[b.idx].local)
	pos := make([][2]int, len(preds)) // positions of col and rcol in a derived row
	for i, p := range preds {
		pos[i] = [2]int{b.colPos(p.col), b.colPos(p.rcol)}
	}
	src := make([]int, len(b.refs))
	for i, c := range b.refs {
		src[i] = b.colPos(c)
	}
	// The spill footprint counts each distinct non-literal column once.
	var sized []int
	nameBytes := 0
	if q.spills {
		for j, c := range b.cols {
			if !sub.out[j].literal && b.colPos(c) == j {
				sized = append(sized, j)
				nameBytes += len(b.name) + 1 + len(c)
			}
		}
	}

	out := make([]tuple, 0, len(sub.rows))
rows:
	for _, d := range sub.rows {
		for i := range preds {
			var r []byte
			if preds[i].colVsCol {
				r = sub.value(d, pos[i][1])
			}
			if !preds[i].holds(sub.value(d, pos[i][0]), r) {
				continue rows
			}
		}
		vals, seg := q.newVals(b, wide)
		t := tuple{vals: vals, size: nameBytes}
		for i, j := range src {
			seg[i] = sub.value(d, j)
		}
		for _, j := range sized {
			t.size += valueSize(sub.value(d, j))
		}
		out = append(out, t)
	}
	return out
}

// ---------------------------------------------------------------------------
// Join execution

func (q *query) run(ctx *sim.Ctx) ([]tuple, error) {
	if len(q.bindings) == 0 {
		return nil, fmt.Errorf("phoenix: no FROM bindings")
	}
	// Pick the start binding: cheapest access.
	var start *binding
	var startPlan accessPlan
	for i, b := range q.bindings {
		plan := q.fullPlan(b)
		if i == 0 || plan.rowsEst < startPlan.rowsEst {
			start, startPlan = b, plan
		}
	}
	current, err := q.scanBinding(ctx, start, startPlan, true)
	if err != nil {
		return nil, err
	}
	q.inOrder = startPlan.ordered
	joined := map[*binding]bool{start: true}
	remaining := make([]*binding, 0, len(q.bindings)-1)
	for _, b := range q.bindings {
		if b != start {
			remaining = append(remaining, b)
		}
	}

	for len(remaining) > 0 {
		// Prefer a binding connected to the joined set by equi-joins.
		picked := -1
		for i, b := range remaining {
			if outer, _ := q.joinCols(joined, b); len(outer) > 0 {
				picked = i
				break
			}
		}
		cartesian := false
		if picked < 0 {
			picked = 0
			cartesian = true
		}
		b := remaining[picked]
		remaining = append(remaining[:picked], remaining[picked+1:]...)

		if cartesian {
			current, err = q.cartesianJoin(ctx, current, b)
		} else {
			current, err = q.joinBinding(ctx, current, b, joined, len(remaining) > 0)
		}
		if err != nil {
			return nil, err
		}
		joined[b] = true
	}

	// Residual cross-binding predicates.
	if len(q.residual) > 0 {
		kept := current[:0]
	tuples:
		for _, t := range current {
			for _, p := range q.residual {
				if !compareOK(compareCells(t.vals[p.l.slot()], t.vals[p.r.slot()]), p.op) {
					continue tuples
				}
			}
			kept = append(kept, t)
		}
		current = kept
	}
	return current, nil
}

// fullPlan is a binding's access plan from its local predicates alone (no
// join-derived equalities): what a stream, a start scan or a hash join's
// build side uses. It is chosen once per execution.
func (q *query) fullPlan(b *binding) accessPlan {
	x := &q.execs[b.idx]
	if b.sub != nil {
		return accessPlan{kind: accessFullScan, rowsEst: len(x.derived.rows)}
	}
	if !x.planned {
		x.plan, x.planned = q.chooseAccess(b, nil), true
	}
	return x.plan
}

// joinCols returns the equi-join conditions linking the joined set to
// binding b as parallel column lists: outer[i] (in the joined tuple) must
// equal inner[i] (a column of b).
func (q *query) joinCols(joined map[*binding]bool, b *binding) (outer, inner []colRef) {
	for _, j := range q.joins {
		switch {
		case joined[j.l.b] && j.r.b == b:
			outer, inner = append(outer, j.l), append(inner, j.r)
		case joined[j.r.b] && j.l.b == b:
			outer, inner = append(outer, j.r), append(inner, j.l)
		}
	}
	return outer, inner
}

// merge builds a join's output tuple: the outer tuple with the inner
// binding's segment copied in.
func (q *query) merge(o tuple, b *binding, in tuple) tuple {
	vals := q.slab.take(q.width)
	copy(vals, o.vals)
	copy(vals[b.off:], in.vals)
	return tuple{vals: vals, size: o.size + in.size}
}

// joinBinding joins the current intermediate result with binding b. It uses
// an index nested-loop when the outer side is small and the inner side has a
// usable key; otherwise a client hash join over a full (filtered) scan, which
// is where the Phoenix join-algorithm cost of Figure 10 comes from.
func (q *query) joinBinding(ctx *sim.Ctx, outer []tuple, b *binding, joined map[*binding]bool, moreStages bool) ([]tuple, error) {
	outerCols, innerCols := q.joinCols(joined, b)

	if b.info != nil && len(outer) > 0 && len(outer) <= q.eng.costs.INLThreshold {
		names := make([]string, len(innerCols))
		for i, c := range innerCols {
			names[i] = b.refs[c.i]
		}
		if plan, ok := q.inlPlan(b, names); ok {
			return q.indexNestedLoop(ctx, outer, b, plan, outerCols, innerCols)
		}
	}

	// Hash join: scan inner fully (with local filters pushed down), number
	// its distinct keys, probe with outer. Rows sharing a key chain through
	// next from the first one read (head, by key id) — the build walks inner
	// backwards to get that — so matches come out in the order they were read.
	inner, err := q.scanBinding(ctx, b, q.fullPlan(b), false)
	if err != nil {
		return nil, err
	}
	costs := q.eng.costs
	innerSlots := make([]int, len(innerCols))
	outerSlots := make([]int, len(outerCols))
	for i := range innerCols {
		innerSlots[i], outerSlots[i] = innerCols[i].i, outerCols[i].slot()
	}
	keys := newKeyTable(len(inner))
	links := make([]int32, 2*len(inner))
	head, next := links[:len(inner)], links[len(inner):]
	var key []byte
	for i := len(inner) - 1; i >= 0; i-- {
		key = appendKey(key[:0], inner[i].vals, innerSlots)
		id, added := keys.insert(key)
		next[i] = -1
		if !added {
			next[i] = head[id]
		}
		head[id] = int32(i)
	}
	ctx.Charge(sim.Micros(int64(len(inner)) * int64(costs.JoinBuildRow)))

	var out []tuple
	for _, o := range outer {
		key = appendKey(key[:0], o.vals, outerSlots)
		if id := keys.find(key); id >= 0 {
			for i := head[id]; i >= 0; i = next[i] {
				out = append(out, q.merge(o, b, inner[i]))
			}
		}
	}
	ctx.Charge(sim.Micros(int64(len(outer)) * int64(costs.JoinProbeRow)))

	if moreStages && len(out) > 0 {
		// Intermediate result carried into another stage: materialize
		// and spill (§III: joins are expensive in the NoSQL store).
		var bytes int
		for _, t := range out {
			bytes += t.size
		}
		ctx.Charge(sim.Micros(int64(len(out)) * int64(costs.IntermediateRow)))
		ctx.Charge(costs.SpillPerByte.Mul(bytes))
	}
	return out, nil
}

// inlPlan checks whether binding b can be probed by key for the given join
// columns (plus its local equalities), returning the probe plan.
func (q *query) inlPlan(b *binding, joinCols []string) (accessPlan, bool) {
	plan := q.chooseAccess(b, joinCols)
	if plan.kind == accessFullScan || len(plan.eqCols) == 0 {
		return plan, false
	}
	// Every join column must be part of the bound prefix; otherwise the
	// probe would miss conditions (they are re-checked anyway, but an
	// unbound join column means the probe isn't selective).
	for _, c := range joinCols {
		if !slices.Contains(plan.eqCols, c) {
			return plan, false
		}
	}
	return plan, true
}

// indexNestedLoop probes the inner table once per outer tuple: a Get when the
// probe binds the whole row key, a prefix scan otherwise. A probe that meets a
// dirty view row is read again from the top, under scanBinding's restart
// budget, so the join never comes back short.
func (q *query) indexNestedLoop(ctx *sim.Ctx, outer []tuple, b *binding, plan accessPlan, outerCols, innerCols []colRef) ([]tuple, error) {
	if b.info.IsView && q.opts.OnViewScan != nil {
		if err := q.opts.OnViewScan(ctx, b.info.Name); err != nil {
			return nil, err
		}
	}
	// Each key column of the probe takes its value from the outer tuple
	// (probeSlot >= 0) or from a local equality (probeConst).
	probeSlot := make([]int, len(plan.eqCols))
	probeConst := make([]schema.Value, len(plan.eqCols))
	for k, c := range plan.eqCols {
		probeSlot[k] = -1
		for i, in := range innerCols {
			if b.refs[in.i] == c {
				probeSlot[k] = outerCols[i].slot()
			}
		}
		if probeSlot[k] >= 0 {
			continue
		}
		v, ok := localEqValue(q.execs[b.idx].local, c)
		if !ok {
			return nil, fmt.Errorf("phoenix: internal: INL probe missing values")
		}
		probeConst[k] = v
	}
	tableName := plan.table(b)
	filter, cols := scanFilter(plan.filter), q.columnSet(b, plan.filter) // one of each for every probe
	dirtyChecked := q.opts.DirtyCheck && b.info.IsView
	vals := make([]schema.Value, len(plan.eqCols))
	var out []tuple
	for _, o := range outer {
		for k, s := range probeSlot {
			if s >= 0 {
				vals[k] = DecodeValue(o.vals[s]) // the row key is built from typed values
			} else {
				vals[k] = probeConst[k]
			}
		}
		// A prefix probe is a short scan; the scatter-gather fan-out would
		// cost more than it overlaps.
		spec := hbase.ScanSpec{Read: q.opts.Read, Sequential: true, Filter: filter, Columns: cols}
		plan.keyRange(b, vals, &spec)
		for attempt := 0; ; attempt++ {
			n := len(out)
			sc, err := q.openScan(ctx, tableName, spec)
			if err != nil {
				return nil, err
			}
			dirty := false
		rows:
			for {
				r, ok := sc.Next(ctx)
				if !ok {
					break
				}
				if dirtyChecked && IsDirty(r) {
					dirty = true
					sc.Close(ctx)
					break
				}
				t := q.merge(o, b, tuple{size: q.spillSize(b, r)})
				copyRefs(b.refs, r.Cells, t.vals[b.off:])
				// Re-check join equality (defensive; prefix probes
				// guarantee it).
				for i, in := range innerCols {
					if compareCells(t.vals[in.slot()], o.vals[outerCols[i].slot()]) != 0 {
						continue rows
					}
				}
				out = append(out, t)
			}
			if !dirty {
				break
			}
			// Drop what the probe read before the marked row and read it
			// again: this outer tuple's matches, not the whole join.
			out = out[:n]
			if err := q.restart(ctx, tableName, attempt); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func (q *query) cartesianJoin(ctx *sim.Ctx, outer []tuple, b *binding) ([]tuple, error) {
	inner, err := q.scanBinding(ctx, b, q.fullPlan(b), false)
	if err != nil {
		return nil, err
	}
	var out []tuple
	for _, o := range outer {
		for _, in := range inner {
			out = append(out, q.merge(o, b, in))
		}
	}
	ctx.Charge(sim.Micros(int64(len(out)) * int64(q.eng.costs.JoinProbeRow)))
	return out, nil
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

// ---------------------------------------------------------------------------
// Aggregation, ordering, projection

// projected is a statement's result before it is keyed by column name: rows
// in result order, each still in the layout of the stage that produced it,
// and the output columns saying where in a row each one reads and what type
// the plan gives it. The outermost statement serves it through a cursor; a
// derived table hands it to the enclosing query as is.
type projected struct {
	out   []outCol
	types []schema.ColType // parallel to out, see query.outTypes
	rows  []tuple
}

// value reads output column j of row t (nil for a literal item).
func (p *projected) value(t tuple, j int) []byte {
	if p.out[j].literal {
		return nil
	}
	return t.vals[p.out[j].src.slot()]
}

// project runs the post-join stages: aggregation, ORDER BY, LIMIT.
func (q *query) project(ctx *sim.Ctx, tuples []tuple) *projected {
	costs := q.eng.costs
	sel := q.sel

	if q.aggregated {
		tuples = q.aggregate(ctx, tuples)
	}

	// The one sort of the executor — skipped, with its charge, when the scan
	// already delivered the rows in this order.
	if len(sel.OrderBy) > 0 && !q.inOrder {
		n := len(tuples)
		if n > 1 {
			ctx.Charge(sim.Micros(int64(n) * int64(bits.Len(uint(n))) * int64(costs.SortRow)))
		}
		slots := make([]int, len(q.orderBy))
		for i, k := range q.orderBy {
			slots[i] = k.src.slot()
		}
		slices.SortStableFunc(tuples, func(a, b tuple) int {
			for k, s := range slots {
				if cmp := compareCells(a.vals[s], b.vals[s]); cmp != 0 {
					if q.orderBy[k].desc {
						return -cmp
					}
					return cmp
				}
			}
			return 0
		})
	}

	if sel.Limit > 0 && len(tuples) > sel.Limit {
		tuples = tuples[:sel.Limit]
	}
	return &projected{out: q.out, types: q.types, rows: tuples}
}

// aggState is one aggregate's running state within one group: the non-NULL
// values seen, the sum of the numeric ones, and the least and greatest — kept
// as the encoded cells they arrived as.
type aggState struct {
	count    int64
	sum      float64
	min, max []byte
}

// add folds one encoded value in; a NULL counts for nothing.
func (st *aggState) add(v []byte) {
	x := rawOfCell(v)
	if x.kind == CellNull {
		return
	}
	st.count++
	if x.kind == CellFloat {
		st.sum += x.num
	}
	if st.count == 1 || compareRaw(x, rawOfCell(st.min)) < 0 {
		st.min = v
	}
	if st.count == 1 || compareRaw(x, rawOfCell(st.max)) > 0 {
		st.max = v
	}
}

// appendResult appends fn's value over the folded cells to buf, encoded as a
// cell, and returns the grown buffer with the value's window in it (nil for
// NULL: no value folded). MIN and MAX are the stored cells themselves. A SUM
// with an exact int64 value is an integer, whatever its arguments were.
func (st *aggState) appendResult(buf []byte, fn string) (grown, val []byte) {
	at := len(buf)
	switch {
	case fn == "COUNT":
		buf = appendIntCell(buf, st.count)
	case st.count == 0:
		return buf, nil
	case fn == "MIN":
		return buf, st.min
	case fn == "MAX":
		return buf, st.max
	case fn == "AVG":
		buf = appendFloatCell(buf, st.sum/float64(st.count))
	case fn == "SUM" && st.sum == float64(int64(st.sum)):
		buf = appendIntCell(buf, int64(st.sum))
	case fn == "SUM":
		buf = appendFloatCell(buf, st.sum)
	}
	return buf, buf[at:len(buf):len(buf)]
}

// aggregate evaluates GROUP BY + aggregate select items. Each output row
// holds one slot per select item — the aggregate's value, or a plain column
// carried over from the group's first row — followed by the GROUP BY key
// values. A group is its key's id in a keyTable: its state lives in two flat
// arrays indexed by that id and the computed values of every output row in
// one buffer, so groups come out in first-seen order and cost no allocation
// each.
func (q *query) aggregate(ctx *sim.Ctx, tuples []tuple) []tuple {
	groupSlots := make([]int, len(q.groupBy))
	for i, c := range q.groupBy {
		groupSlots[i] = c.slot()
	}
	n := len(q.aggs)
	argSlots := make([]int, n)
	for i, a := range q.aggs {
		if !a.star {
			argSlots[i] = a.arg.slot()
		}
	}

	groups := newKeyTable(32)
	var reps []tuple      // each group's first row, by group id
	var states []aggState // n per group
	var key []byte
	for _, t := range tuples {
		key = appendKey(key[:0], t.vals, groupSlots)
		id, added := groups.insert(key)
		gi := int(id)
		if added {
			reps = append(reps, t)
			states = append(states, make([]aggState, n)...)
		}
		for i, a := range q.aggs {
			switch {
			case a.fn == "":
			case a.star:
				states[gi*n+i].count++
			default:
				states[gi*n+i].add(t.vals[argSlots[i]])
			}
		}
	}
	ctx.Charge(sim.Micros(int64(len(tuples)) * int64(q.eng.costs.AggRow)))

	out := make([]tuple, len(reps))
	buf := make([]byte, 0, 9*n*len(reps)) // a computed value is a 9-byte number
	for gi, rep := range reps {
		vals := q.slab.take(n + len(groupSlots))
		for i, a := range q.aggs {
			if a.fn == "" {
				vals[i] = rep.vals[argSlots[i]]
			} else {
				buf, vals[i] = states[gi*n+i].appendResult(buf, a.fn)
			}
		}
		for i, s := range groupSlots {
			vals[n+i] = rep.vals[s]
		}
		out[gi] = tuple{vals: vals}
	}
	return out
}
