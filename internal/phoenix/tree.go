package phoenix

import (
	"math"
	"math/bits"
	"slices"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
)

// node is one operator of an opened statement. Open readies it — a blocking
// node reads its whole input there — Next hands out its next row, and Close
// releases what it still holds, a region scanner above all. Errors are Open's
// alone: once rows flow, a read cannot fail.
//
// The tuple Next returns may be a buffer the node fills again on the following
// call; a consumer that keeps rows gets its input built to keep them (see
// scanNode.keep).
type node interface {
	Open(ctx *sim.Ctx) error
	Next(ctx *sim.Ctx) (tuple, bool)
	Close(ctx *sim.Ctx)
}

// list is what a blocking node embeds to hand out the rows it materialized
// at Open.
type list struct{ rows []tuple }

func (l *list) Close(*sim.Ctx) { l.rows = nil }

// left is how many rows the node still holds.
func (l *list) left() int { return len(l.rows) }

func (l *list) Next(*sim.Ctx) (tuple, bool) {
	if len(l.rows) == 0 {
		return tuple{}, false
	}
	t := l.rows[0]
	l.rows = l.rows[1:]
	return t, true
}

// taker is a node that can hand over, whole, the rows it materialized at Open
// — to a consumer that keeps them all (rowsOf) — with when they came in, if
// not all at the end of Open.
type taker interface {
	take() ([]tuple, sim.Arrivals, bool)
}

func (l *list) take() ([]tuple, sim.Arrivals, bool) {
	rows := l.rows
	l.rows = nil
	return rows, nil, true
}

// rowsOf opens n, a node of q's tree, and reads it to its end for a consumer
// that keeps every row: a node that materialized its rows at Open hands them
// over as they are, and a limit cuts its input's rows. Reading that input to
// its end costs what reading the first n does: a store scan directly under a
// limit has it pushed in and stops there, and anything else under one reads
// the store at Open.
//
// For a consumer that paces on the rows (joinNode.build), at gets the read's
// arrivals on ctx's clock. A sequential store scan hands its rows one chunk
// per RPC; a fanned-out one hands them all at its first row's charge
// (hbase.Scanner), save the last row of one its LIMIT ends, which comes with
// the join of its units at the read's end; and rows materialized at Open come
// when it returns — a derived table's as its own read handed them
// (scanNode.take).
func (q *query) rowsOf(ctx *sim.Ctx, n node, at *sim.Arrivals) ([]tuple, error) {
	if l, ok := n.(*limitNode); ok {
		rows, err := q.rowsOf(ctx, l.in, at)
		return rows[:min(l.n, len(rows))], err
	}
	if err := n.Open(ctx); err != nil {
		return nil, err
	}
	defer n.Close(ctx)
	if m, ok := n.(taker); ok {
		if rows, came, ok := m.take(); ok {
			if at != nil {
				*at = came
			}
			return rows, nil
		}
	}
	if s, ok := n.(*scanNode); ok {
		// A streamed store scan keeps its rows in its list, sized as a read's
		// are (add).
		for r, ok := s.sc.Next(ctx); ok; r, ok = s.sc.Next(ctx) {
			s.add(r)
			at.Note(len(s.rows)-1, ctx.Elapsed())
		}
		return s.rows, nil
	}
	var rows []tuple
	for t, ok := n.Next(ctx); ok; t, ok = n.Next(ctx) {
		if len(rows) == cap(rows) {
			rows = append(q.rowList(max(2*len(rows), 8)), rows...)
		}
		rows = append(rows, t)
		at.Note(len(rows)-1, ctx.Elapsed())
	}
	return rows, nil
}

// tree builds the operators of one execution, bottom up, in the execution's
// block: the scan of the binding with the cheapest access path, joined with
// the other bindings one at a time in the order the plan fixed for that start
// (Plan.joinOrder), then the residual filter, the aggregate, the sort and the
// limit. keep says the reader of the tree keeps every row, as a derived
// table's enclosing query does.
//
// Nothing in the tree of a single-table statement blocks unless it must: the
// scan streams unless it checks for dirty view rows, and there is no sort when
// the scan's key order is the ORDER BY.
func (q *query) tree(keep bool) node {
	start, path := q.bindings[0], q.fullPlan(q.bindings[0])
	for _, b := range q.bindings[1:] {
		if p := q.fullPlan(b); p.rowsEst < path.rowsEst {
			start, path = b, p
		}
	}
	sorts := len(q.sel.OrderBy) > 0 && !path.ordered
	scan := &q.scan
	*scan = scanNode{q: q, b: start, path: path, wide: true, keep: keep || sorts || len(q.bindings) > 1,
		filter: predFilter{preds: scan.filter.preds}} // the list the block's last execution emptied
	var root node = scan
	if steps := q.joinOrders[start.idx]; len(steps) > 0 {
		if q.joins == nil {
			q.joins = make([]joinNode, len(steps))
		}
		for i := range steps {
			j := &q.joins[i]
			*j = joinNode{q: q, outer: root, joinStep: &steps[i], spill: i < len(steps)-1, table: j.table}
			root = j
		}
	}
	if len(q.residual) > 0 {
		q.filter = filterNode{q: q, in: root}
		root = &q.filter
	}
	if q.aggregated {
		q.groups.p = q.Plan
		q.agg = aggNode{g: &q.groups, in: root}
		if q.fold {
			scan.g = &q.groups // the aggregate runs under the scan, on the regions
		}
		root = &q.agg
	}
	if sorts {
		q.sort = sortNode{q: q, in: root}
		root = &q.sort
	}
	if q.sel.Limit > 0 {
		if root == scan {
			scan.limit = q.sel.Limit
		}
		q.limit = limitNode{in: root, n: q.sel.Limit}
		root = &q.limit
	}
	return root
}

// scanNode reads one binding's rows through its access path: a table's from
// the store (scanSpec), a derived table's from the rows its subquery left
// (scanDerived). A table scan streams, one store row per Next, unless it
// checks for dirty view rows or carries the region fold: then it reads to its
// end at Open, through the one restart loop (read), and hands out what it
// read. Its tuples are wide — the full joined layout — for the statement's
// first binding; a streamed one is a buffer every Next fills again unless the
// consumer keeps its rows (keep).
type scanNode struct {
	list
	q          *query
	b          *binding
	path       accessPlan
	wide, keep bool
	sized      bool    // rows has room for what the plan or the scanner's first chunk said
	limit      int     // pushed into the store scan: the LIMIT is the scan's parent
	g          *groups // the aggregate folding on the regions (Plan.fold)
	sc         hbase.RowStream
	one        oneRow        // backs sc for a single-row key range
	scanner    hbase.Scanner // backs sc for any other range
	filter     predFilter    // the filter the scan pushes to the store
	few        [1]tuple      // backs rows for a point read
	buf        tuple         // the streamed row, filled again by every Next
	seg        [][]byte      // b's segment of buf
	at         sim.Arrivals  // when a derived table's rows came in, on the request's clock
}

// streams reports whether the scan hands out store rows as it reads them.
func (s *scanNode) streams() bool {
	return s.b.sub == nil && s.g == nil && !s.q.dirtyChecked(s.b)
}

func (s *scanNode) Open(ctx *sim.Ctx) error {
	q, b := s.q, s.b
	if b.sub != nil {
		s.rows, s.at = q.scanDerived(b, s.wide, q.chargeRead(ctx, b), &s.filter)
		return nil
	}
	tbl, spec, err := q.scanSpec(b, s.path, &s.filter)
	if err != nil {
		return err
	}
	if !q.dirtyChecked(b) {
		spec.Limit = s.limit
	}
	if s.g == nil && (s.keep || !s.streams()) {
		// Its rows are kept: sized, with their values, by the count the plan
		// knows, and by the scanner's first chunk otherwise (grow).
		n := s.expect()
		s.rows, s.sized = s.few[:0], n > 0
		if n > len(s.few) {
			s.rows = q.rowList(n)
		}
		q.slab.reserve(n, q.tupleWidth(b, s.wide))
	}
	if s.streams() {
		s.sc, err = q.openScan(ctx, tbl, spec, &s.one, &s.scanner)
		return err
	}
	if s.g != nil {
		spec.Fold = q.newRegionFold
	}
	return q.read(ctx, tbl, spec, q.dirtyChecked(b), &s.one, &s.scanner, s.add, s.undo)
}

// expect is how many rows the scan hands out when its plan can tell: one for
// a bound key, the table's for a read of the whole table with no filter, and
// its LIMIT's n when that is fewer or the plan cannot tell; never more than
// the table holds when the scan reads all of it. 0 means it cannot tell.
func (s *scanNode) expect() int {
	p := s.path
	n, most := 0, math.MaxInt
	if len(p.eqCols) == 0 && p.lo == "" && p.hi == "" { // the whole table
		most = p.rowsEst
		if len(p.filter) == 0 {
			n = most
		}
	}
	if p.rowsEst == 1 {
		n = 1
	}
	if s.limit > 0 && (n == 0 || s.limit < n) {
		n = s.limit
	}
	return min(n, most)
}

// add takes one row of a read: into the list, or into the fold's groups — a
// partial group a region folded, or a stored row a reader that cannot fold
// streamed instead, merged in scan order. A list the plan could not size
// (expect) grows to hold at least the rest of the scanner's chunk at once.
func (s *scanNode) add(r hbase.RowResult) {
	switch {
	case s.g == nil:
		if len(s.rows) == cap(s.rows) || !s.sized {
			s.grow()
		}
		s.rows = append(s.rows, s.q.scanTuple(s.b, r, s.wide))
	case isPartial(r):
		s.g.merge(r)
	default:
		s.g.addRow(s.b.refs, r.Cells)
	}
}

// grow makes room in the list for the row being added and the rest of the
// scanner's chunk, rows the scan returns whatever follows: at the first row of
// a list the plan could not size (expect), and whenever the list is full, when
// it also at least doubles it. The tuples' values are reserved with it.
func (s *scanNode) grow() {
	n := len(s.rows) + 1 + s.scanner.Buffered()
	if len(s.rows) == cap(s.rows) {
		n = max(n, 2*cap(s.rows))
	}
	if n > cap(s.rows) {
		s.rows = append(s.q.rowList(n), s.rows...)
	}
	s.q.slab.reserve(n-len(s.rows), s.q.tupleWidth(s.b, s.wide))
	s.sized = true
}

// undo drops what a read that met a dirty row added.
func (s *scanNode) undo() {
	s.rows = s.rows[:0]
	if s.g != nil {
		s.g.reset()
	}
}

func (s *scanNode) Next(ctx *sim.Ctx) (tuple, bool) {
	if s.sc == nil {
		return s.list.Next(ctx)
	}
	r, ok := s.sc.Next(ctx)
	if !ok {
		return tuple{}, false
	}
	if s.keep {
		return s.q.scanTuple(s.b, r, s.wide), true
	}
	if s.buf.vals == nil {
		s.buf.vals, s.seg = s.q.newVals(s.b, s.wide)
	}
	copyRefs(s.b.refs, r.Cells, s.seg)
	s.buf.size = s.q.spillSize(s.b, r)
	return s.buf, true
}

// take hands over what the scan read at Open, and a derived table's arrivals;
// a streaming scan has nothing.
func (s *scanNode) take() ([]tuple, sim.Arrivals, bool) {
	if s.sc != nil {
		return nil, nil, false
	}
	rows, _, ok := s.list.take()
	at := s.at
	s.at = nil
	return rows, at, ok
}

func (s *scanNode) Close(ctx *sim.Ctx) {
	if s.sc != nil {
		s.sc.Close(ctx)
		s.sc = nil
	}
	s.list.Close(ctx)
}

// joinNode joins the rows of outer — the bindings joined so far — with binding
// b: by index nested loop when outer holds few rows and b has a key the join
// columns bind, else by a client hash join over a full (filtered) scan of b,
// which is where the Phoenix join-algorithm cost of Figure 10 comes from; with
// no equi-join between them, as a cartesian product. It joins at Open.
//
// A join that can probe b by key reads its sides one after the other, since
// the outer side's row count picks the algorithm, and an outer side with no
// row reads nothing of b. Any other join — b a derived table, no key or index
// prefix of b bound by the join columns, or no join columns at all — hashes
// or crosses whatever outer holds, so it reads its two sides at once: outer on
// one branch of the request, b and its hash table on the other, and the
// request waits for the longer before it probes. The branches run one after
// the other on the caller, as a fanned-out scan's units do. Either way a hash
// join builds its table as b's rows come in, not once b's read has ended
// (build).
type joinNode struct {
	list
	*joinStep
	q                  *query
	outer              node
	spill              bool           // the output is carried into another join
	outerCtx, innerCtx sim.Ctx        // the branches of a join that reads its sides at once
	arrived            [4]sim.Arrival // backs the build side's arrivals while it has few
	// innerScan reads b whole for a hash join's build side (inner). An
	// execution runs one join algorithm, so an INL join's probes, which read
	// nothing whole, read through its oneRow, Scanner and filter instead, one
	// probe after another.
	innerScan scanNode
	table     hashTable // a hash join's, kept by the block for its next execution
}

func (j *joinNode) Open(ctx *sim.Ctx) error {
	plan, inl := j.inlPlan()
	if !inl {
		return j.overlap(ctx)
	}
	outer, err := j.q.rowsOf(ctx, j.outer, nil)
	if err != nil || len(outer) == 0 {
		return err
	}
	if len(outer) <= j.q.eng.costs.INLThreshold {
		return j.probe(ctx, outer, plan)
	}
	inner, at, err := j.inner(ctx)
	if err != nil {
		return err
	}
	j.hash(ctx, outer, inner, j.build(ctx, inner, at))
	return nil
}

// overlap joins a join that cannot probe b by key: it reads outer on one
// branch and b on the other, building b's hash table there too, then charges
// the request the longer branch, the probe and the spill.
func (j *joinNode) overlap(ctx *sim.Ctx) error {
	outer, err := j.q.rowsOf(&j.outerCtx, j.outer, nil)
	var inner []tuple
	var t *hashTable
	if err == nil {
		var at sim.Arrivals
		inner, at, err = j.inner(&j.innerCtx)
		if err == nil && len(j.outerCols) > 0 {
			t = j.build(&j.innerCtx, inner, at)
		}
	}
	ctx.Join(&j.outerCtx, &j.innerCtx)
	if err != nil {
		return err
	}
	if len(j.outerCols) > 0 {
		j.hash(ctx, outer, inner, t)
		return nil
	}
	j.rows = j.q.rowList(len(outer) * len(inner))
	j.q.slab.reserve(len(outer)*len(inner), j.q.width)
	for _, o := range outer {
		for _, in := range inner {
			j.rows = append(j.rows, j.q.merge(o, j.b, in))
		}
	}
	ctx.Charge(sim.Micros(int64(len(j.rows)) * int64(j.q.eng.costs.JoinProbeRow)))
	return nil
}

// inner reads b whole, through its local predicates: a hash join's build side,
// with when its rows came in.
func (j *joinNode) inner(ctx *sim.Ctx) ([]tuple, sim.Arrivals, error) {
	at := sim.Arrivals(j.arrived[:0])
	j.innerScan = scanNode{q: j.q, b: j.b, path: j.q.fullPlan(j.b), keep: true}
	rows, err := j.q.rowsOf(ctx, &j.innerScan, &at)
	return rows, at, err
}

// merge builds a join's output tuple: the outer tuple with the inner
// binding's segment copied in.
func (q *query) merge(o tuple, b *binding, in tuple) tuple {
	vals := q.slab.take(q.width)
	copy(vals, o.vals)
	copy(vals[b.off:], in.vals)
	return tuple{vals: vals, size: o.size + in.size}
}

// inlPlan checks whether table b can be probed by key for the join columns
// (plus its local equalities), returning the probe plan. What outer holds
// does not enter into it.
func (j *joinNode) inlPlan() (accessPlan, bool) {
	b := j.b
	if len(j.innerCols) == 0 || b.info == nil {
		return accessPlan{}, false
	}
	plan := j.q.chooseAccess(b, j.innerNames)
	if plan.kind == accessFullScan || len(plan.eqCols) == 0 {
		return plan, false
	}
	// Every join column must be part of the bound prefix; otherwise the
	// probe would miss conditions (they are re-checked anyway, but an
	// unbound join column means the probe isn't selective).
	for _, c := range j.innerNames {
		if !slices.Contains(plan.eqCols, c) {
			return plan, false
		}
	}
	return plan, true
}

// hashTable is a hash join's build side: inner's distinct join keys, numbered,
// and its rows chained through next from the first one read with each key
// (head, by key id) — the build walks inner backwards to get that — so matches
// come out in the order they were read.
type hashTable struct {
	keys       keyTable
	head, next []int32 // windows of links
	links      []int32
}

// release empties the table for its block's next execution.
func (t *hashTable) release() {
	t.keys.release()
	t.head, t.next, t.links = nil, nil, hbase.Emptied(t.links, maxKept)
}

// first returns the first row read with key, -1 for none.
func (t *hashTable) first(key []byte) int32 {
	if id := t.keys.find(key); id >= 0 {
		return t.head[id]
	}
	return -1
}

// build hashes inner on b's join columns, charging JoinBuildRow per row as it
// paces on the rows' arrivals (at, from rowsOf). ctx stands at the end of
// inner's read, and the branch ends no earlier: never after the read and a
// whole build in sequence either — which is what a build side with every row
// in hand only at its end pays, a dirty-checked view's or a blocking
// subquery's.
func (j *joinNode) build(ctx *sim.Ctx, inner []tuple, at sim.Arrivals) *hashTable {
	t := &j.table
	t.keys.ready(len(inner))
	t.links = slices.Grow(t.links[:0], 2*len(inner))[:2*len(inner)]
	t.head, t.next = t.links[:len(inner)], t.links[len(inner):]
	var small [64]byte
	key := small[:0]
	for i := len(inner) - 1; i >= 0; i-- {
		key = appendKey(key[:0], inner[i].vals, j.innerSlots)
		id, added := t.keys.insert(key)
		t.next[i] = -1
		if !added {
			t.next[i] = t.head[id]
		}
		t.head[id] = int32(i)
	}
	read := ctx.Elapsed()
	ctx.Charge(at.Pace(read, len(inner), j.q.eng.costs.JoinBuildRow) - read)
	return t
}

// hash probes t, built on inner, with every outer row, charging JoinProbeRow
// per outer row, and the spill of an output carried into another join. A
// first pass counts the output and its footprint, so its rows come from one
// array and one slab reservation.
func (j *joinNode) hash(ctx *sim.Ctx, outer, inner []tuple, t *hashTable) {
	costs := j.q.eng.costs
	var small [64]byte
	key := small[:0]
	n, bytes := 0, 0
	for _, o := range outer {
		key = appendKey(key[:0], o.vals, j.outerSlots)
		for i := t.first(key); i >= 0; i = t.next[i] {
			n, bytes = n+1, bytes+o.size+inner[i].size
		}
	}
	j.rows = j.q.rowList(n)
	j.q.slab.reserve(n, j.q.width)
	for _, o := range outer {
		key = appendKey(key[:0], o.vals, j.outerSlots)
		for i := t.first(key); i >= 0; i = t.next[i] {
			j.rows = append(j.rows, j.q.merge(o, j.b, inner[i]))
		}
	}
	ctx.Charge(sim.Micros(int64(len(outer)) * int64(costs.JoinProbeRow)))

	if j.spill && n > 0 {
		// Intermediate result carried into another stage: materialize and
		// spill (§III: joins are expensive in the NoSQL store).
		ctx.Charge(sim.Micros(int64(n) * int64(costs.IntermediateRow)))
		ctx.Charge(costs.SpillPerByte.Mul(bytes))
	}
}

// probe runs the index nested loop: one read of b per outer tuple, a Get when
// the probe binds b's whole row key and a prefix scan otherwise. A probe that
// meets a dirty view row is read again from the top (read) — this outer
// tuple's matches, not the whole join — so the join never comes back short.
//
// The probes share what does not depend on the outer tuple: one filter, one
// column set and one scanner, the join's. Their key ranges are built back to
// back first, from the outer tuples' encoded values, into one string — cut
// from the session's block (QueryOpts.Strings) — that every probe's Start and
// Stop are cut from.
func (j *joinNode) probe(ctx *sim.Ctx, outer []tuple, plan accessPlan) error {
	q, b := j.q, j.b
	// Each key column of the probe takes its value from the outer tuple
	// (probeSlot >= 0) or, once for all probes, from a local equality.
	var slotBuf [8]int
	var valBuf [8]schema.Arg
	var typBuf [8]schema.ColType
	probeSlot, vals, typs := slotBuf[:0], valBuf[:0], typBuf[:0]
	for _, c := range plan.eqCols {
		slot := -1
		for i, name := range j.innerNames {
			if name == c {
				slot = j.outerSlots[i]
			}
		}
		v, _ := localEqValue(q.execs[b.idx].local, c)
		typ, _ := b.info.Col(c)
		probeSlot, vals, typs = append(probeSlot, slot), append(vals, v), append(typs, typ)
	}
	var keyBuf [512]byte
	var winBuf [32]keyWindow
	buf, wins := keyBuf[:0], winBuf[:0]
	for _, o := range outer {
		from, ok := len(buf), true
		for k, s := range probeSlot {
			if s >= 0 {
				buf, ok = appendKeyCell(buf, k, typs[k], o.vals[s])
			} else {
				buf, ok = appendKeyValue(buf, k, typs[k], vals[k])
			}
			if !ok {
				break
			}
		}
		w := keyWindow{empty: true}
		if ok {
			buf, w = plan.closeRange(b, buf, from)
		} else {
			buf = buf[:from]
		}
		wins = append(wins, w)
	}
	keys := q.opts.Strings.Cut(buf)

	tbl := plan.table(b)
	probe := &j.innerScan
	filter, cols := probe.filter.compile(plan.filter), q.columnSet(b, plan.filter)
	// Most probes find a row or none: the outer side's count sizes the output.
	j.rows = q.rowList(len(outer))
	q.slab.reserve(len(outer), q.width)
	for i, o := range outer {
		// A prefix probe is a short scan; fanning it out would cost more
		// than it overlaps.
		spec := hbase.ScanSpec{Read: q.opts.Read, Sequential: true, Filter: filter, Columns: cols}
		wins[i].set(keys, &spec)
		n := len(j.rows)
		err := q.read(ctx, tbl, spec, q.dirtyChecked(b), &probe.one, &probe.scanner, func(r hbase.RowResult) {
			t := q.merge(o, b, tuple{size: q.spillSize(b, r)})
			copyRefs(b.refs, r.Cells, t.vals[b.off:])
			// Re-check join equality (defensive; prefix probes guarantee it).
			for i, in := range j.innerCols {
				if compareCells(t.vals[in.slot()], o.vals[j.outerSlots[i]]) != 0 {
					return
				}
			}
			j.rows = append(j.rows, t)
		}, func() { j.rows = j.rows[:n] })
		if err != nil {
			return err
		}
	}
	return nil
}

// filterNode passes the rows of its input that hold the residual cross-binding
// conditions.
type filterNode struct {
	q  *query
	in node
}

func (f *filterNode) Open(ctx *sim.Ctx) error { return f.in.Open(ctx) }
func (f *filterNode) Close(ctx *sim.Ctx)      { f.in.Close(ctx) }

func (f *filterNode) Next(ctx *sim.Ctx) (tuple, bool) {
rows:
	for t, ok := f.in.Next(ctx); ok; t, ok = f.in.Next(ctx) {
		for _, p := range f.q.residual {
			if !compareOK(compareCells(t.vals[p.l.slot()], t.vals[p.r.slot()]), p.op) {
				continue rows
			}
		}
		return t, true
	}
	return tuple{}, false
}

// aggNode is the statement's GROUP BY and aggregates, read at Open: its input's
// rows folded into g — or, when the input is the scan carrying the fold
// (Plan.fold), the partial groups the regions folded, which that scan merged
// into g as it read them, handing out no row of its own.
type aggNode struct {
	list
	g  *groups
	in node
}

func (a *aggNode) Open(ctx *sim.Ctx) error {
	if err := a.in.Open(ctx); err != nil {
		return err
	}
	if in, ok := a.in.(interface{ left() int }); ok {
		a.g.reserve(in.left()) // a join's output, a derived table's rows
	}
	for t, ok := a.in.Next(ctx); ok; t, ok = a.in.Next(ctx) {
		a.g.add(t.vals)
	}
	a.in.Close(ctx)
	a.rows = a.g.finish(ctx)
	return nil
}

// sortNode is the executor's one sort, ORDER BY over its input, read at Open
// and charged SortRow per row and comparison level. A statement whose scan
// delivers the order from the key has none.
type sortNode struct {
	list
	q  *query
	in node
}

func (s *sortNode) Open(ctx *sim.Ctx) error {
	rows, err := s.q.rowsOf(ctx, s.in, nil)
	if err != nil {
		return err
	}
	if n := len(rows); n > 1 {
		ctx.Charge(sim.Micros(int64(n) * int64(bits.Len(uint(n))) * int64(s.q.eng.costs.SortRow)))
	}
	keys, slots := s.q.orderBy, s.q.orderSlots
	slices.SortStableFunc(rows, func(a, b tuple) int {
		for k, slot := range slots {
			if cmp := compareCells(a.vals[slot], b.vals[slot]); cmp != 0 {
				if keys[k].desc {
					return -cmp
				}
				return cmp
			}
		}
		return 0
	})
	s.rows = rows
	return nil
}

// limitNode hands out the first n rows of its input. Directly over a scan it
// has the store stop there too (scanNode.limit).
type limitNode struct {
	in node
	n  int
}

func (l *limitNode) Open(ctx *sim.Ctx) error { return l.in.Open(ctx) }
func (l *limitNode) Close(ctx *sim.Ctx)      { l.in.Close(ctx) }

func (l *limitNode) Next(ctx *sim.Ctx) (tuple, bool) {
	if l.n == 0 {
		return tuple{}, false
	}
	l.n--
	return l.in.Next(ctx)
}
