package phoenix

import (
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

func (l *list) Next(*sim.Ctx) (tuple, bool) {
	if len(l.rows) == 0 {
		return tuple{}, false
	}
	t := l.rows[0]
	l.rows = l.rows[1:]
	return t, true
}

// taker is a node that can hand over, whole, the rows it materialized at Open
// — to a consumer that keeps them all (rowsOf).
type taker interface{ take() ([]tuple, bool) }

func (l *list) take() ([]tuple, bool) {
	rows := l.rows
	l.rows = nil
	return rows, true
}

// rowsOf opens n and reads it to its end for a consumer that keeps every row:
// a node that materialized its rows at Open hands them over as they are, and
// a limit cuts its input's rows. Reading that input to its end costs what
// reading the first n does: a store scan directly under a limit has it pushed
// in and stops there, and anything else under one reads the store at Open.
func rowsOf(ctx *sim.Ctx, n node) ([]tuple, error) {
	if l, ok := n.(*limitNode); ok {
		rows, err := rowsOf(ctx, l.in)
		return rows[:min(l.n, len(rows))], err
	}
	if err := n.Open(ctx); err != nil {
		return nil, err
	}
	defer n.Close(ctx)
	if m, ok := n.(taker); ok {
		if rows, ok := m.take(); ok {
			return rows, nil
		}
	}
	var rows []tuple
	for t, ok := n.Next(ctx); ok; t, ok = n.Next(ctx) {
		rows = append(rows, t)
	}
	return rows, nil
}

// tree builds the operators of one execution, bottom up: the scan of the
// binding with the cheapest access path, joined with the other bindings one at
// a time — first one an equi-join links to what is joined so far, in FROM
// order, else the next in FROM order as a cartesian product — then the
// residual filter, the aggregate, the sort and the limit. keep says the reader
// of the tree keeps every row, as a derived table's enclosing query does.
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
	scan := &scanNode{q: q, b: start, path: path, wide: true, keep: keep || sorts || len(q.bindings) > 1}
	var root node = scan
	joined := map[*binding]bool{start: true}
	for len(joined) < len(q.bindings) {
		var next *binding
		var outer, inner []colRef
		for _, b := range q.bindings {
			if joined[b] {
				continue
			}
			if next == nil {
				next = b
			}
			if o, i := q.joinCols(joined, b); len(o) > 0 {
				next, outer, inner = b, o, i
				break
			}
		}
		joined[next] = true
		root = &joinNode{q: q, outer: root, b: next, outerCols: outer, innerCols: inner, spill: len(joined) < len(q.bindings)}
	}
	if len(q.residual) > 0 {
		root = &filterNode{q: q, in: root}
	}
	if q.aggregated {
		agg := &aggNode{g: newGroups(q.Plan), in: root}
		if q.fold {
			scan.g = agg.g // the aggregate runs under the scan, on the regions
		}
		root = agg
	}
	if sorts {
		root = &sortNode{q: q, in: root}
	}
	if q.sel.Limit > 0 {
		if root == scan {
			scan.limit = q.sel.Limit
		}
		root = &limitNode{in: root, n: q.sel.Limit}
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
	limit      int     // pushed into the store scan: the LIMIT is the scan's parent
	g          *groups // the aggregate folding on the regions (Plan.fold)
	sc         hbase.RowStream
	buf        tuple    // the streamed row, filled again by every Next
	seg        [][]byte // b's segment of buf
}

// streams reports whether the scan hands out store rows as it reads them.
func (s *scanNode) streams() bool {
	return s.b.sub == nil && s.g == nil && !s.q.dirtyChecked(s.b)
}

func (s *scanNode) Open(ctx *sim.Ctx) error {
	q, b := s.q, s.b
	if b.sub != nil {
		q.chargeRead(ctx, b)
		s.rows = q.scanDerived(b, s.wide)
		return nil
	}
	tbl, spec, err := q.scanSpec(b, s.path)
	if err != nil {
		return err
	}
	if !q.dirtyChecked(b) {
		spec.Limit = s.limit
	}
	if s.streams() {
		s.sc, err = q.openScan(ctx, tbl, spec)
		return err
	}
	if s.g != nil {
		spec.Fold = q.newRegionFold
	}
	return q.read(ctx, tbl, spec, q.dirtyChecked(b), s.add, s.undo)
}

// add takes one row of a read: into the list, or into the fold's groups — a
// partial group a region folded, or a stored row a reader that cannot fold
// streamed instead, merged in scan order.
func (s *scanNode) add(r hbase.RowResult) {
	switch {
	case s.g == nil:
		s.rows = append(s.rows, s.q.scanTuple(s.b, r, s.wide))
	case isPartial(r):
		s.g.merge(r)
	default:
		s.g.addRow(s.b.refs, r.Cells)
	}
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

// take hands over what the scan read at Open; a streaming scan has nothing.
func (s *scanNode) take() ([]tuple, bool) {
	if s.sc != nil {
		return nil, false
	}
	return s.list.take()
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
// the other on the caller, as a fanned-out scan's units do.
type joinNode struct {
	list
	q                    *query
	outer                node
	b                    *binding
	outerCols, innerCols []colRef // outerCols[i] of the outer tuple must equal innerCols[i] of b
	spill                bool     // the output is carried into another join
	outerCtx, innerCtx   sim.Ctx  // the branches of a join that reads its sides at once
}

func (j *joinNode) Open(ctx *sim.Ctx) error {
	plan, inl := j.inlPlan()
	if !inl {
		return j.overlap(ctx)
	}
	outer, err := rowsOf(ctx, j.outer)
	if err != nil || len(outer) == 0 {
		return err
	}
	if len(outer) <= j.q.eng.costs.INLThreshold {
		return j.probe(ctx, outer, plan)
	}
	inner, err := j.inner(ctx)
	if err != nil {
		return err
	}
	j.hash(ctx, outer, inner, j.build(ctx, inner))
	return nil
}

// overlap joins a join that cannot probe b by key: it reads outer on one
// branch and b on the other, building b's hash table there too, then charges
// the request the longer branch, the probe and the spill.
func (j *joinNode) overlap(ctx *sim.Ctx) error {
	outer, err := rowsOf(&j.outerCtx, j.outer)
	var inner []tuple
	var t hashTable
	if err == nil {
		inner, err = j.inner(&j.innerCtx)
		if err == nil && len(j.outerCols) > 0 {
			t = j.build(&j.innerCtx, inner)
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
	for _, o := range outer {
		for _, in := range inner {
			j.rows = append(j.rows, j.q.merge(o, j.b, in))
		}
	}
	ctx.Charge(sim.Micros(int64(len(j.rows)) * int64(j.q.eng.costs.JoinProbeRow)))
	return nil
}

// inner reads b whole, through its local predicates: a hash join's build side.
func (j *joinNode) inner(ctx *sim.Ctx) ([]tuple, error) {
	return rowsOf(ctx, &scanNode{q: j.q, b: j.b, path: j.q.fullPlan(j.b), keep: true})
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

// inlPlan checks whether table b can be probed by key for the join columns
// (plus its local equalities), returning the probe plan. What outer holds
// does not enter into it.
func (j *joinNode) inlPlan() (accessPlan, bool) {
	b := j.b
	if len(j.innerCols) == 0 || b.info == nil {
		return accessPlan{}, false
	}
	var small [4]string
	joinCols := small[:0]
	for _, c := range j.innerCols {
		joinCols = append(joinCols, b.refs[c.i])
	}
	plan := j.q.chooseAccess(b, joinCols)
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

// hashTable is a hash join's build side: inner's distinct join keys, numbered,
// and its rows chained through next from the first one read with each key
// (head, by key id) — the build walks inner backwards to get that — so matches
// come out in the order they were read.
type hashTable struct {
	keys       *keyTable
	head, next []int32
}

// build hashes inner on b's join columns, charging JoinBuildRow per row.
func (j *joinNode) build(ctx *sim.Ctx, inner []tuple) hashTable {
	slots := make([]int, len(j.innerCols))
	for i, c := range j.innerCols {
		slots[i] = c.i
	}
	t := hashTable{keys: newKeyTable(len(inner))}
	links := make([]int32, 2*len(inner))
	t.head, t.next = links[:len(inner)], links[len(inner):]
	var key []byte
	for i := len(inner) - 1; i >= 0; i-- {
		key = appendKey(key[:0], inner[i].vals, slots)
		id, added := t.keys.insert(key)
		t.next[i] = -1
		if !added {
			t.next[i] = t.head[id]
		}
		t.head[id] = int32(i)
	}
	ctx.Charge(sim.Micros(int64(len(inner)) * int64(j.q.eng.costs.JoinBuildRow)))
	return t
}

// hash probes t, built on inner, with every outer row, charging JoinProbeRow
// per outer row, and the spill of an output carried into another join.
func (j *joinNode) hash(ctx *sim.Ctx, outer, inner []tuple, t hashTable) {
	costs := j.q.eng.costs
	slots := make([]int, len(j.outerCols))
	for i, c := range j.outerCols {
		slots[i] = c.slot()
	}
	var key []byte
	for _, o := range outer {
		key = appendKey(key[:0], o.vals, slots)
		if id := t.keys.find(key); id >= 0 {
			for i := t.head[id]; i >= 0; i = t.next[i] {
				j.rows = append(j.rows, j.q.merge(o, j.b, inner[i]))
			}
		}
	}
	ctx.Charge(sim.Micros(int64(len(outer)) * int64(costs.JoinProbeRow)))

	if j.spill && len(j.rows) > 0 {
		// Intermediate result carried into another stage: materialize and
		// spill (§III: joins are expensive in the NoSQL store).
		var bytes int
		for _, t := range j.rows {
			bytes += t.size
		}
		ctx.Charge(sim.Micros(int64(len(j.rows)) * int64(costs.IntermediateRow)))
		ctx.Charge(costs.SpillPerByte.Mul(bytes))
	}
}

// probe runs the index nested loop: one read of b per outer tuple, a Get when
// the probe binds b's whole row key and a prefix scan otherwise. A probe that
// meets a dirty view row is read again from the top (read) — this outer
// tuple's matches, not the whole join — so the join never comes back short.
func (j *joinNode) probe(ctx *sim.Ctx, outer []tuple, plan accessPlan) error {
	q, b := j.q, j.b
	// Each key column of the probe takes its value from the outer tuple
	// (probeSlot >= 0) or, once for all probes, from a local equality.
	probeSlot := make([]int, len(plan.eqCols))
	vals := make([]schema.Value, len(plan.eqCols))
	for k, c := range plan.eqCols {
		probeSlot[k] = -1
		for i, in := range j.innerCols {
			if b.refs[in.i] == c {
				probeSlot[k] = j.outerCols[i].slot()
			}
		}
		vals[k], _ = localEqValue(q.execs[b.idx].local, c)
	}
	tbl := plan.table(b)
	filter, cols := scanFilter(plan.filter), q.columnSet(b, plan.filter) // one of each for every probe
	for _, o := range outer {
		for k, s := range probeSlot {
			if s >= 0 {
				vals[k] = DecodeValue(o.vals[s]) // the row key is built from typed values
			}
		}
		// A prefix probe is a short scan; fanning it out would cost more
		// than it overlaps.
		spec := hbase.ScanSpec{Read: q.opts.Read, Sequential: true, Filter: filter, Columns: cols}
		plan.keyRange(b, vals, &spec)
		n := len(j.rows)
		err := q.read(ctx, tbl, spec, q.dirtyChecked(b), func(r hbase.RowResult) {
			t := q.merge(o, b, tuple{size: q.spillSize(b, r)})
			copyRefs(b.refs, r.Cells, t.vals[b.off:])
			// Re-check join equality (defensive; prefix probes guarantee it).
			for i, in := range j.innerCols {
				if compareCells(t.vals[in.slot()], o.vals[j.outerCols[i].slot()]) != 0 {
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
	rows, err := rowsOf(ctx, s.in)
	if err != nil {
		return err
	}
	if n := len(rows); n > 1 {
		ctx.Charge(sim.Micros(int64(n) * int64(bits.Len(uint(n))) * int64(s.q.eng.costs.SortRow)))
	}
	keys := s.q.orderBy
	slots := make([]int, len(keys))
	for i, k := range keys {
		slots[i] = k.src.slot()
	}
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
