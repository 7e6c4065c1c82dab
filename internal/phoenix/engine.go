package phoenix

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// Engine executes SQL against the catalog's store, as the client-embedded
// Phoenix JDBC driver does: it "transforms the SQL query into a series of
// HBase scans and coordinates the execution of scans" (§II-D). Join,
// aggregation and sort work happens client-side and is charged to the
// request context via the cost model — except the aggregation of a single
// table, which the regions compute on their own rows, as Phoenix's
// server-side aggregation does (see groups).
type Engine struct {
	cat    *Catalog
	client *hbase.Client
	costs  *sim.Costs
}

// NewEngine returns an engine with a warm store client (long-running
// application servers hold warm connections; the cold-client path is
// exercised explicitly by the Figure 11 experiment).
func NewEngine(cat *Catalog) *Engine {
	return &Engine{cat: cat, client: cat.Store().NewWarmClient(), costs: cat.Store().Costs()}
}

// Client exposes the engine's store client.
func (e *Engine) Client() *hbase.Client { return e.client }

// Catalog exposes the engine's catalog.
func (e *Engine) Catalog() *Catalog { return e.cat }

// QueryOpts control read execution: which versions a statement sees and which
// reader serves its scans. They never change how rows are represented — every
// option runs the same executor (see tuple), and every scan it opens carries
// the same compiled pushdown filter, a pure predicate over a row's encoded
// cells that a Reader may evaluate over pooled rows on either side of its
// merge (see predFilter).
type QueryOpts struct {
	// Read applies MVCC visibility filters to every scan and get.
	Read hbase.ReadOpts
	// DirtyCheck enables the Synergy read-committed protocol (§VIII-C):
	// scans over views re-start when they observe a dirty-marked row, at
	// most maxRestarts times.
	DirtyCheck bool
	// Reader, when set, serves every scan and point lookup instead of the
	// store client. A transaction passes its read-your-writes overlay view,
	// so its queries read their own uncommitted rows; an OCC transaction
	// passes its read-set-tracking reader (wrapping that view), so the
	// openScan choke point records every range the query touched, and every
	// row it read by its whole key as a point.
	Reader hbase.Reader
	// Commit, when set, is the transaction the statement reads in alone —
	// an MVCC autocommit read's snapshot — which the cursor's Close commits,
	// returning the commit's error.
	Commit Committer
	// Strings, when set, is the session's block the execution cuts its key
	// bounds and probe keys from; nil allocates them.
	Strings *StringBlock
}

// Committer is a transaction a statement's cursor commits at its Close
// (QueryOpts.Commit).
type Committer interface {
	Commit(ctx *sim.Ctx) error
}

// ResultSet is the client-visible output of a query: rows keyed by column
// name, decoded from the executor's encoded tuples at this boundary and
// nowhere before it.
type ResultSet struct {
	Columns []string
	Rows    []schema.Row
	// Types are the columns' types from the statement's plan (see
	// RowCursor.Types); nil on a result set built by hand.
	Types []schema.ColType
}

// ColumnTypes returns the plan's column types. A hand-built result set (a
// sysvar reply) has none and is typed from its values: the first non-NULL
// value of each column decides (int64 → TInt, float64 → TFloat, string →
// TString); an all-NULL column defaults to TString.
func (rs *ResultSet) ColumnTypes() []schema.ColType {
	if rs.Types != nil {
		return rs.Types
	}
	out := make([]schema.ColType, len(rs.Columns))
	for i, col := range rs.Columns {
		out[i] = schema.TString
		for _, r := range rs.Rows {
			switch r[col].(type) {
			case int64:
				out[i] = schema.TInt
			case float64:
				out[i] = schema.TFloat
			case string:
				out[i] = schema.TString
			default:
				continue
			}
			break
		}
	}
	return out
}

// Query compiles and executes a SELECT.
func (e *Engine) Query(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (*ResultSet, error) {
	return e.QueryOpts(ctx, sel, params, QueryOpts{})
}

// QueryOpts is Query with explicit execution options: QueryStreamOpts
// compiles and opens the statement, and its cursor is drained into a
// ResultSet.
func (e *Engine) QueryOpts(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value, opts QueryOpts) (*ResultSet, error) {
	cur, err := e.QueryStreamOpts(ctx, sel, params, opts)
	if err != nil {
		return nil, err
	}
	return DrainCursor(ctx, cur)
}

// ---------------------------------------------------------------------------
// Compilation

// Plan is a SELECT compiled against the catalog: everything about the
// statement that neither a parameter's value nor the store's contents can
// change. Compile resolves the FROM bindings (a derived table compiles
// recursively), classifies the WHERE conjuncts into per-binding filters,
// equi-joins and residual conditions — each constant operand a literal or a
// parameter slot — resolves the select list, GROUP BY and ORDER BY with the
// result's names and types, lays the columns the statement reads out into
// tuple slots, and lists every table binding's candidate access paths. Open
// runs it: an execution binds the parameters into the conjuncts, runs the
// derived tables, and builds its tree of operators (query.tree) from what
// values and the store decide — the key bounds a constant puts on each path
// (keyBounds), the row estimates and so the join order, the columns a scan
// ships; each join picks hash join or index nested loop by the rows its outer
// side holds.
//
// A Plan is immutable once compiled, so one plan serves any number of
// executions. It keeps the catalog's table descriptors as they were when it
// was compiled. The one thing it holds that changes is spare, the block of
// the last execution closed, which the next execution reopens (query).
type Plan struct {
	eng      *Engine
	sel      *sqlparser.SelectStmt
	bindings []*binding
	joins    []crossPred // cross-binding equi-joins
	residual []crossPred // everything else cross-binding
	width    int         // slots of a joined tuple
	spills   bool        // a hash-join stage may carry its output into another

	// Output plan. A plain statement sorts and projects joined tuples; an
	// aggregated one sorts and projects aggregate output rows, laid out as
	// one slot per select item followed by one per GROUP BY column.
	aggregated bool
	groupBy    []colRef
	aggs       []aggItem // parallel to sel.Items when aggregated
	// groupSlots and argSlots are where in an input row the GROUP BY values
	// and each aggregate's argument lie (argSlots[i] unused for COUNT(*)).
	groupSlots, argSlots []int
	// fold marks an aggregate over one table — no join, no derived table —
	// which aggregates where its rows live: its scan carries a fold (see
	// groups).
	fold    bool
	orderBy []orderKey
	out     []outCol
	names   []string         // parallel to out
	types   []schema.ColType // parallel to out, see outTypes

	// What an execution would otherwise work out again from the plan alone:
	// the slots of the ORDER BY keys, the joins of the tree from each binding
	// it may start with (see query.tree), and how many conjuncts an execution
	// binds to parameter values (query.locals).
	orderSlots []int
	joinOrders [][]joinStep // by the start binding's idx
	nlocal     int

	spare atomic.Pointer[query]
}

// Columns lists the result's column names and Types their types, as every
// cursor Open returns reports them. Both are the plan's: do not modify them.
func (p *Plan) Columns() []string       { return p.names }
func (p *Plan) Types() []schema.ColType { return p.types }

// value reads result column j off t, a row of the plan's output (nil for a
// literal item).
func (p *Plan) value(t tuple, j int) []byte {
	if p.out[j].literal {
		return nil
	}
	return t.vals[p.out[j].src.slot()]
}

// tuple is the executor's internal row: one encoded cell value (type tag +
// payload, see EncodeValue) per slot of the statement's layout, nil for NULL.
// Nothing between the scan and the result boundary decodes a value: keys,
// comparisons and aggregates read the encoding (appendKey, compareRaw,
// aggState), the wire server encodes row packets from it (RowCursor.RawValue),
// and only ResultSet rows and index-nested-loop probe keys hold decoded
// values. Only columns the statement reads get a slot (select list, join,
// residual, group and order keys; every column for SELECT *). Binding b's
// referenced column b.refs[i] lives at slot b.off+i of a joined tuple, so a
// join's output is the outer tuple with the inner binding's segment copied
// in. Aggregate output rows are positional in their output columns instead
// (see groups), and a derived table's rows are in its subquery's layout.
//
// A slot is a window onto value bytes somebody else owns — a store file
// block, a memstore cell, a transaction's pending write, an aggregate's output
// buffer — kept under the package's value-lifetime rule (see the package
// comment): the store's bytes are immutable and never recycled, an
// aggregate's are written again only by a later execution of its plan, and a
// tuple pins the blocks it points into for as long as it lives. vals are
// carved from the slab of the execution that built the tuple and live until
// its Close, which clears them and hands the slab, with the rest of the
// block, to the plan's next execution (query): no two executions hold one
// block at once. What executions share is the Plan, which nothing writes once
// Compile returns but for its spare block.
//
// size is the encoded footprint of the cells the scans behind the tuple
// carried — every column of a binding read whole, the scan's column set
// (query.columnSet) of one that is not — which is what a join stage carrying
// the tuple forward spills (SpillPerByte): a client that asked for three
// columns spills three. It is maintained only for statements that can spill
// (Plan.spills).
type tuple struct {
	vals [][]byte
	size int
}

// tupleSlab hands out tuples' value slices from shared arrays — a few tuples
// in the first, doubling to a few hundred — so a scanned row costs no
// allocation of its own. A node that knows how many tuples it is about to
// build reserves them first, so they come from one array. It belongs to one
// execution block, which keeps the arrays for its plan's next execution.
type tupleSlab struct {
	free   [][]byte
	chunk  int // tuples in the last array
	arrays kept[[]byte]
}

const maxSlabTuples = 512

func (s *tupleSlab) take(n int) [][]byte {
	if n > len(s.free) {
		s.chunk = min(max(2*s.chunk, 4), maxSlabTuples)
		s.free = s.arrays.take(n * s.chunk)
	}
	vals := s.free[:n:n]
	s.free = s.free[n:]
	return vals
}

// reserve readies the slab to hand out n tuples of width w from one array;
// the arrays after it grow from there.
func (s *tupleSlab) reserve(n, w int) {
	if n*w > len(s.free) {
		s.free = s.arrays.take(n * w)
		s.chunk = max(s.chunk, min(n, maxSlabTuples))
	}
}

func (s *tupleSlab) release() {
	s.free, s.chunk = nil, 0
	s.arrays.release()
}

// maxKept is the most bytes an execution block keeps of any one array, and
// of the arrays of one kind together, for its plan's next execution: one
// large result pins nothing.
const maxKept = 16 << 10

// sizeOf is the bytes of an array of s's capacity.
func sizeOf[T any](s []T) int {
	var v T
	return cap(s) * int(unsafe.Sizeof(v))
}

// kept is the arrays of one element type an execution block takes, kept for
// its plan's next execution. An execution of one plan asks for its arrays in
// much the same order and sizes as the last, so the array kept at each place
// in that order fits again and nothing is allocated; one that is too small
// is replaced by a larger.
type kept[T any] struct {
	arrays [][]T
	next   int    // the place of the next array taken
	few    [4][]T // backs arrays while there are few
}

// take returns the next array, of at least n values, full length.
func (k *kept[T]) take(n int) []T {
	if k.arrays == nil {
		k.arrays = k.few[:0]
	}
	if k.next == len(k.arrays) {
		k.arrays = append(k.arrays, nil)
	}
	a := k.arrays[k.next]
	if cap(a) < n {
		a = make([]T, n)
		k.arrays[k.next] = a
	}
	k.next++
	return a[:cap(a)]
}

// release clears the arrays taken, and keeps them for the next execution up
// to maxKept bytes in all.
func (k *kept[T]) release() {
	total := 0
	for i, a := range k.arrays {
		if total+sizeOf(a) > maxKept {
			k.arrays[i] = nil
			continue
		}
		total += sizeOf(a)
		if i < k.next {
			clear(a[:cap(a)])
		}
	}
	k.next = 0
}

type binding struct {
	name   string
	idx    int         // position in FROM, and of the binding's state in query.execs
	info   *TableInfo  // nil for derived tables
	sub    *Plan       // a derived table's compiled subquery
	cols   []string    // column names this binding exposes
	local  []localPred // single-binding conjuncts, pushed into the scan
	params bool        // a conjunct in local takes its constant from a parameter
	refs   []string    // columns the statement reads, in slot order
	off    int         // slot of refs[0] in a joined tuple
	paths  []accessPath
	desc   bool // the ORDER BY a path in paths delivers runs backwards through its key
	// A derived table's layout (see scanDerived): where each conjunct's
	// columns and each of refs lie in a derived row, the output columns a
	// spill footprint counts, and the bytes of their names.
	derived derivedCols
	sets    columnSets // the column sets the binding's scans read (columnSet)
}

func (b *binding) hasColumn(col string) bool {
	if b.info != nil {
		return b.info.HasColumn(col)
	}
	return b.colPos(col) >= 0
}

// colPos returns the position of col in the binding's exposed columns — the
// output column of a derived row — or -1. Of two derived columns with one
// name the later shadows the earlier, as it does in a ResultSet row.
func (b *binding) colPos(col string) int {
	for i := len(b.cols) - 1; i >= 0; i-- {
		if b.cols[i] == col {
			return i
		}
	}
	return -1
}

// ref gives col a slot in the binding's segment (once) and returns its index
// there.
func (b *binding) ref(col string) int {
	for i, c := range b.refs {
		if c == col {
			return i
		}
	}
	b.refs = append(b.refs, col)
	return len(b.refs) - 1
}

// colRef locates a value in the rows a stage consumes: column b.refs[i] of a
// joined tuple (slot b.off+i, final once Compile has laid the bindings out)
// or, with b == nil, position i of an aggregate output row.
type colRef struct {
	b *binding
	i int
}

func (c colRef) slot() int {
	if c.b == nil {
		return c.i
	}
	return c.b.off + c.i
}

// typ is the declared type of a binding's column: the catalog's for a table,
// the subquery's own plan for a derived one.
func (c colRef) typ() schema.ColType {
	col := c.b.refs[c.i]
	if c.b.info == nil {
		return c.b.sub.types[c.b.colPos(col)]
	}
	t, _ := c.b.info.Col(col)
	return t
}

// localPred is a single-binding WHERE conjunct: a column against a constant,
// or against another column of the same binding. A plan's conjuncts carry a
// literal's value, unboxed once as the plan is built, or, for a parameter,
// its slot; an execution's carry the parameter's value (see Plan.bind) in the
// execution's own copy.
type localPred struct {
	col      string
	op       sqlparser.CompareOp
	rcol     string     // right column when colVsCol
	value    schema.Arg // right constant otherwise
	colVsCol bool
	param    int // 1 + the slot of the parameter the constant comes from; 0 for a literal
}

// crossPred compares columns of two different bindings: an equi-join when op
// is "=", a residual condition otherwise.
type crossPred struct {
	l, r colRef
	op   sqlparser.CompareOp
}

// joinStep is one join of a statement's tree: binding b joined to the
// bindings before it, where outerCols[i] of the joined tuple must equal
// innerCols[i] of b, with their slots — outerSlots in the joined tuple,
// innerSlots in b's segment — and innerNames, b's names of innerCols. No
// join columns means a cartesian product.
type joinStep struct {
	b                      *binding
	outerCols, innerCols   []colRef
	outerSlots, innerSlots []int
	innerNames             []string
}

// outCol is one result column.
type outCol struct {
	name    string
	src     colRef
	literal bool // literal select item: no source, the key stays absent from result rows
}

// aggItem is one select item of an aggregated statement: an aggregate call
// over arg, or (fn == "") a plain column riding along from the group's
// representative row.
type aggItem struct {
	fn   string
	star bool
	arg  colRef
}

type orderKey struct {
	src  colRef
	desc bool
}

// Compile compiles a SELECT against the catalog (see Plan). Its errors are the
// statement's own — an unknown or ambiguous table or column, an unsupported
// shape — and no execution can raise them again.
func (e *Engine) Compile(sel *sqlparser.SelectStmt) (*Plan, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("phoenix: no FROM bindings")
	}
	p := &Plan{eng: e, sel: sel}
	for i, ref := range sel.From {
		b := &binding{name: ref.Binding(), idx: i}
		if ref.Sub != nil {
			sub, err := e.Compile(ref.Sub)
			if err != nil {
				return nil, fmt.Errorf("phoenix: derived table %s: %w", b.name, err)
			}
			b.sub, b.cols = sub, sub.names
		} else {
			info, err := e.cat.Table(ref.Name)
			if err != nil {
				return nil, err
			}
			b.info, b.cols = info, info.ColumnNames()
		}
		if p.binding(b.name) != nil {
			return nil, fmt.Errorf("phoenix: duplicate binding %q", b.name)
		}
		p.bindings = append(p.bindings, b)
	}
	p.spills = len(p.bindings) >= 3
	for _, pred := range sel.Where {
		if err := p.classify(pred); err != nil {
			return nil, err
		}
	}
	if err := p.planOutput(); err != nil {
		return nil, err
	}
	for _, b := range p.bindings {
		b.off = p.width
		p.width += len(b.refs)
		if b.info != nil {
			p.planPaths(b)
		}
	}
	p.names, p.types = make([]string, len(p.out)), p.outTypes()
	for i, o := range p.out {
		p.names[i] = o.name
	}
	p.orderSlots = make([]int, len(p.orderBy))
	for i, k := range p.orderBy {
		p.orderSlots[i] = k.src.slot()
	}
	p.joinOrders = make([][]joinStep, len(p.bindings))
	for _, b := range p.bindings {
		p.joinOrders[b.idx] = p.joinOrder(b)
		if b.params {
			p.nlocal += len(b.local)
		}
		if b.sub != nil {
			b.derived = p.derivedCols(b)
		}
	}
	if p.aggregated {
		p.groupSlots, p.argSlots = make([]int, len(p.groupBy)), make([]int, len(p.aggs))
		for i, c := range p.groupBy {
			p.groupSlots[i] = c.slot()
		}
		for i, a := range p.aggs {
			if !a.star {
				p.argSlots[i] = a.arg.slot()
			}
		}
		p.fold = len(p.bindings) == 1 && p.bindings[0].info != nil
	}
	return p, nil
}

// binding returns the FROM binding named name, or nil.
func (p *Plan) binding(name string) *binding {
	for _, b := range p.bindings {
		if b.name == name {
			return b
		}
	}
	return nil
}

// joinOrder lists the joins of a tree that starts from binding start: the
// other bindings one at a time — first one an equi-join links to what is
// joined so far, in FROM order, else the next in FROM order as a cartesian
// product.
func (p *Plan) joinOrder(start *binding) []joinStep {
	joined := make([]bool, len(p.bindings))
	joined[start.idx] = true
	steps := make([]joinStep, 0, len(p.bindings)-1)
	for len(steps) < len(p.bindings)-1 {
		step := joinStep{}
		for _, b := range p.bindings {
			if joined[b.idx] {
				continue
			}
			if step.b == nil {
				step.b = b
			}
			if o, i := p.joinCols(joined, b); len(o) > 0 {
				step = joinStep{b: b, outerCols: o, innerCols: i}
				break
			}
		}
		joined[step.b.idx] = true
		step.outerSlots, step.innerSlots = make([]int, len(step.outerCols)), make([]int, len(step.innerCols))
		step.innerNames = make([]string, len(step.innerCols))
		for i := range step.outerCols {
			step.outerSlots[i] = step.outerCols[i].slot()
			step.innerSlots[i] = step.innerCols[i].i
			step.innerNames[i] = step.b.refs[step.innerCols[i].i]
		}
		steps = append(steps, step)
	}
	return steps
}

// joinCols returns the equi-join conditions linking the joined bindings to
// binding b as parallel column lists: outer[i] (in the joined tuple) must
// equal inner[i] (a column of b).
func (p *Plan) joinCols(joined []bool, b *binding) (outer, inner []colRef) {
	for _, j := range p.joins {
		switch {
		case joined[j.l.b.idx] && j.r.b == b:
			outer, inner = append(outer, j.l), append(inner, j.r)
		case joined[j.r.b.idx] && j.l.b == b:
			outer, inner = append(outer, j.r), append(inner, j.l)
		}
	}
	return outer, inner
}

// resolveColumn finds the binding that owns a column reference.
func (p *Plan) resolveColumn(c sqlparser.ColumnRef) (*binding, error) {
	if c.Table != "" {
		b := p.binding(c.Table)
		if b == nil {
			return nil, fmt.Errorf("%w: unknown table or alias %q", ErrUnknownTable, c.Table)
		}
		if !b.hasColumn(c.Column) {
			return nil, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, c.Table, c.Column)
		}
		return b, nil
	}
	var owner *binding
	for _, b := range p.bindings {
		if b.hasColumn(c.Column) {
			if owner != nil {
				return nil, fmt.Errorf("%w: %q is ambiguous", ErrUnknownColumn, c.Column)
			}
			owner = b
		}
	}
	if owner == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownColumn, c.Column)
	}
	return owner, nil
}

// column resolves a reference the executor will read from tuples, giving it a
// slot.
func (p *Plan) column(c sqlparser.ColumnRef) (colRef, error) {
	b, err := p.resolveColumn(c)
	if err != nil {
		return colRef{}, err
	}
	return colRef{b: b, i: b.ref(c.Column)}, nil
}

// operand classifies a conjunct's constant side: a literal's value, or the
// 1-based slot of the parameter that supplies it.
func operand(e sqlparser.Expr) (v schema.Arg, param int, err error) {
	switch x := e.(type) {
	case sqlparser.Literal:
		if v, ok := schema.ArgOf(x.Value); ok {
			return v, 0, nil
		}
		return v, 0, fmt.Errorf("phoenix: unsupported literal %T", x.Value)
	case sqlparser.Param:
		return v, x.Index + 1, nil
	default:
		return v, 0, fmt.Errorf("phoenix: unsupported operand %T", e)
	}
}

// classify files a WHERE conjunct as a binding's local filter, an equi-join
// or a residual cross-binding condition.
func (p *Plan) classify(pred sqlparser.Predicate) error {
	lcol, lIsCol := pred.Left.(sqlparser.ColumnRef)
	rcol, rIsCol := pred.Right.(sqlparser.ColumnRef)
	switch {
	case lIsCol && rIsCol:
		lb, err := p.resolveColumn(lcol)
		if err != nil {
			return err
		}
		rb, err := p.resolveColumn(rcol)
		if err != nil {
			return err
		}
		if lb == rb {
			// Same-binding column comparison: a local filter.
			lb.local = append(lb.local, localPred{col: lcol.Column, op: pred.Op, rcol: rcol.Column, colVsCol: true})
			return nil
		}
		cp := crossPred{l: colRef{lb, lb.ref(lcol.Column)}, r: colRef{rb, rb.ref(rcol.Column)}, op: pred.Op}
		if pred.Op == sqlparser.OpEq {
			p.joins = append(p.joins, cp)
		} else {
			p.residual = append(p.residual, cp)
		}
		return nil
	case lIsCol || rIsCol:
		col, other, op := lcol, pred.Right, pred.Op
		if rIsCol {
			col, other, op = rcol, pred.Left, flipOp(pred.Op)
		}
		b, err := p.resolveColumn(col)
		if err != nil {
			return err
		}
		v, param, err := operand(other)
		if err != nil {
			return err
		}
		b.local = append(b.local, localPred{col: col.Column, op: op, value: v, param: param})
		b.params = b.params || param > 0
		return nil
	default:
		return fmt.Errorf("phoenix: predicate %s compares two constants", pred)
	}
}

func flipOp(op sqlparser.CompareOp) sqlparser.CompareOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	default:
		return op
	}
}

func compareOK(cmp int, op sqlparser.CompareOp) bool {
	switch op {
	case sqlparser.OpEq:
		return cmp == 0
	case sqlparser.OpNe:
		return cmp != 0
	case sqlparser.OpLt:
		return cmp < 0
	case sqlparser.OpLe:
		return cmp <= 0
	case sqlparser.OpGt:
		return cmp > 0
	case sqlparser.OpGe:
		return cmp >= 0
	default:
		return false
	}
}

func hasAggregates(sel *sqlparser.SelectStmt) bool {
	for _, it := range sel.Items {
		if _, ok := it.Expr.(sqlparser.AggExpr); ok {
			return true
		}
	}
	return false
}

func aggOutputName(it sqlparser.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	return it.Expr.String()
}

// planOutput resolves the select list, GROUP BY and ORDER BY against the
// bindings, registering every column they read. Result columns get friendly
// names: unqualified when unambiguous, binding-qualified otherwise.
func (p *Plan) planOutput() error {
	sel := p.sel
	p.aggregated = len(sel.GroupBy) > 0 || hasAggregates(sel)

	owners := map[string]int{}
	for _, b := range p.bindings {
		for _, c := range b.cols {
			owners[c]++
		}
	}
	outName := func(bind, col string) string {
		if owners[col] > 1 {
			return bind + "." + col
		}
		return col
	}

	switch {
	case p.aggregated:
		for _, c := range sel.GroupBy {
			r, err := p.column(c)
			if err != nil {
				return err
			}
			p.groupBy = append(p.groupBy, r)
		}
		for i, it := range sel.Items {
			switch x := it.Expr.(type) {
			case sqlparser.AggExpr:
				switch x.Fn {
				case "COUNT", "SUM", "AVG", "MIN", "MAX":
				default:
					return fmt.Errorf("phoenix: unknown aggregate %q", x.Fn)
				}
				agg := aggItem{fn: x.Fn, star: x.Star}
				if !x.Star {
					r, err := p.column(*x.Arg)
					if err != nil {
						return err
					}
					agg.arg = r
				}
				p.aggs = append(p.aggs, agg)
				p.out = append(p.out, outCol{name: aggOutputName(it), src: colRef{i: i}})
			case sqlparser.ColumnRef:
				// Non-aggregate items ride along from the group's
				// representative row (TPC-W queries select columns
				// functionally dependent on the group key, e.g. i_title
				// with GROUP BY i_id).
				r, err := p.column(x)
				if err != nil {
					return err
				}
				name := it.Alias
				if name == "" {
					name = x.Column
				}
				p.aggs = append(p.aggs, aggItem{arg: r})
				p.out = append(p.out, outCol{name: name, src: colRef{i: i}})
			default:
				return fmt.Errorf("phoenix: unsupported select item %s", it)
			}
		}
	case sel.Star:
		for _, b := range p.bindings {
			for _, c := range b.cols {
				p.out = append(p.out, outCol{name: outName(b.name, c), src: colRef{b, b.ref(c)}})
			}
		}
	default:
		for _, it := range sel.Items {
			switch x := it.Expr.(type) {
			case sqlparser.ColumnRef:
				r, err := p.column(x)
				if err != nil {
					return err
				}
				name := it.Alias
				if name == "" {
					name = outName(r.b.name, x.Column)
				}
				p.out = append(p.out, outCol{name: name, src: r})
			case sqlparser.Literal:
				p.out = append(p.out, outCol{name: it.Expr.String(), literal: true})
			default:
				return fmt.Errorf("phoenix: unsupported select item %s", it)
			}
		}
	}

	for _, o := range sel.OrderBy {
		src, constant, err := p.orderSource(o.Col)
		if err != nil {
			return err
		}
		if !constant {
			p.orderBy = append(p.orderBy, orderKey{src: src, desc: o.Desc})
		}
	}
	return nil
}

// outTypes types the result columns from the plan, never from the rows: a
// column has its declared type, COUNT is an integer, AVG a float, and SUM, MIN
// and MAX have their argument's type (a literal item, always NULL, is a
// string). Every row of a result — and an empty or all-NULL one — is
// therefore encoded under one column definition.
func (p *Plan) outTypes() []schema.ColType {
	types := make([]schema.ColType, len(p.out))
	for i, o := range p.out {
		switch {
		case o.literal:
			types[i] = schema.TString
		case !p.aggregated:
			types[i] = o.src.typ()
		case p.aggs[i].fn == "COUNT":
			types[i] = schema.TInt
		case p.aggs[i].fn == "AVG":
			types[i] = schema.TFloat
		default:
			types[i] = p.aggs[i].arg.typ()
		}
	}
	return types
}

// orderSource resolves an ORDER BY key: a select item's alias names that
// item's output; anything else is a column — of the joined tuple for a plain
// statement, and for an aggregated one a column the aggregate output carries
// (a GROUP BY key or a selected column). constant reports a key that cannot
// reorder rows (the alias of a literal item).
func (p *Plan) orderSource(c sqlparser.ColumnRef) (src colRef, constant bool, err error) {
	if c.Table == "" && !p.sel.Star { // p.out parallels sel.Items
		for i, it := range p.sel.Items {
			if it.Alias == c.Column {
				return p.out[i].src, p.out[i].literal, nil
			}
		}
	}
	r, err := p.column(c)
	if err != nil || !p.aggregated {
		return r, false, err
	}
	for g, k := range p.groupBy {
		if k == r {
			return colRef{i: len(p.aggs) + g}, false, nil
		}
	}
	for i, a := range p.aggs {
		if a.fn == "" && a.arg == r {
			return colRef{i: i}, false, nil
		}
	}
	return colRef{}, false, fmt.Errorf("%w: ORDER BY %s is neither grouped nor selected", ErrUnsupported, c)
}

// ---------------------------------------------------------------------------
// Execution

// query is one execution of a Plan: its parameters and options, what it knows
// of each binding beyond the plan, the slab its tuples come from, and the root
// of its operator tree, which it serves as the statement's cursor.
//
// An execution is one block: the query holds the operators of its tree (see
// tree) and, for the common shapes — one binding, two conjuncts taking a
// parameter — its bindings' state and bound conjuncts; past those it makes
// one array of each. What else it allocates is its rows. It reads the Plan
// and never writes it, so any number of executions, on any sessions, share one.
//
// An execution reopens its plan's spare block, the last one closed, when no
// other execution holds it, and allocates one otherwise. Close clears the
// block of every reference into the store and hands it back (recycle) with
// its arrays — slab, row lists, join and group key tables, and each derived
// table's own block — so the next execution of a prepared statement
// allocates its rows only where they outgrow the last one's.
type query struct {
	*Plan
	opts   QueryOpts
	execs  []bindExec  // by binding.idx
	locals []localPred // the conjuncts of every binding that takes a parameter, bound
	slab   tupleSlab   // backs every tuple the statement builds
	lists  kept[tuple] // backs the row lists of its nodes (rowList)

	root         node
	row          tuple // the row the cursor is on
	done, closed bool

	// The operators of the tree, of which it has one each at most, but for
	// the joins, one per binding after the first.
	scan    scanNode
	joins   []joinNode
	filter  filterNode
	agg     aggNode
	groups  groups
	regions regionFold // the aggregate's share on the regions (Plan.fold)
	sort    sortNode
	limit   limitNode

	exec1  [1]bindExec  // backs execs for a single binding
	local2 [2]localPred // backs locals for up to two
}

// bindExec is one execution's state of a binding: its conjuncts with this
// execution's parameter values, a derived table's rows — in the layout of its
// subquery's output, read with Plan.value, from the block sub of the
// subquery's execution — with what reading them cost and when they came in,
// and the access path fullPlan chose.
type bindExec struct {
	local   []localPred
	sub     *query
	derived []tuple
	read    sim.Ctx        // the derived table's read, until chargeRead hands it on
	at      sim.Arrivals   // when derived's rows came in, on read's clock
	arrived [2]sim.Arrival // backs at for a fanned-out read's: its first row and its end
	plan    accessPlan
	planned bool
}

// Open runs the plan with params — one per ? of the statement, derived tables'
// included — under opts: it builds the execution's operator tree, opens it,
// and returns the cursor that reads it (see QueryStream).
func (p *Plan) Open(ctx *sim.Ctx, params []schema.Arg, opts QueryOpts) (RowCursor, error) {
	q, err := p.bind(ctx, params, opts)
	if err != nil {
		return nil, err
	}
	q.root = q.tree(false)
	err = q.root.Open(ctx)
	q.chargeReads(ctx)
	if err != nil {
		return nil, err
	}
	return q, nil
}

// bind starts an execution in the plan's spare block, or a new one: every
// conjunct that takes a parameter gets its value, and each derived table opens
// its own tree and reads it to its end. That read is charged to a context of
// its own, which the scan of the binding folds into the branch of the request
// it runs on (chargeRead): a derived table on a hash join's build side is read
// beside the join's outer input, and hashed as its read handed out its rows
// (bindExec.at). A statement that fails first, in bind or in its tree, is
// charged every read it made all the same (chargeReads).
func (p *Plan) bind(ctx *sim.Ctx, params []schema.Arg, opts QueryOpts) (*query, error) {
	q := p.spare.Swap(nil)
	if q == nil {
		q = &query{Plan: p}
		q.execs, q.locals = q.exec1[:], q.local2[:0]
		if len(p.bindings) > len(q.exec1) {
			q.execs = make([]bindExec, len(p.bindings))
		}
		if p.nlocal > len(q.local2) {
			q.locals = make([]localPred, 0, p.nlocal) // never grows: execs' locals are windows of it
		}
	}
	q.opts, q.done, q.closed = opts, false, false
	for _, b := range p.bindings {
		x := &q.execs[b.idx]
		x.local = b.local
		if b.params {
			at := len(q.locals)
			q.locals = append(q.locals, b.local...)
			x.local = q.locals[at:len(q.locals):len(q.locals)]
			for i := range x.local {
				slot := x.local[i].param - 1
				if slot >= len(params) {
					q.chargeReads(ctx)
					return nil, fmt.Errorf("phoenix: missing parameter %d", slot)
				}
				if slot >= 0 {
					x.local[i].value = params[slot]
				}
			}
		}
		if b.sub != nil {
			sub, err := b.sub.bind(&x.read, params, opts)
			if err == nil {
				x.sub, x.at = sub, x.arrived[:0]
				x.derived, err = sub.rowsOf(&x.read, sub.tree(true), &x.at)
				sub.chargeReads(&x.read)
			}
			if err != nil {
				q.chargeReads(ctx)
				return nil, fmt.Errorf("phoenix: derived table %s: %w", b.name, err)
			}
		}
	}
	return q, nil
}

// recycle clears the block of a closed execution — of its parameters, options
// and operators, of every value its arrays hold — and hands it, with its
// derived tables' blocks, back to its plan for the next execution.
func (q *query) recycle() {
	for i := range q.execs {
		if sub := q.execs[i].sub; sub != nil {
			sub.recycle()
		}
		q.execs[i] = bindExec{}
	}
	q.locals = hbase.Emptied(q.locals, maxKept)
	q.opts, q.root, q.row = QueryOpts{}, nil, tuple{}
	// The scan keeps its filter's predicate list, emptied.
	q.scan = scanNode{filter: predFilter{preds: hbase.Emptied(q.scan.filter.preds, maxKept)}}
	q.filter, q.agg, q.sort, q.limit = filterNode{}, aggNode{}, sortNode{}, limitNode{}
	for i := range q.joins {
		q.joins[i] = joinNode{table: q.joins[i].table}
		q.joins[i].table.release()
	}
	q.groups.release()
	q.regions.release()
	q.slab.release()
	q.lists.release()
	q.spare.Store(q)
}

// rowList returns an empty row list with room for n rows, from the block's
// arrays.
func (q *query) rowList(n int) []tuple { return q.lists.take(n)[:0] }

// chargeRead charges ctx what reading derived table b cost, the first time it
// is asked, and returns when the read's rows came in on ctx's clock: the read
// runs from where ctx stood. After that the read is paid, charges nothing, and
// its rows are all in hand (no arrivals).
func (q *query) chargeRead(ctx *sim.Ctx, b *binding) sim.Arrivals {
	x := &q.execs[b.idx]
	from := ctx.Elapsed()
	ctx.Join(&x.read)
	x.read.Reset()
	at := x.at
	x.at = nil
	at.Shift(from)
	return at
}

// chargeReads charges ctx every derived table's read not charged yet — those
// of a statement that failed before its tree scanned them.
func (q *query) chargeReads(ctx *sim.Ctx) {
	for _, b := range q.bindings {
		if b.sub != nil {
			q.chargeRead(ctx, b)
		}
	}
}
