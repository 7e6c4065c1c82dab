package phoenix

import (
	"fmt"
	"slices"

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
// merge (see scanFilter).
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
// was compiled.
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
// comment): the bytes are immutable and never recycled, and a tuple pins the
// blocks it points into for as long as it lives. That is one statement: vals
// are carved from the query's slab and dropped with it, never pooled.
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
// allocation of its own. It belongs to one statement.
type tupleSlab struct {
	free  [][]byte
	chunk int // tuples in the last array
}

const maxSlabTuples = 512

func (s *tupleSlab) take(n int) [][]byte {
	if n > len(s.free) {
		s.chunk = min(max(2*s.chunk, 4), maxSlabTuples)
		s.free = make([][]byte, n*s.chunk)
	}
	vals := s.free[:n:n]
	s.free = s.free[n:]
	return vals
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
// literal's value or, for a parameter, its slot; an execution's carry the
// parameter's value (see Plan.bind).
type localPred struct {
	col      string
	op       sqlparser.CompareOp
	rcol     string       // right column when colVsCol
	value    schema.Value // right constant otherwise
	colVsCol bool
	param    int // 1 + the slot of the parameter the constant comes from; 0 for a literal
}

// crossPred compares columns of two different bindings: an equi-join when op
// is "=", a residual condition otherwise.
type crossPred struct {
	l, r colRef
	op   sqlparser.CompareOp
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
func operand(e sqlparser.Expr) (v schema.Value, param int, err error) {
	switch x := e.(type) {
	case sqlparser.Literal:
		return x.Value, 0, nil
	case sqlparser.Param:
		return nil, x.Index + 1, nil
	default:
		return nil, 0, fmt.Errorf("phoenix: unsupported operand %T", e)
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
type query struct {
	*Plan
	params []schema.Value
	opts   QueryOpts
	execs  []bindExec // by binding.idx
	slab   tupleSlab  // backs every tuple the statement builds

	root         node
	row          tuple // the row the cursor is on
	done, closed bool
}

// bindExec is one execution's state of a binding: its conjuncts with this
// execution's parameter values, a derived table's rows — in the layout of its
// subquery's output, read with Plan.value — and the access path fullPlan
// chose.
type bindExec struct {
	local   []localPred
	derived []tuple
	plan    accessPlan
	planned bool
}

// Open runs the plan with params — one per ? of the statement, derived tables'
// included — under opts: it builds the execution's operator tree, opens it,
// and returns the cursor that reads it (see QueryStream).
func (p *Plan) Open(ctx *sim.Ctx, params []schema.Value, opts QueryOpts) (RowCursor, error) {
	q, err := p.bind(ctx, params, opts)
	if err != nil {
		return nil, err
	}
	q.root = q.tree(false)
	if err := q.root.Open(ctx); err != nil {
		return nil, err
	}
	return q, nil
}

// bind starts an execution: every conjunct that takes a parameter gets its
// value, and each derived table opens its own tree against ctx, so its cost
// lands on the request, and reads it to its end.
func (p *Plan) bind(ctx *sim.Ctx, params []schema.Value, opts QueryOpts) (*query, error) {
	q := &query{Plan: p, params: params, opts: opts, execs: make([]bindExec, len(p.bindings))}
	for _, b := range p.bindings {
		x := &q.execs[b.idx]
		x.local = b.local
		if b.params {
			x.local = slices.Clone(b.local)
			for i := range x.local {
				slot := x.local[i].param - 1
				if slot >= len(params) {
					return nil, fmt.Errorf("phoenix: missing parameter %d", slot)
				}
				if slot >= 0 {
					x.local[i].value = params[slot]
				}
			}
		}
		if b.sub != nil {
			sub, err := b.sub.bind(ctx, params, opts)
			if err == nil {
				x.derived, err = rowsOf(ctx, sub.tree(true))
			}
			if err != nil {
				return nil, fmt.Errorf("phoenix: derived table %s: %w", b.name, err)
			}
		}
	}
	return q, nil
}
