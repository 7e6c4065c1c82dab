// Package newsql is a VoltDB-like NewSQL engine (§IX-D2): one in-memory row
// store routed by three partitioning schemes, executing every statement
// serially (serializable isolation, Figure 13's "single threaded partition
// processing": serial in the whole store is serial on every partition).
//
// A scheme partitions each table on a single column or replicates it. Joins
// between partitioned tables are only supported on equality of their
// partitioning columns — the expressiveness restriction that leaves Q3, Q7,
// Q9 and Q10 of the TPC-W workload unsupported (Figure 12) and forces the
// paper to profile three different partitioning schemes. A scheme decides
// only whether a statement runs at all and whether it runs on one partition
// or on all of them; no charge depends on where a row lives, so the rows are
// kept once, not placed per scheme.
package newsql

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// Errors reported by the engine.
var (
	ErrUnsupportedJoin = errors.New("newsql: join of partitioned tables must be on partitioning columns")
	ErrUnknownTable    = errors.New("newsql: unknown table")
	ErrKeyRequired     = errors.New("newsql: write must specify the full primary key")
)

// Scheme assigns each table a partitioning column, or "" for replication.
type Scheme struct {
	Name string
	// PartitionBy maps table -> partition column; absent tables are
	// replicated.
	PartitionBy map[string]string
}

// Partitioned reports the partition column of a table ("" = replicated).
func (s Scheme) Partitioned(table string) string { return s.PartitionBy[table] }

// Engine is the deployment: one row store under one mutex, the
// single-threaded execution site of the VoltDB model, routed by its schemes.
// It mirrors the paper's methodology: "to profile the performance of the
// maximum number of joins ... we use three different partitioning schemes"
// (§IX-D2). A SELECT runs under the first scheme that supports its joins;
// writes are charged under the first scheme, as the paper ran one scheme at a
// time.
type Engine struct {
	sch     *schema.Schema
	schemes []Scheme
	costs   *sim.Costs

	mu     sync.Mutex
	tables map[string]map[string]schema.Row // table -> encoded PK -> row
}

// New builds an engine routed by schemes, of which there must be at least
// one.
func New(sch *schema.Schema, schemes []Scheme, costs *sim.Costs) *Engine {
	if len(schemes) == 0 {
		panic("newsql: New needs at least one partitioning scheme")
	}
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	return &Engine{sch: sch, schemes: schemes, costs: costs, tables: map[string]map[string]schema.Row{}}
}

// table returns a table's rows, creating the map on first use. Callers hold
// e.mu.
func (e *Engine) table(name string) map[string]schema.Row {
	t := e.tables[name]
	if t == nil {
		t = map[string]schema.Row{}
		e.tables[name] = t
	}
	return t
}

// Load bulk-inserts rows (setup path; no latency charged).
func (e *Engine) Load(table string, rows []schema.Row) error {
	rel := e.sch.Relation(table)
	if rel == nil {
		return fmt.Errorf("%w: %s", ErrUnknownTable, table)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.table(table)
	for _, r := range rows {
		t[pkKey(rel, r)] = r
	}
	return nil
}

func pkKey(rel *schema.Relation, r schema.Row) string {
	vals := make([]schema.Value, len(rel.PK))
	for i, c := range rel.PK {
		vals[i] = r[c]
	}
	return schema.EncodeKey(vals...)
}

// RowCount reports total rows of a table.
func (e *Engine) RowCount(table string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.tables[table])
}

// DatabaseBytes reports the packed-tuple storage footprint: VoltDB stores
// typed tuples without per-cell key overhead, which is why its database is
// the smallest in Table III.
func (e *Engine) DatabaseBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	for _, t := range e.tables {
		for _, r := range t {
			total += tupleBytes(r) + 8 // tuple header
		}
	}
	return total
}

func tupleBytes(r schema.Row) int64 {
	var n int64
	for _, v := range r {
		switch x := v.(type) {
		case string:
			n += int64(len(x)) + 4
		default:
			n += 8
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Planning: routing and join-support checks

// route validates join support under scheme and reports whether the
// statement runs on every partition (multi) or on the one a constant filter
// on a partition column names.
func (e *Engine) route(scheme Scheme, sel *sqlparser.SelectStmt, params []schema.Value) (multi bool, err error) {
	binds := map[string]string{} // binding -> table ("" derived)
	for _, ref := range sel.From {
		if ref.Sub != nil {
			binds[ref.Binding()] = ""
			// Derived tables are validated recursively.
			if _, err := e.route(scheme, ref.Sub, params); err != nil {
				return false, err
			}
			continue
		}
		if e.sch.Relation(ref.Name) == nil {
			return false, fmt.Errorf("%w: %s", ErrUnknownTable, ref.Name)
		}
		binds[ref.Binding()] = ref.Name
	}

	// Join support: partitioned x partitioned joins must pair the two
	// partitioning columns.
	for _, p := range sel.JoinPredicates() {
		l := p.Left.(sqlparser.ColumnRef)
		r := p.Right.(sqlparser.ColumnRef)
		lt, lok := binds[l.Table]
		rt, rok := binds[r.Table]
		if !lok || !rok || lt == "" || rt == "" {
			continue // derived side: computed result joined at the coordinator
		}
		lp := scheme.Partitioned(lt)
		rp := scheme.Partitioned(rt)
		if lp == "" || rp == "" {
			continue // replicated side joins freely
		}
		if l.Column != lp || r.Column != rp {
			return false, fmt.Errorf("%w: %s.%s = %s.%s under scheme %s",
				ErrUnsupportedJoin, l.Table, l.Column, r.Table, r.Column, scheme.Name)
		}
	}

	// Routing: a filter binding a partition column to a constant makes
	// the statement single-partition.
	for _, p := range sel.Where {
		if p.Op != sqlparser.OpEq || p.IsJoin() {
			continue
		}
		col, ok := p.Left.(sqlparser.ColumnRef)
		if !ok {
			continue
		}
		table := binds[col.Table]
		if table == "" && col.Table == "" {
			// Unqualified: find the owning table.
			for _, t := range binds {
				if t != "" && e.sch.Relation(t).HasColumn(col.Column) {
					table = t
					break
				}
			}
		}
		if table == "" || scheme.Partitioned(table) != col.Column {
			continue
		}
		if _, err := constValue(p.Right, params); err == nil {
			return false, nil
		}
	}

	// Multi-partition read: all partitions participate.
	return true, nil
}

// Supported reports whether any scheme can run the query. Support depends
// on the joins alone, never on parameters.
func (e *Engine) Supported(sel *sqlparser.SelectStmt) bool {
	for _, s := range e.schemes {
		if _, err := e.route(s, sel, nil); err == nil {
			return true
		}
	}
	return false
}

func constValue(expr sqlparser.Expr, params []schema.Value) (schema.Value, error) {
	switch x := expr.(type) {
	case sqlparser.Literal:
		return x.Value, nil
	case sqlparser.Param:
		if x.Index >= len(params) {
			return nil, fmt.Errorf("newsql: missing parameter %d", x.Index)
		}
		return params[x.Index], nil
	default:
		return nil, fmt.Errorf("newsql: not a constant")
	}
}

// ---------------------------------------------------------------------------
// Query execution

// Query executes a SELECT with serializable isolation under the first scheme
// that supports its joins. When none does, the last scheme's error is
// returned.
func (e *Engine) Query(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) ([]schema.Row, error) {
	var err error
	for _, s := range e.schemes {
		var multi bool
		if multi, err = e.route(s, sel, params); err != nil {
			if errors.Is(err, ErrUnsupportedJoin) {
				continue
			}
			return nil, err
		}
		ctx.Charge(e.costs.NewSQLBase)
		if multi {
			ctx.Charge(e.costs.NewSQLMultiPartition)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.execSelect(ctx, sel, params)
	}
	return nil, err
}

// execSelect runs the relational pipeline in memory. Callers hold e.mu.
func (e *Engine) execSelect(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) ([]schema.Row, error) {
	type binding struct {
		name string
		rows []schema.Row
	}
	var bindings []binding
	for _, ref := range sel.From {
		b := binding{name: ref.Binding()}
		if ref.Sub != nil {
			sub, err := e.execSelect(ctx, ref.Sub, params)
			if err != nil {
				return nil, err
			}
			b.rows = sub
		} else {
			for _, r := range e.tables[ref.Name] {
				b.rows = append(b.rows, r)
			}
		}
		bindings = append(bindings, b)
	}

	// Qualify tuples as binding.col.
	qualify := func(b binding) []schema.Row {
		out := make([]schema.Row, len(b.rows))
		for i, r := range b.rows {
			q := make(schema.Row, len(r))
			for k, v := range r {
				q[b.name+"."+k] = v
			}
			out[i] = q
		}
		return out
	}

	resolve := func(c sqlparser.ColumnRef, row schema.Row) (schema.Value, bool) {
		if c.Table != "" {
			v, ok := row[c.Table+"."+c.Column]
			return v, ok
		}
		for k, v := range row {
			if strings.HasSuffix(k, "."+c.Column) {
				return v, true
			}
		}
		v, ok := row[c.Column]
		return v, ok
	}

	// The predicates are decided over one row (the first binding) or over
	// a pending join pair (l, r), looking a column up in l first.
	var l, r schema.Row
	inRow := func(c sqlparser.ColumnRef) (schema.Value, bool) { return resolve(c, l) }
	inPair := func(c sqlparser.ColumnRef) (schema.Value, bool) {
		if v, ok := resolve(c, l); ok {
			return v, true
		}
		return resolve(c, r)
	}
	keep := func(col func(sqlparser.ColumnRef) (schema.Value, bool)) bool {
		for _, p := range sel.Where {
			if holds, decidable := evalPred(p, col, params); decidable && !holds {
				return false
			}
		}
		return true
	}

	// Left-deep joins with predicates pushed into the pair loop (never
	// materialize non-matching pairs) and hash buckets on the first
	// connecting equi-join condition (VoltDB executes joins via indexes).
	var current []schema.Row
	for i, b := range bindings {
		qrows := qualify(b)
		if i == 0 {
			kept := qrows[:0]
			for _, l = range qrows {
				if keep(inRow) {
					kept = append(kept, l)
				}
			}
			current = kept
			continue
		}

		// Find an equi-join condition linking current to the new
		// binding: decidable on (l) for one side, on (r) for the other.
		var leftKey, rightKey *sqlparser.ColumnRef
		if len(current) > 0 && len(qrows) > 0 {
			for _, p := range sel.Where {
				if p.Op != sqlparser.OpEq || !p.IsJoin() {
					continue
				}
				lc := p.Left.(sqlparser.ColumnRef)
				rc := p.Right.(sqlparser.ColumnRef)
				_, lInCur := resolve(lc, current[0])
				_, rInNew := resolve(rc, qrows[0])
				if lInCur && rInNew {
					leftKey, rightKey = &lc, &rc
					break
				}
				_, rInCur := resolve(rc, current[0])
				_, lInNew := resolve(lc, qrows[0])
				if rInCur && lInNew {
					leftKey, rightKey = &rc, &lc
					break
				}
			}
		}

		var joined []schema.Row
		tryPair := func() {
			if !keep(inPair) {
				return
			}
			m := make(schema.Row, len(l)+len(r))
			for k, v := range l {
				m[k] = v
			}
			for k, v := range r {
				m[k] = v
			}
			joined = append(joined, m)
		}

		if leftKey != nil {
			buckets := make(map[string][]schema.Row, len(qrows))
			for _, row := range qrows {
				v, _ := resolve(*rightKey, row)
				buckets[fmt.Sprintf("%v", v)] = append(buckets[fmt.Sprintf("%v", v)], row)
			}
			for _, l = range current {
				v, ok := resolve(*leftKey, l)
				if !ok {
					continue
				}
				for _, r = range buckets[fmt.Sprintf("%v", v)] {
					tryPair()
				}
			}
		} else {
			for _, l = range current {
				for _, r = range qrows {
					tryPair()
				}
			}
		}
		current = joined
	}
	ctx.Charge(sim.Micros(int64(len(current)+1) * int64(e.costs.NewSQLRow)))

	// Aggregation.
	hasAgg := false
	for _, it := range sel.Items {
		if _, ok := it.Expr.(sqlparser.AggExpr); ok {
			hasAgg = true
		}
	}
	if hasAgg || len(sel.GroupBy) > 0 {
		current = aggregate(sel, current, resolve)
	}

	// Order, limit.
	if len(sel.OrderBy) > 0 {
		n := len(current)
		if n > 1 {
			ctx.Charge(sim.Micros(int64(n) * int64(bits.Len(uint(n))) * int64(e.costs.NewSQLRow)))
		}
		sort.SliceStable(current, func(i, j int) bool {
			for _, o := range sel.OrderBy {
				li, _ := resolve(o.Col, current[i])
				lj, _ := resolve(o.Col, current[j])
				cmp := schema.CompareValues(li, lj)
				if cmp == 0 {
					continue
				}
				if o.Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
	}
	if sel.Limit > 0 && len(current) > sel.Limit {
		current = current[:sel.Limit]
	}

	// Projection to friendly names.
	out := make([]schema.Row, len(current))
	for i, row := range current {
		if sel.Star && !hasAgg {
			pr := make(schema.Row, len(row))
			for k, v := range row {
				short := k
				if idx := strings.LastIndex(k, "."); idx >= 0 {
					short = k[idx+1:]
				}
				if _, dup := pr[short]; dup {
					pr[k] = v // ambiguous: keep qualified
					continue
				}
				pr[short] = v
			}
			out[i] = pr
			continue
		}
		pr := schema.Row{}
		for _, it := range sel.Items {
			name := it.Alias
			switch x := it.Expr.(type) {
			case sqlparser.ColumnRef:
				if name == "" {
					name = x.Column
				}
				v, _ := resolve(x, row)
				pr[name] = v
			case sqlparser.AggExpr:
				if name == "" {
					name = x.String()
				}
				pr[name] = row[aggKey(it)]
			}
		}
		out[i] = pr
	}
	return out, nil
}

// evalPred decides p over the columns col resolves and the statement's
// constants. decidable is false when col lacks one of p's columns: the
// predicate belongs to a later join step.
func evalPred(p sqlparser.Predicate, col func(sqlparser.ColumnRef) (schema.Value, bool), params []schema.Value) (holds, decidable bool) {
	operand := func(x sqlparser.Expr) (schema.Value, bool) {
		if c, ok := x.(sqlparser.ColumnRef); ok {
			return col(c)
		}
		v, err := constValue(x, params)
		return v, err == nil
	}
	lv, ok := operand(p.Left)
	if !ok {
		return false, false
	}
	rv, ok := operand(p.Right)
	if !ok {
		return false, false
	}
	cmp := schema.CompareValues(lv, rv)
	switch p.Op {
	case sqlparser.OpEq:
		return cmp == 0, true
	case sqlparser.OpNe:
		return cmp != 0, true
	case sqlparser.OpLt:
		return cmp < 0, true
	case sqlparser.OpLe:
		return cmp <= 0, true
	case sqlparser.OpGt:
		return cmp > 0, true
	case sqlparser.OpGe:
		return cmp >= 0, true
	}
	return false, false
}

func aggKey(it sqlparser.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	return it.Expr.String()
}

func aggregate(sel *sqlparser.SelectStmt, rows []schema.Row, resolve func(sqlparser.ColumnRef, schema.Row) (schema.Value, bool)) []schema.Row {
	type state struct {
		rep    schema.Row
		counts map[string]int64
		sums   map[string]float64
		mins   map[string]schema.Value
		maxs   map[string]schema.Value
	}
	groups := map[string]*state{}
	var order []string
	for _, row := range rows {
		var kb strings.Builder
		for _, g := range sel.GroupBy {
			v, _ := resolve(g, row)
			fmt.Fprintf(&kb, "%v\x00", v)
		}
		k := kb.String()
		st := groups[k]
		if st == nil {
			st = &state{rep: row, counts: map[string]int64{}, sums: map[string]float64{},
				mins: map[string]schema.Value{}, maxs: map[string]schema.Value{}}
			groups[k] = st
			order = append(order, k)
		}
		for _, it := range sel.Items {
			agg, ok := it.Expr.(sqlparser.AggExpr)
			if !ok {
				continue
			}
			name := aggKey(it)
			if agg.Star {
				st.counts[name]++
				continue
			}
			v, ok := resolve(*agg.Arg, row)
			if !ok || v == nil {
				continue
			}
			st.counts[name]++
			switch x := v.(type) {
			case int64:
				st.sums[name] += float64(x)
			case float64:
				st.sums[name] += x
			}
			if cur, ok := st.mins[name]; !ok || schema.CompareValues(v, cur) < 0 {
				st.mins[name] = v
			}
			if cur, ok := st.maxs[name]; !ok || schema.CompareValues(v, cur) > 0 {
				st.maxs[name] = v
			}
		}
	}
	out := make([]schema.Row, 0, len(groups))
	for _, k := range order {
		st := groups[k]
		row := st.rep.Clone()
		for _, it := range sel.Items {
			agg, ok := it.Expr.(sqlparser.AggExpr)
			if !ok {
				continue
			}
			name := aggKey(it)
			switch agg.Fn {
			case "COUNT":
				row[name] = st.counts[name]
			case "SUM":
				if st.counts[name] > 0 {
					s := st.sums[name]
					if s == float64(int64(s)) {
						row[name] = int64(s)
					} else {
						row[name] = s
					}
				}
			case "AVG":
				if st.counts[name] > 0 {
					row[name] = st.sums[name] / float64(st.counts[name])
				}
			case "MIN":
				row[name] = st.mins[name]
			case "MAX":
				row[name] = st.maxs[name]
			}
		}
		out = append(out, row)
	}
	return out
}
