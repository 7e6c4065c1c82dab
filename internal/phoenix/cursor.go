package phoenix

import (
	"fmt"
	"slices"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// RowCursor is the streaming result of a query: a forward-only iterator over
// projected rows. Next advances to the next row; RawValue reads the current
// row's values as encoded cells — the cursor decodes nothing, and a wire
// server encodes row packets from them with no per-row allocation (use
// DrainCursor for decoded rows keyed by column name). Close releases the
// underlying region scanner and must always be called, even after Next
// returned false — a caller abandoning a cursor mid-stream would otherwise
// leak pooled scan jobs and chunk buffers.
type RowCursor interface {
	// Columns lists the output column names in projection order.
	Columns() []string
	// Types lists the column types, parallel to Columns. They come from the
	// statement's plan, never from its rows (see Plan.outTypes), so an
	// empty result and an all-NULL column are typed like any other. Both
	// slices are the plan's, shared by every execution: read them only.
	Types() []schema.ColType
	// Next advances to the next row, charging the scan work performed to
	// ctx. It returns false when the result is exhausted or an error
	// occurred (check Err).
	Next(ctx *sim.Ctx) bool
	// RawValue returns the cell encoding (type tag + payload, see
	// EncodeValue) of the current row's column i, empty when the value is
	// NULL or the column a literal select item. The bytes are immutable
	// and never recycled — only which bytes column i names changes with
	// the next Next call.
	RawValue(i int) []byte
	// Err reports the error that terminated iteration, if any.
	Err() error
	// Close releases the cursor's resources (region scanner, pooled scan
	// chunks). It is idempotent. For transactional cursors wrapped with
	// WithClose it also settles the transaction, so its error must be
	// checked.
	Close(ctx *sim.Ctx) error
}

// ---------------------------------------------------------------------------
// Streaming cursor: single-binding scan → filter → project → limit, pulled
// row by row off the region scanner.

type streamCursor struct {
	stream hbase.RowStream
	cols   []string
	quals  []string // source qualifier per output column; "" = literal item
	types  []schema.ColType
	raw    [][]byte // current row's encoded values, parallel to cols
	limit  int      // 0 = unlimited (defensive; the scan spec also carries it)
	n      int
	done   bool
	closed bool
}

func (c *streamCursor) Columns() []string       { return c.cols }
func (c *streamCursor) Types() []schema.ColType { return c.types }
func (c *streamCursor) Err() error              { return nil }

func (c *streamCursor) Next(ctx *sim.Ctx) bool {
	if c.done || c.closed {
		return false
	}
	if c.limit > 0 && c.n >= c.limit {
		c.done = true
		return false
	}
	r, ok := c.stream.Next(ctx)
	if !ok {
		c.done = true
		return false
	}
	c.n++
	// Copy out only the projected cell values (slice headers; the bytes
	// are store-owned and immutable). The Cells window itself is invalid
	// after the stream's next Next, so nothing else is retained.
	for i, q := range c.quals {
		if q == "" {
			c.raw[i] = nil
			continue
		}
		c.raw[i] = r.Cells.Get(q)
	}
	return true
}

func (c *streamCursor) RawValue(i int) []byte { return c.raw[i] }

func (c *streamCursor) Close(ctx *sim.Ctx) error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.stream.Close(ctx)
	return nil
}

// ---------------------------------------------------------------------------
// Materialized cursor: blocking shapes (joins, aggregates, ORDER BY) run the
// buffering executor and drain its rows, still encoded, through the same API.

type materializedCursor struct {
	res    *projected
	cols   []string
	pos    int
	closed bool
}

func (c *materializedCursor) Columns() []string       { return c.cols }
func (c *materializedCursor) Types() []schema.ColType { return c.res.types }

func (c *materializedCursor) Next(ctx *sim.Ctx) bool {
	if c.closed || c.pos >= len(c.res.rows) {
		return false
	}
	c.pos++
	return true
}

func (c *materializedCursor) RawValue(i int) []byte    { return c.res.value(c.res.rows[c.pos-1], i) }
func (c *materializedCursor) Err() error               { return nil }
func (c *materializedCursor) Close(ctx *sim.Ctx) error { c.closed = true; return nil }

// ---------------------------------------------------------------------------
// Close hooks: transaction layers wrap cursors so Close settles the
// transaction (commit on clean drain, abort on error).

type closeHook struct {
	RowCursor
	onClose func(ctx *sim.Ctx, cur RowCursor) error
	closed  bool
}

func (c *closeHook) Close(ctx *sim.Ctx) error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.RowCursor.Close(ctx)
	if herr := c.onClose(ctx, c.RowCursor); err == nil {
		err = herr
	}
	return err
}

// WithClose returns cur with onClose running exactly once after the inner
// cursor's Close.
func WithClose(cur RowCursor, onClose func(ctx *sim.Ctx, cur RowCursor) error) RowCursor {
	return &closeHook{RowCursor: cur, onClose: onClose}
}

// DrainCursor decodes what is left of one of this package's cursors into a
// ResultSet, closing it. It is the bridge that keeps the map-returning Query
// API a thin wrapper over the streaming path, and the one place a result's
// values are decoded. A literal select item has no value: its key stays
// absent from the rows.
func DrainCursor(ctx *sim.Ctx, cur RowCursor) (*ResultSet, error) {
	inner := cur
	for {
		h, ok := inner.(*closeHook)
		if !ok {
			break
		}
		inner = h.RowCursor
	}
	var literal func(i int) bool
	switch c := inner.(type) {
	case *materializedCursor:
		literal = func(i int) bool { return c.res.out[i].literal }
	case *streamCursor:
		literal = func(i int) bool { return c.quals[i] == "" }
	default:
		cur.Close(ctx)
		return nil, fmt.Errorf("phoenix: DrainCursor of a foreign cursor %T", inner)
	}
	cols := slices.Clone(cur.Columns()) // the result set is the caller's; the plan's names are not
	rs := &ResultSet{Columns: cols, Types: slices.Clone(cur.Types()), Rows: []schema.Row{}}
	for cur.Next(ctx) {
		row := make(schema.Row, len(cols))
		for i, col := range cols {
			if !literal(i) {
				row[col] = DecodeValue(cur.RawValue(i))
			}
		}
		rs.Rows = append(rs.Rows, row)
	}
	if err := cur.Err(); err != nil {
		cur.Close(ctx)
		return nil, err
	}
	if err := cur.Close(ctx); err != nil {
		return nil, err
	}
	return rs, nil
}

// ---------------------------------------------------------------------------
// Stream planning

// tryStream opens a streaming cursor when the statement is a non-blocking
// single-binding shape: scan → filter → project → limit with no joins or
// aggregates, and no ORDER BY but one its access path delivers from the key.
// A nil cursor with a nil error means "not streamable, run the materialized
// executor"; a non-nil error means the stream was eligible but opening it
// failed.
func (q *query) tryStream(ctx *sim.Ctx) (*streamCursor, error) {
	sel := q.sel
	if len(q.bindings) != 1 || q.aggregated {
		return nil, nil
	}
	b := q.bindings[0]
	if b.info == nil {
		return nil, nil // derived tables are pre-materialized
	}
	plan := q.fullPlan(b)
	if len(sel.OrderBy) > 0 && !plan.ordered {
		return nil, nil // blocking: every row is read before the first is known
	}
	if q.opts.DirtyCheck && b.info.IsView {
		// The §VIII-C dirty-restart loop re-scans from the top; once rows
		// have been handed out a cursor cannot restart.
		return nil, nil
	}

	// The projection is the statement's output plan read off the cells
	// instead of off tuples.
	c := &streamCursor{limit: sel.Limit, cols: q.names, quals: q.quals, types: q.types, raw: make([][]byte, len(q.out))}

	// The scan is the materialized scanBinding's plus limit pushdown: the
	// scanner stops examining rows once the post-filter row budget is met.
	tableName, spec, err := q.scanSpec(b, plan)
	if err != nil {
		return nil, err
	}
	spec.Limit = sel.Limit
	if c.stream, err = q.openScan(ctx, tableName, spec); err != nil {
		return nil, err
	}
	return c, nil
}

// drain reads the rest of the stream into positional rows and closes the
// cursor — how a streamable derived table reaches the enclosing query.
func (c *streamCursor) drain(ctx *sim.Ctx) *projected {
	res := &projected{out: make([]outCol, len(c.cols)), types: c.types}
	for i, name := range c.cols {
		res.out[i] = outCol{name: name, src: colRef{i: i}, literal: c.quals[i] == ""}
	}
	var slab tupleSlab
	for c.Next(ctx) {
		vals := slab.take(len(c.raw))
		copy(vals, c.raw)
		res.rows = append(res.rows, tuple{vals: vals})
	}
	c.Close(ctx)
	return res
}

// execute runs the plan to completion without keying its rows by column
// name — how a derived table reaches the enclosing query: streamed when the
// shape allows (so a LIMIT still stops the scan early), through the
// materialized executor otherwise.
func (p *Plan) execute(ctx *sim.Ctx, params []schema.Value, opts QueryOpts) (*projected, error) {
	q, err := p.bind(ctx, params, opts)
	if err != nil {
		return nil, err
	}
	if cur, err := q.tryStream(ctx); err != nil {
		return nil, err
	} else if cur != nil {
		return cur.drain(ctx), nil
	}
	return q.materialize(ctx)
}

// materialize runs the buffering executor: joins, then aggregation, ORDER BY
// and LIMIT. The aggregation of a single table (Plan.fold) runs in its scan,
// where the rows live; any other adds the joined tuples here.
func (q *query) materialize(ctx *sim.Ctx) (*projected, error) {
	if q.fold {
		g, b := newGroups(q.Plan), q.bindings[0]
		if _, err := q.scanBinding(ctx, b, q.fullPlan(b), true, g); err != nil {
			return nil, err
		}
		return q.project(ctx, g.finish(ctx)), nil
	}
	tuples, err := q.run(ctx)
	if err != nil {
		return nil, err
	}
	if q.aggregated {
		g := newGroups(q.Plan)
		for _, t := range tuples {
			g.add(t.vals)
		}
		tuples = g.finish(ctx)
	}
	return q.project(ctx, tuples), nil
}

// QueryStream compiles and executes a SELECT, returning its rows as a cursor.
// Non-blocking single-table shapes stream directly off the region scanner —
// peak memory is one scan chunk, not the result — while blocking shapes
// (joins, GROUP BY/aggregates, an ORDER BY no key serves) materialize
// internally and drain through the same API. The caller must Close the cursor.
func (e *Engine) QueryStream(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (RowCursor, error) {
	return e.QueryStreamOpts(ctx, sel, params, QueryOpts{})
}

// QueryStreamOpts is QueryStream with explicit execution options: Compile,
// then Open. A caller running one statement many times compiles it once and
// opens the plan per execution.
func (e *Engine) QueryStreamOpts(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value, opts QueryOpts) (RowCursor, error) {
	p, err := e.Compile(sel)
	if err != nil {
		return nil, err
	}
	return p.Open(ctx, params, opts)
}
