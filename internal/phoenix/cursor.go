package phoenix

import (
	"fmt"
	"slices"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// RowCursor is the streaming result of a query: a forward-only iterator over
// its result rows. Next advances to the next row; RawValue reads the current
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

// Next, RawValue, Err and Close make an execution the cursor of its
// statement, one for every shape: it reads the result columns off the root of
// the execution's operator tree (see query.tree), which streams off the region
// scanner where nothing in the tree blocks.
func (q *query) Next(ctx *sim.Ctx) bool {
	if q.done {
		return false
	}
	var ok bool
	if q.row, ok = q.root.Next(ctx); !ok {
		q.done = true
	}
	return ok
}

func (q *query) RawValue(i int) []byte { return q.value(q.row, i) }
func (q *query) Err() error            { return nil }

func (q *query) Close(ctx *sim.Ctx) error {
	if !q.closed {
		q.closed, q.done = true, true
		q.root.Close(ctx)
	}
	return nil
}

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
	for h, ok := inner.(*closeHook); ok; h, ok = inner.(*closeHook) {
		inner = h.RowCursor
	}
	q, ok := inner.(*query)
	if !ok {
		cur.Close(ctx)
		return nil, fmt.Errorf("phoenix: DrainCursor of a foreign cursor %T", inner)
	}
	cols := slices.Clone(cur.Columns()) // the result set is the caller's; the plan's names are not
	rs := &ResultSet{Columns: cols, Types: slices.Clone(cur.Types()), Rows: []schema.Row{}}
	for cur.Next(ctx) {
		row := make(schema.Row, len(cols))
		for i, col := range cols {
			if !q.out[i].literal {
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

// QueryStream compiles and executes a SELECT, returning its rows as a cursor.
// A statement whose operator tree does not block — a single-table scan,
// filter, projection and limit, in an order its key delivers — streams off
// the region scanner, so peak memory is one scan chunk, not the result; a
// join, an aggregate or a sort reads its input at Open. The caller must Close
// the cursor.
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
