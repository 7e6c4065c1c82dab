package phoenix

import (
	"fmt"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// WriteOpts control DML execution.
type WriteOpts struct {
	// TS stamps every written cell (and tombstone) with an explicit
	// timestamp; 0 uses the server clock. MVCC transactions set this to
	// their transaction id.
	TS int64
	// Read applies visibility filters to the read-before-write.
	Read hbase.ReadOpts
	// OnWrite, when set, observes each (table, rowKey) mutation — the
	// MVCC layer collects the transaction's write set through it.
	OnWrite func(table, rowKey string)
	// Sequential issues every mutation as its own eager RPC instead of
	// batching them per statement — the pre-pipeline write path, kept for
	// batched-vs-sequential parity tests and benchmarks.
	Sequential bool
	// Mutator, when set, is the transaction-scoped BufferedMutator every
	// statement of the transaction emits into: mutations buffer across
	// statements and persist only at the transaction's commit flush (or at
	// explicit protocol phase barriers), and the read-before-write of
	// UPDATE/DELETE consults the mutator's read-your-writes overlay, so a
	// statement sees rows earlier statements wrote but have not yet
	// flushed. Flush/Discard lifecycle belongs to the transaction owner,
	// not to the statement.
	Mutator *hbase.BufferedMutator
	// Reader, when set, overrides the read side of the write path: the
	// read-before-write of UPDATE/DELETE and every maintenance read go
	// through it instead of the Mutator's view. OCC transactions pass
	// their read-set-tracking reader here so the GetRowVia choke point
	// records every key the transaction's writes depended on.
	Reader hbase.Reader
}

func (o WriteOpts) Notify(table, key string) {
	if o.OnWrite != nil {
		o.OnWrite(table, key)
	}
}

// Exec executes a write statement (INSERT, UPDATE or DELETE). In agreement
// with the paper's restrictions (§IV), writes must specify every key
// attribute and affect a single base-table row.
func (e *Engine) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value, opts WriteOpts) error {
	switch s := stmt.(type) {
	case *sqlparser.InsertStmt:
		return e.execInsert(ctx, s, params, opts)
	case *sqlparser.UpdateStmt:
		return e.execUpdate(ctx, s, params, opts)
	case *sqlparser.DeleteStmt:
		return e.execDelete(ctx, s, params, opts)
	default:
		return fmt.Errorf("%w: %T", ErrUnsupported, stmt)
	}
}

func evalConst(e sqlparser.Expr, params []schema.Value) (schema.Value, error) {
	switch x := e.(type) {
	case sqlparser.Literal:
		return x.Value, nil
	case sqlparser.Param:
		if x.Index >= len(params) {
			return nil, fmt.Errorf("phoenix: missing parameter %d", x.Index)
		}
		return params[x.Index], nil
	default:
		return nil, fmt.Errorf("%w: non-constant expression %s", ErrUnsupported, e)
	}
}

// keyFromWhere extracts the full-key equality values from a WHERE clause,
// erroring when any key attribute is unbound (multi-row writes are not
// supported, §IV).
func keyFromWhere(t *TableInfo, where []sqlparser.Predicate, params []schema.Value) (schema.Row, error) {
	bound := schema.Row{}
	for _, p := range where {
		col, ok := p.Left.(sqlparser.ColumnRef)
		if !ok || p.Op != sqlparser.OpEq {
			return nil, fmt.Errorf("%w: write WHERE must be key equality, got %s", ErrUnsupported, p)
		}
		v, err := evalConst(p.Right, params)
		if err != nil {
			return nil, err
		}
		bound[col.Column] = v
	}
	for _, k := range t.Key {
		if _, ok := bound[k]; !ok {
			return nil, fmt.Errorf("%w: %s.%s", ErrKeyNotSpecified, t.Name, k)
		}
	}
	return bound, nil
}

func (e *Engine) execInsert(ctx *sim.Ctx, s *sqlparser.InsertStmt, params []schema.Value, opts WriteOpts) error {
	t, err := e.cat.Table(s.Table)
	if err != nil {
		return err
	}
	cols := s.Columns
	if len(cols) == 0 {
		cols = t.ColumnNames()
	}
	if len(cols) != len(s.Values) {
		return fmt.Errorf("phoenix: %d columns, %d values", len(cols), len(s.Values))
	}
	row := schema.Row{}
	for i, c := range cols {
		if !t.HasColumn(c) {
			return fmt.Errorf("%w: %s.%s", ErrUnknownColumn, s.Table, c)
		}
		v, err := evalConst(s.Values[i], params)
		if err != nil {
			return err
		}
		row[c] = v
	}
	return e.PutRow(ctx, t, row, opts)
}

// IndexTouched reports whether an assignment affects an index's stored
// content.
func IndexTouched(t *TableInfo, idx *IndexInfo, assign schema.Row) bool {
	if !idx.KeyOnly {
		return true
	}
	for _, c := range idx.On {
		if _, ok := assign[c]; ok {
			return true
		}
	}
	for _, c := range t.Key {
		if _, ok := assign[c]; ok {
			return true
		}
	}
	return false
}

// StampCells sets every cell's timestamp to ts (0 leaves server-side
// stamping to the store).
func StampCells(cells []hbase.Cell, ts int64) []hbase.Cell {
	for i := range cells {
		cells[i].TS = ts
	}
	return cells
}

// WriteBatch is the mutation pipeline of one DML statement (or one phase of
// the Synergy maintenance protocol): mutations accumulate in a
// BufferedMutator and ship as one round of region-grouped batch RPCs,
// instead of one RPC per mutation. Write-set notifications are recorded in
// emission order and fire only after the statement's emission completes
// (for an owned batch, after its flush lands); the Quiet variants skip
// notification (dirty marks are not part of any write set — index-entry
// moves, by contrast, notify: their tombstones are real writes the OCC
// validator must see).
//
// A batch either owns a statement-scoped mutator (flushed by Flush at
// statement end, the PR-2 pipeline) or borrows the transaction-scoped
// mutator from WriteOpts.Mutator, in which case Flush leaves the mutations
// buffered for the transaction's commit and only Barrier forces them out.
type WriteBatch struct {
	m        *hbase.BufferedMutator
	owned    bool
	opts     WriteOpts
	notifies []struct{ table, key string }
}

// NewWriteBatch opens a batch honoring opts' Mutator, Sequential and
// OnWrite settings.
func (e *Engine) NewWriteBatch(opts WriteOpts) *WriteBatch {
	if opts.Mutator != nil {
		return &WriteBatch{m: opts.Mutator, opts: opts}
	}
	return &WriteBatch{m: e.client.NewBufferedMutator(opts.Sequential), owned: true, opts: opts}
}

// Reader returns the read side of a write: an explicit tracking reader when
// the options carry one, else the transaction's overlay view when a
// transaction-scoped mutator is present, else the plain store client. Reads
// through it see the transaction's own buffered writes.
func (e *Engine) Reader(opts WriteOpts) hbase.Reader {
	if opts.Reader != nil {
		return opts.Reader
	}
	if opts.Mutator != nil {
		return opts.Mutator.View()
	}
	return e.client
}

// Put buffers a row put and records its write-set notification.
func (b *WriteBatch) Put(ctx *sim.Ctx, tbl, key string, cells []hbase.Cell) error {
	if err := b.m.Put(ctx, tbl, key, cells); err != nil {
		return err
	}
	b.notifies = append(b.notifies, struct{ table, key string }{tbl, key})
	return nil
}

// PutQuiet buffers a row put with no notification.
func (b *WriteBatch) PutQuiet(ctx *sim.Ctx, tbl, key string, cells []hbase.Cell) error {
	return b.m.Put(ctx, tbl, key, cells)
}

// Delete buffers a row tombstone and records its notification.
func (b *WriteBatch) Delete(ctx *sim.Ctx, tbl, key string, ts int64) error {
	if err := b.m.Delete(ctx, tbl, key, ts); err != nil {
		return err
	}
	b.notifies = append(b.notifies, struct{ table, key string }{tbl, key})
	return nil
}

// DeleteQuiet buffers a row tombstone with no notification.
func (b *WriteBatch) DeleteQuiet(ctx *sim.Ctx, tbl, key string, ts int64) error {
	return b.m.Delete(ctx, tbl, key, ts)
}

// Flush ends the statement's emission: an owned batch ships its mutations,
// a transaction-scoped batch leaves them buffered for the transaction's
// commit flush. Pending notifications fire either way — the write set must
// be recorded before the transaction's commit-time conflict check.
func (b *WriteBatch) Flush(ctx *sim.Ctx) error {
	if b.owned {
		return b.Barrier(ctx)
	}
	b.notify()
	return nil
}

// Barrier forces the buffered mutations out regardless of ownership — the
// ordering barrier between phases of the Synergy §VIII-B maintenance
// protocol. On a transaction-scoped mutator it flushes everything buffered
// so far, including earlier statements of the transaction, which preserves
// buffer order across the barrier.
func (b *WriteBatch) Barrier(ctx *sim.Ctx) error {
	if err := b.m.Flush(ctx); err != nil {
		return err
	}
	b.notify()
	return nil
}

func (b *WriteBatch) notify() {
	for _, n := range b.notifies {
		b.opts.Notify(n.table, n.key)
	}
	b.notifies = b.notifies[:0]
}

// PutRow writes one full row to a table and all of its indexes (Phoenix
// maintains indexes synchronously on the write path). The base put and
// every index put travel in one batch flush.
func (e *Engine) PutRow(ctx *sim.Ctx, t *TableInfo, row schema.Row, opts WriteOpts) error {
	b := e.NewWriteBatch(opts)
	if err := e.putRowInto(ctx, b, t, row); err != nil {
		return err
	}
	return b.Flush(ctx)
}

func (e *Engine) putRowInto(ctx *sim.Ctx, b *WriteBatch, t *TableInfo, row schema.Row) error {
	key, err := PrimaryKey(t, row)
	if err != nil {
		return err
	}
	cells := StampCells(RowToCells(row), b.opts.TS)
	if err := b.Put(ctx, t.Name, key, cells); err != nil {
		return err
	}
	for _, idx := range t.Indexes {
		ikey := IndexKey(t, idx, row)
		icells := StampCells(IndexCells(t, idx, cells), b.opts.TS)
		if err := b.Put(ctx, idx.Name, ikey, icells); err != nil {
			return err
		}
	}
	return nil
}

// GetRow reads one row by primary key values from the store.
func (e *Engine) GetRow(ctx *sim.Ctx, t *TableInfo, read hbase.ReadOpts, keyVals ...schema.Value) (schema.Row, bool, error) {
	return e.GetRowVia(ctx, e.client, t, read, keyVals...)
}

// GetRowVia reads one row by primary key values through an explicit reader
// — the store client, or a transaction's read-your-writes view.
func (e *Engine) GetRowVia(ctx *sim.Ctx, r hbase.Reader, t *TableInfo, read hbase.ReadOpts, keyVals ...schema.Value) (schema.Row, bool, error) {
	if len(keyVals) != len(t.Key) {
		return nil, false, fmt.Errorf("%w: %s wants %d key values, got %d", ErrKeyNotSpecified, t.Name, len(t.Key), len(keyVals))
	}
	res, err := r.Get(ctx, t.Name, schema.EncodeKey(keyVals...), read)
	if err != nil {
		return nil, false, err
	}
	if res.Empty() {
		return nil, false, nil
	}
	return CellsToRow(res), true, nil
}

func (e *Engine) execUpdate(ctx *sim.Ctx, s *sqlparser.UpdateStmt, params []schema.Value, opts WriteOpts) error {
	t, err := e.cat.Table(s.Table)
	if err != nil {
		return err
	}
	bound, err := keyFromWhere(t, s.Where, params)
	if err != nil {
		return err
	}
	assign := schema.Row{}
	for _, a := range s.Set {
		if !t.HasColumn(a.Column) {
			return fmt.Errorf("%w: %s.%s", ErrUnknownColumn, s.Table, a.Column)
		}
		v, err := evalConst(a.Value, params)
		if err != nil {
			return err
		}
		assign[a.Column] = v
	}
	keyVals := make([]schema.Value, len(t.Key))
	for i, k := range t.Key {
		keyVals[i] = bound[k]
		if _, changed := assign[k]; changed {
			return fmt.Errorf("%w: cannot update key attribute %s.%s", ErrUnsupported, t.Name, k)
		}
	}
	return e.UpdateRow(ctx, t, keyVals, assign, opts)
}

// UpdateRow applies assignments to one row identified by key values,
// maintaining indexes. The read-before-write (it feeds index key
// computation) goes through the transaction overlay when one is present, so
// an update inside a transaction sees the transaction's own buffered
// writes; the base put and every index delete/put emit into one batch.
func (e *Engine) UpdateRow(ctx *sim.Ctx, t *TableInfo, keyVals []schema.Value, assign schema.Row, opts WriteOpts) error {
	old, found, err := e.GetRowVia(ctx, e.Reader(opts), t, opts.Read, keyVals...)
	if err != nil {
		return err
	}
	if !found {
		return nil // SQL UPDATE of a missing row affects zero rows
	}
	updated := old.Clone()
	for c, v := range assign {
		updated[c] = v
	}
	b := e.NewWriteBatch(opts)
	key := schema.EncodeKey(keyVals...)
	if err := b.Put(ctx, t.Name, key, StampCells(RowToCells(assign), opts.TS)); err != nil {
		return err
	}

	for _, idx := range t.Indexes {
		oldKey := IndexKey(t, idx, old)
		newKey := IndexKey(t, idx, updated)
		if oldKey != newKey {
			if err := b.Delete(ctx, idx.Name, oldKey, opts.TS); err != nil {
				return err
			}
			icells := StampCells(IndexCells(t, idx, RowToCells(updated)), opts.TS)
			if err := b.Put(ctx, idx.Name, newKey, icells); err != nil {
				return err
			}
			continue
		}
		if !IndexTouched(t, idx, assign) {
			continue // key-only index content unchanged
		}
		icells := StampCells(IndexCells(t, idx, RowToCells(assign)), opts.TS)
		if len(icells) == 0 {
			continue
		}
		if err := b.Put(ctx, idx.Name, newKey, icells); err != nil {
			return err
		}
	}
	return b.Flush(ctx)
}

func (e *Engine) execDelete(ctx *sim.Ctx, s *sqlparser.DeleteStmt, params []schema.Value, opts WriteOpts) error {
	t, err := e.cat.Table(s.Table)
	if err != nil {
		return err
	}
	bound, err := keyFromWhere(t, s.Where, params)
	if err != nil {
		return err
	}
	keyVals := make([]schema.Value, len(t.Key))
	for i, k := range t.Key {
		keyVals[i] = bound[k]
	}
	return e.DeleteRow(ctx, t, keyVals, opts)
}

// DeleteRow removes one row by key values, cleaning up index entries. The
// read-before-write consults the transaction overlay when one is present;
// the base tombstone and every index tombstone emit into one batch.
func (e *Engine) DeleteRow(ctx *sim.Ctx, t *TableInfo, keyVals []schema.Value, opts WriteOpts) error {
	old, found, err := e.GetRowVia(ctx, e.Reader(opts), t, opts.Read, keyVals...)
	if err != nil {
		return err
	}
	if !found {
		return nil
	}
	b := e.NewWriteBatch(opts)
	key := schema.EncodeKey(keyVals...)
	if err := b.Delete(ctx, t.Name, key, opts.TS); err != nil {
		return err
	}
	for _, idx := range t.Indexes {
		if err := b.Delete(ctx, idx.Name, IndexKey(t, idx, old), opts.TS); err != nil {
			return err
		}
	}
	return b.Flush(ctx)
}
