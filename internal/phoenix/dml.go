package phoenix

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

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
	// Notes, when set, is storage the transaction lends its write batches for
	// the notifications they hold until their emission completes (table and
	// key of each); a batch hands it back, grown, when it delivers them, so
	// the notifications allocate nothing once the storage has grown. A
	// transaction's batches run one at a time, so they share it.
	Notes *[][2]string
	// Mutator, when set, is the transaction's BufferedMutator, which every
	// statement of the transaction emits into: mutations persist when the
	// mutator flushes — by itself at its flush threshold, at an explicit
	// protocol phase barrier, or at the transaction's commit — and the
	// read-before-write of UPDATE/DELETE consults its read-your-writes
	// overlay, so a statement sees rows earlier statements wrote but have not
	// yet flushed. Flush/Discard lifecycle belongs to the transaction owner,
	// not to the statement. A write whose options carry none is its own
	// one-statement transaction (loaders, changefeed appliers, tests): it
	// buffers into a mutator of its own and flushes it when the statement
	// ends.
	Mutator *hbase.BufferedMutator
	// Reader, when set, overrides the read side of the write path: the
	// read-before-write of UPDATE/DELETE and every maintenance read go
	// through it instead of the Mutator's view. OCC transactions pass
	// their read-set-tracking reader here so the GetCells choke point
	// records every key the transaction's writes depended on.
	Reader hbase.Reader
	// Scratch, when set, is storage the transaction lends its statements for
	// what they build and drop (see WriteScratch); nil allocates it.
	Scratch *WriteScratch
}

// WriteScratch is storage a transaction lends every statement it runs
// (WriteOpts.Scratch) for what a write builds and drops before its
// transaction ends: the bound statement, the cell lists it hands the mutator,
// and the rows its point reads and multi-gets return. A region copies the
// cells of a mutation as it applies it and the read-your-writes overlay those
// of one it buffers, so the lists are dead once the transaction's last flush
// returns; Reset then empties the scratch for the next transaction. Nothing
// may keep what a scratch lends past its Reset: whoever keeps a bound
// statement longer (an async view's delta) copies it first. The keys and
// values a write makes are never the scratch's, since a memstore keeps them.
// A nil *WriteScratch allocates everything, as a one-statement write does.
type WriteScratch struct {
	write Write
	cells hbase.Slab[hbase.Cell]
	read  hbase.ReadBuf
}

// maxScratchCells is the most cells a scratch's slab holds (about 230 KB):
// the cell lists of an ordering-mix transaction fit, and one larger
// transaction pins nothing for the next.
const maxScratchCells = 4 << 10

// Cells returns an empty cell list with room for n cells, cut from the
// scratch's slab, or allocated without a scratch.
func (s *WriteScratch) Cells(n int) []hbase.Cell {
	if s == nil {
		return make([]hbase.Cell, 0, n)
	}
	return s.cells.Take(n)
}

// ReadBuf is the storage the scratch lends reads (nil without a scratch).
func (s *WriteScratch) ReadBuf() *hbase.ReadBuf {
	if s == nil {
		return nil
	}
	return &s.read
}

// Reset empties the scratch for the next transaction, dropping every
// reference it holds into the store and to the statements it served.
func (s *WriteScratch) Reset() {
	s.write = Write{}
	s.cells.Reset(maxScratchCells)
	s.read.Reset()
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
	sh, err := e.ShapeWrite(stmt)
	if err != nil {
		return err
	}
	args, err := schema.ArgsOf(params)
	if err != nil {
		return err
	}
	w, err := sh.Bind(args, opts.Scratch)
	if err != nil {
		return err
	}
	return e.ExecWrite(ctx, w, opts)
}

// Write is a write statement bound to its parameters, in the form the whole
// write path works on: the table, the key of the one row it writes, and the
// statement's cells in qualifier order — an INSERT's row (a NULL is no cell),
// an UPDATE's assignment (a NULL is a column tombstone), nothing for a DELETE.
// The cells are encoded once, and every mutation the statement fans out into
// — base row, index entries, view rows — shares them: they are never written
// again except by StampCells, on the statement's own goroutine.
type Write struct {
	Stmt  sqlparser.Statement // what it was bound from
	Table *TableInfo
	Key   string
	Cells []hbase.Cell
}

// WriteShape is a write statement resolved against the catalog: what binding
// it takes that no parameter changes — its table and the column each of its
// values goes to. Bind makes a Write of it per execution. It is immutable, so
// any number of executions may bind it at once.
type WriteShape struct {
	stmt  sqlparser.Statement
	table *TableInfo
	// set is an INSERT's values paired with their columns, or an UPDATE's
	// assignment; nil for a DELETE.
	set []sqlparser.Assignment
	// where is an UPDATE's or a DELETE's key equalities.
	where []sqlparser.Predicate
}

// ShapeWrite resolves a write statement's table and columns once, for Bind.
func (e *Engine) ShapeWrite(stmt sqlparser.Statement) (*WriteShape, error) {
	switch s := stmt.(type) {
	case *sqlparser.InsertStmt:
		t, err := e.cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		ncols := len(s.Columns)
		if ncols == 0 {
			ncols = len(t.Cols)
		}
		if ncols != len(s.Values) {
			return nil, fmt.Errorf("phoenix: %d columns, %d values", ncols, len(s.Values))
		}
		set := make([]sqlparser.Assignment, len(s.Values))
		for i, v := range s.Values {
			set[i].Value = v
			if len(s.Columns) > 0 {
				set[i].Column = s.Columns[i]
			} else {
				set[i].Column = t.Cols[i].Name
			}
		}
		return &WriteShape{stmt: s, table: t, set: set}, nil

	case *sqlparser.UpdateStmt:
		t, err := e.cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		return &WriteShape{stmt: s, table: t, set: s.Set, where: s.Where}, nil

	case *sqlparser.DeleteStmt:
		t, err := e.cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		return &WriteShape{stmt: s, table: t, where: s.Where}, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupported, stmt)
	}
}

// Bind binds the statement to its parameters. With a scratch, the Write and
// its cell list are the scratch's (see WriteScratch).
func (sh *WriteShape) Bind(params []schema.Arg, sc *WriteScratch) (*Write, error) {
	var w *Write
	if sc != nil {
		w = &sc.write
	} else {
		w = new(Write)
	}
	var err error
	if *w, err = sh.bind(params, sc); err != nil {
		return nil, err
	}
	return w, nil
}

func (sh *WriteShape) bind(params []schema.Arg, sc *WriteScratch) (Write, error) {
	t := sh.table
	switch sh.stmt.(type) {
	case *sqlparser.InsertStmt:
		cells, err := encodeCells(t, sh.set, params, false, sc)
		if err != nil {
			return Write{}, err
		}
		var buf [64]byte
		key, null := AppendKeyOfCells(buf[:0], cells, t.Key)
		if null {
			return Write{}, fmt.Errorf("%w: %s needs every one of %v", ErrKeyNotSpecified, t.Name, t.Key)
		}
		return Write{Stmt: sh.stmt, Table: t, Key: string(key), Cells: cells}, nil

	case *sqlparser.UpdateStmt:
		key, err := keyFromWhere(t, sh.where, params)
		if err != nil {
			return Write{}, err
		}
		for _, a := range sh.set {
			if slices.Contains(t.Key, a.Column) {
				return Write{}, fmt.Errorf("%w: cannot update key attribute %s.%s", ErrUnsupported, t.Name, a.Column)
			}
		}
		cells, err := encodeCells(t, sh.set, params, true, sc)
		if err != nil {
			return Write{}, err
		}
		return Write{Stmt: sh.stmt, Table: t, Key: key, Cells: cells}, nil

	default: // DELETE
		key, err := keyFromWhere(t, sh.where, params)
		if err != nil {
			return Write{}, err
		}
		return Write{Stmt: sh.stmt, Table: t, Key: key}, nil
	}
}

// ExecWrite applies a bound write to its table and the table's indexes. An
// UPDATE or DELETE reads the row first (through Reader(opts), so a transaction
// sees its own buffered writes); a missing row is zero rows affected.
func (e *Engine) ExecWrite(ctx *sim.Ctx, w *Write, opts WriteOpts) error {
	if _, insert := w.Stmt.(*sqlparser.InsertStmt); insert {
		return e.PutCellsAt(ctx, w.Table, w.Key, w.Cells, opts)
	}
	old, err := GetCells(ctx, e.Reader(opts), w.Table.Name, w.Key, opts.Read, opts.Scratch)
	if err != nil || old == nil {
		return err
	}
	if _, update := w.Stmt.(*sqlparser.UpdateStmt); update {
		return e.UpdateRow(ctx, w.Table, w.Key, old, w.Cells, opts)
	}
	return e.DeleteRow(ctx, w.Table, w.Key, old, opts)
}

func evalConst(e sqlparser.Expr, params []schema.Arg) (schema.Arg, error) {
	switch x := e.(type) {
	case sqlparser.Literal:
		if v, ok := schema.ArgOf(x.Value); ok {
			return v, nil
		}
		return schema.Arg{}, fmt.Errorf("%w: literal %T", ErrUnsupported, x.Value)
	case sqlparser.Param:
		if x.Index >= len(params) {
			return schema.Arg{}, fmt.Errorf("phoenix: missing parameter %d", x.Index)
		}
		return params[x.Index], nil
	default:
		return schema.Arg{}, fmt.Errorf("%w: non-constant expression %s", ErrUnsupported, e)
	}
}

// encodeCells evaluates a statement's column = value pairs and encodes them
// as cells in qualifier order, the values windows into one buffer as
// RowToCells lays them out, each in its column's kind (coerce; a value the
// column cannot hold is refused). A NULL is left out of an inserted row; in an
// assignment it is the column's tombstone, so the update takes the stored
// value away instead of keeping it. The cell list is cut from sc.
func encodeCells(t *TableInfo, set []sqlparser.Assignment, params []schema.Arg, assignment bool, sc *WriteScratch) ([]hbase.Cell, error) {
	size := 0
	for _, a := range set {
		if !t.HasColumn(a.Column) {
			return nil, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, t.Name, a.Column)
		}
		v, err := evalConst(a.Value, params)
		if err != nil {
			return nil, err
		}
		if v.Kind() != schema.ArgNull {
			size += encodedLen(v)
		}
	}
	buf := make([]byte, 0, size)
	cells := sc.Cells(len(set))
	for _, a := range set {
		v, _ := evalConst(a.Value, params)
		typ, _ := t.Col(a.Column)
		v, ok := coerce(typ, v)
		switch {
		case !ok:
			return nil, fmt.Errorf("phoenix: %s.%s is %s and cannot hold %v", t.Name, a.Column, typ, v.Value())
		case v.Kind() != schema.ArgNull:
			at := len(buf)
			buf = AppendArg(buf, v)
			cells = append(cells, hbase.Cell{Qualifier: a.Column, Value: buf[at:len(buf):len(buf)]})
		case assignment:
			cells = append(cells, hbase.Cell{Qualifier: a.Column, Type: hbase.TypeDeleteCol})
		}
	}
	slices.SortFunc(cells, func(a, b hbase.Cell) int { return strings.Compare(a.Qualifier, b.Qualifier) })
	for i := 1; i < len(cells); i++ {
		if cells[i].Qualifier == cells[i-1].Qualifier {
			return nil, fmt.Errorf("%w: column %s.%s specified twice", ErrUnsupported, t.Name, cells[i].Qualifier)
		}
	}
	return cells, nil
}

// keyFromWhere builds the row key a write's WHERE clause names, erroring when
// any key attribute is unbound (multi-row writes are not supported, §IV).
func keyFromWhere(t *TableInfo, where []sqlparser.Predicate, params []schema.Arg) (string, error) {
	var arr [4]schema.Arg // up to four key attributes stay on the stack
	var boundArr [4]bool
	vals := append(arr[:0], make([]schema.Arg, len(t.Key))...)
	bound := append(boundArr[:0], make([]bool, len(t.Key))...)
	for _, p := range where {
		col, ok := p.Left.(sqlparser.ColumnRef)
		if !ok || p.Op != sqlparser.OpEq {
			return "", fmt.Errorf("%w: write WHERE must be key equality, got %s", ErrUnsupported, p)
		}
		v, err := evalConst(p.Right, params)
		if err != nil {
			return "", err
		}
		if i := slices.Index(t.Key, col.Column); i >= 0 {
			typ, _ := t.Col(col.Column)
			vals[i], _ = coerce(typ, v) // what the column cannot hold keys no stored row
			bound[i] = true
		}
	}
	var buf [64]byte
	key := buf[:0]
	for i, v := range vals {
		if !bound[i] {
			return "", fmt.Errorf("%w: %s.%s", ErrKeyNotSpecified, t.Name, t.Key[i])
		}
		if i > 0 {
			key = append(key, schema.KeySep)
		}
		key = schema.AppendKeyArg(key, v)
	}
	return string(key), nil
}

// IndexTouched reports whether an assignment (cells in qualifier order)
// affects an index's stored content.
func IndexTouched(t *TableInfo, idx *IndexInfo, assign []hbase.Cell) bool {
	if !idx.KeyOnly {
		return true
	}
	for _, c := range assign {
		if slices.Contains(idx.On, c.Qualifier) || slices.Contains(t.Key, c.Qualifier) {
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

// WriteBatch is one DML statement's (or one phase of the Synergy maintenance
// protocol's) emission into a BufferedMutator, plus the write-set
// notifications that go with it. Notifications are recorded in emission order
// and fire only after the statement's emission completes (for an owned batch,
// after its flush lands); PutQuiet skips notification (dirty marks are not
// part of any write set — index-entry moves, by contrast, notify: their
// tombstones are real writes the OCC validator must see).
//
// The mutator is the transaction's, from WriteOpts.Mutator: Flush then leaves
// the statement's mutations to it — pending until the commit, or already
// shipped if it flushes at 1 — and only Barrier forces them out. A write whose
// options carry no mutator is a one-statement transaction and the batch owns
// one, which Flush ships at statement end.
type WriteBatch struct {
	m        *hbase.BufferedMutator
	owned    bool
	opts     WriteOpts
	notifies [][2]string // in opts.Notes' storage, when it has one
}

// NewWriteBatch opens a batch on opts' mutator, or on one of its own.
func (e *Engine) NewWriteBatch(opts WriteOpts) *WriteBatch {
	b := &WriteBatch{m: opts.Mutator, opts: opts}
	if b.m == nil {
		b.m, b.owned = e.client.NewBufferedMutator(0), true
	}
	if opts.Notes != nil {
		b.notifies = (*opts.Notes)[:0]
	}
	return b
}

// Reader returns the read side of a write: an explicit tracking reader when
// the options carry one, else the overlay view of the transaction's mutator,
// else — a one-statement write — the plain store client. Reads through it see
// the transaction's own buffered writes.
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
	b.record(tbl, key)
	return nil
}

// record records a write-set notification, when anyone observes the write set.
func (b *WriteBatch) record(tbl, key string) {
	if b.opts.OnWrite != nil {
		b.notifies = append(b.notifies, [2]string{tbl, key})
	}
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
	b.record(tbl, key)
	return nil
}

// Flush ends the statement's emission: an owned batch ships its mutations,
// a transaction's batch leaves them to the transaction's mutator. Pending
// notifications fire either way — the write set must be recorded before the
// transaction's commit-time conflict check.
func (b *WriteBatch) Flush(ctx *sim.Ctx) error {
	if b.owned {
		return b.Barrier(ctx)
	}
	b.notify()
	return nil
}

// Barrier forces the buffered mutations out regardless of ownership — the
// ordering barrier between phases of the Synergy §VIII-B maintenance
// protocol. On a transaction's mutator it flushes everything buffered so far,
// including earlier statements of the transaction, which preserves buffer
// order across the barrier.
func (b *WriteBatch) Barrier(ctx *sim.Ctx) error {
	if err := b.m.Flush(ctx); err != nil {
		return err
	}
	b.notify()
	return nil
}

func (b *WriteBatch) notify() {
	for _, n := range b.notifies {
		b.opts.Notify(n[0], n[1])
	}
	clear(b.notifies)
	b.notifies = b.notifies[:0]
	if b.opts.Notes != nil {
		*b.opts.Notes = b.notifies
	}
}

// PutRow is PutCells for a row still boxed: tests load through it; a
// statement's row arrives encoded (WriteShape.Bind).
func (e *Engine) PutRow(ctx *sim.Ctx, t *TableInfo, row schema.Row, opts WriteOpts) error {
	return e.PutCells(ctx, t, RowToCells(row), opts)
}

// PutCells writes one full row — its attribute cells in qualifier order — to
// a table and all of its indexes (Phoenix maintains indexes synchronously on
// the write path). The base put and every index put travel in one batch
// flush.
func (e *Engine) PutCells(ctx *sim.Ctx, t *TableInfo, cells []hbase.Cell, opts WriteOpts) error {
	var buf [64]byte
	key, null := AppendKeyOfCells(buf[:0], cells, t.Key)
	if null {
		return fmt.Errorf("%w: a %s row needs every one of %v", ErrKeyNotSpecified, t.Name, t.Key)
	}
	return e.PutCellsAt(ctx, t, string(key), cells, opts)
}

// PutCellsAt is PutCells for a row whose key the caller has built already
// (Write.Key): key is the key of cells over t.Key.
func (e *Engine) PutCellsAt(ctx *sim.Ctx, t *TableInfo, key string, cells []hbase.Cell, opts WriteOpts) error {
	b := e.NewWriteBatch(opts)
	cells = StampCells(cells, opts.TS)
	if err := b.Put(ctx, t.Name, key, cells); err != nil {
		return err
	}
	var buf [64]byte
	for _, idx := range t.Indexes {
		ikey := AppendIndexKey(buf[:0], t, idx, cells)
		if err := b.Put(ctx, idx.Name, string(ikey), IndexCells(t, idx, cells, opts.Scratch)); err != nil {
			return err
		}
	}
	return b.Flush(ctx)
}

// GetRow reads one row by primary key values from the store and decodes it —
// for checks, probes and the figure harness; the write path reads GetCells.
func (e *Engine) GetRow(ctx *sim.Ctx, t *TableInfo, read hbase.ReadOpts, keyVals ...schema.Value) (schema.Row, bool, error) {
	if len(keyVals) != len(t.Key) {
		return nil, false, fmt.Errorf("%w: %s wants %d key values, got %d", ErrKeyNotSpecified, t.Name, len(t.Key), len(keyVals))
	}
	res, err := e.client.Get(ctx, t.Name, schema.EncodeKey(keyVals...), read)
	if err != nil || res.Empty() {
		return nil, false, err
	}
	return CellsToRow(res), true, nil
}

// UpdateRow applies an assignment (WriteShape.Bind's cells: qualifier order, a NULL
// as a column tombstone) to the row under key, maintaining indexes. old is the
// stored row as the caller read it (GetCells through Reader(opts), so inside a
// transaction it includes the transaction's own buffered writes); it feeds
// index key computation. The base put and every index delete/put emit into
// one batch. The updated row is old under the assignment (MergeCells), and
// index keys come from the cells.
func (e *Engine) UpdateRow(ctx *sim.Ctx, t *TableInfo, key string, old, assign []hbase.Cell, opts WriteOpts) error {
	b := e.NewWriteBatch(opts)
	assign = StampCells(assign, opts.TS)
	if err := b.Put(ctx, t.Name, key, assign); err != nil {
		return err
	}
	var updated []hbase.Cell
	if len(t.Indexes) > 0 {
		updated = StampCells(MergeCells(opts.Scratch.Cells(len(old)+len(assign)), old, assign), opts.TS)
	}
	var obuf, nbuf [64]byte
	for _, idx := range t.Indexes {
		oldKey, newKey := AppendIndexKey(obuf[:0], t, idx, old), AppendIndexKey(nbuf[:0], t, idx, updated)
		if !bytes.Equal(oldKey, newKey) {
			if err := b.Delete(ctx, idx.Name, string(oldKey), opts.TS); err != nil {
				return err
			}
			if err := b.Put(ctx, idx.Name, string(newKey), IndexCells(t, idx, updated, opts.Scratch)); err != nil {
				return err
			}
			continue
		}
		if !IndexTouched(t, idx, assign) {
			continue // key-only index content unchanged
		}
		icells := IndexCells(t, idx, assign, opts.Scratch)
		if len(icells) == 0 {
			continue
		}
		if err := b.Put(ctx, idx.Name, string(newKey), icells); err != nil {
			return err
		}
	}
	return b.Flush(ctx)
}

// DeleteRow removes the row under key, cleaning up the index entries of old,
// the stored row as the caller read it (see UpdateRow); the base tombstone and
// every index tombstone emit into one batch.
func (e *Engine) DeleteRow(ctx *sim.Ctx, t *TableInfo, key string, old []hbase.Cell, opts WriteOpts) error {
	b := e.NewWriteBatch(opts)
	if err := b.Delete(ctx, t.Name, key, opts.TS); err != nil {
		return err
	}
	var buf [64]byte
	for _, idx := range t.Indexes {
		if err := b.Delete(ctx, idx.Name, string(AppendIndexKey(buf[:0], t, idx, old)), opts.TS); err != nil {
			return err
		}
	}
	return b.Flush(ctx)
}
