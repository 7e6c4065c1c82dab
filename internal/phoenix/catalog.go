// Package phoenix is the SQL skin over the HBase-like store, playing the
// role Apache Phoenix plays in the paper (§II-D): it maps relations and
// covered indexes onto NoSQL tables via the baseline transformation, compiles
// SQL into scans, coordinates client-side join execution, and maintains
// indexes on writes. The Synergy system, the MVCC systems and the Baseline
// system all execute their workloads through this layer.
//
// Rows stay encoded from the scan to whoever consumes the result. A value is
// a cell — one type-tag byte and a payload (EncodeValue), absent for NULL —
// and the executor's tuples, its join and GROUP BY keys, its comparisons and
// aggregates, and the RowCursor a statement is served through all work on
// cells (see tuple); hash join and GROUP BY number their keys in one keyTable.
// Values are decoded at the map-returning Query API boundary (DrainCursor)
// and nowhere before it; a wire server never decodes them at all.
//
// A SELECT is compiled once and opened per execution. Engine.Compile builds a
// Plan of everything no parameter value and no store state can change — the
// bindings resolved against the catalog, the WHERE conjuncts classified with
// each constant a literal or a parameter slot, the output columns, names and
// types, the tuple slot layout, derived tables (compiled recursively), and
// each table binding's candidate access paths with the equality prefix each
// binds and whether it delivers the ORDER BY. Plan.Open binds the parameters,
// decides the rest — key bounds, row estimates, hash join against index nested
// loop, the scans' column sets — and opens the execution as one tree of pull
// operators: scan, join, residual filter, aggregate, sort, limit. One cursor
// reads every statement's rows off the tree's root, so a statement streams
// exactly when nothing in its tree blocks. QueryStreamOpts is Compile then
// Open.
//
// What a plan knows, its scans are told (scanSpec): the key range — the
// equality prefix on the primary key or a covered index, then the <, <=, >, >=
// conjuncts on the next key column as start and stop rows (keyBounds) — the
// columns the statement reads (columnSet; nil for SELECT *), the remaining
// predicates as the filter, the direction and the limit. Constants take their
// column's declared kind before they are stored or keyed (coerce), so a
// numeric constant finds its rows whether the client typed it INT or DOUBLE.
//
// Writes have the same row model. A row on the write path is its attribute
// cells in qualifier order: BindWrite encodes a statement's values once
// (Write), GetCells reads a stored row as cells, MergeCells lays one row over
// another — a parent under its child for a view row, a stored row under an
// assignment for an update, where a NULL assignment is a column tombstone —
// and AppendKeyOfCells is the one builder of every row key and index key,
// held byte-equal to schema.EncodeKey by a fuzz target. PutCells, UpdateRow
// and DeleteRow turn that into mutations. A schema.Row is built only for
// callers that ask for one: PutRow and GetRow, for loaders, checks and tests.
//
// That rests on one lifetime rule, the store's: a scanner recycles the Cells
// window of a row it returned — the slice of qualifier/value pairs — on its
// next Next, but never the value bytes, which are immutable from the moment
// they are written (a store file block, a memstore cell, a transaction's
// pending write). So code here may keep a value's []byte for as long as it
// likes and must never modify it, may keep r.Cells only until the next row,
// and should drop what it keeps with the statement: a retained value pins the
// whole block it points into.
package phoenix

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"synergy/internal/hbase"
	"synergy/internal/schema"
)

// Errors reported by the SQL layer.
var (
	ErrUnknownTable    = errors.New("phoenix: unknown table")
	ErrUnknownColumn   = errors.New("phoenix: unknown column")
	ErrUnsupported     = errors.New("phoenix: unsupported statement")
	ErrKeyNotSpecified = errors.New("phoenix: write must specify every key attribute")
	ErrDirtyRead       = errors.New("phoenix: dirty row observed")
)

// DirtyQualifier is the marker column Synergy sets on view rows while a
// multi-row update is in flight (§VIII-B). Scans configured with dirty
// checking restart when they observe it.
const DirtyQualifier = "_dirty"

// TableInfo describes one physical NoSQL table known to the catalog: a base
// relation, a materialized view, or nothing (indexes are attached to their
// table's info).
type TableInfo struct {
	Name string
	// Cols lists stored attributes in declaration order.
	Cols []schema.Column
	// Key lists the row-key attributes in order: PK(R) for a base table,
	// PK(V) = key of the view's last relation for a view (Definition 5).
	Key []string
	// Indexes are the covered indexes on this table.
	Indexes []*IndexInfo
	// IsView marks materialized views (subject to dirty-marking).
	IsView bool
	// BaseRelations lists the constituent relations for a view, in path
	// order (root-most first); nil for base tables.
	BaseRelations []string

	colTypes map[string]schema.ColType
}

// IndexInfo describes an index: row key = On ++ table key. By default every
// table column is stored (covered), so reads never hit the base table
// (§II-A). KeyOnly indexes store just the key attributes — the shape of the
// maintenance indexes of §VII-C, which exist to locate view rows, not to
// answer queries.
type IndexInfo struct {
	Name    string
	On      []string
	KeyOnly bool
}

// Col returns the column type, with ok=false for unknown columns.
func (t *TableInfo) Col(name string) (schema.ColType, bool) {
	ct, ok := t.colTypes[name]
	return ct, ok
}

// HasColumn reports whether the table stores the column.
func (t *TableInfo) HasColumn(name string) bool {
	_, ok := t.colTypes[name]
	return ok
}

// ColumnNames lists stored attributes in order.
func (t *TableInfo) ColumnNames() []string {
	out := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		out[i] = c.Name
	}
	return out
}

// Catalog maps SQL names onto NoSQL tables (the baseline schema
// transformation of §II-D) and tracks views and indexes.
type Catalog struct {
	mu     sync.RWMutex
	hc     *hbase.HCluster
	tables map[string]*TableInfo
	order  []string
}

// NewCatalog returns an empty catalog over the store.
func NewCatalog(hc *hbase.HCluster) *Catalog {
	return &Catalog{hc: hc, tables: map[string]*TableInfo{}}
}

// Store exposes the underlying store.
func (c *Catalog) Store() *hbase.HCluster { return c.hc }

func buildInfo(name string, cols []schema.Column, key []string) *TableInfo {
	info := &TableInfo{Name: name, Cols: cols, Key: key, colTypes: map[string]schema.ColType{}}
	for _, col := range cols {
		info.colTypes[col.Name] = col.Type
	}
	for _, k := range key {
		if !info.HasColumn(k) {
			panic(fmt.Sprintf("phoenix: table %s key column %q not stored", name, k))
		}
	}
	return info
}

// RegisterRelation creates the NoSQL table for a relation: same attributes,
// row key = delimited concatenation of PK values, one column family (§II-D).
func (c *Catalog) RegisterRelation(r *schema.Relation, spec hbase.TableSpec) (*TableInfo, error) {
	return c.register(r.Name, r.Columns, r.PK, false, nil, spec)
}

// RegisterView creates the NoSQL table for a materialized view: attributes
// are the union of the constituent relations' attributes, the key is the key
// of the last relation in the view (Definition 5).
func (c *Catalog) RegisterView(name string, cols []schema.Column, key []string, baseRelations []string, spec hbase.TableSpec) (*TableInfo, error) {
	return c.register(name, cols, key, true, baseRelations, spec)
}

func (c *Catalog) register(name string, cols []schema.Column, key []string, isView bool, baseRels []string, spec hbase.TableSpec) (*TableInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[name]; dup {
		return nil, fmt.Errorf("phoenix: table %q already registered", name)
	}
	info := buildInfo(name, cols, key)
	info.IsView = isView
	info.BaseRelations = append([]string(nil), baseRels...)
	spec.Name = name
	if err := c.hc.CreateTable(spec); err != nil {
		return nil, err
	}
	c.tables[name] = info
	c.order = append(c.order, name)
	return info, nil
}

// RegisterIndex creates a covered index table named idx.Name on table: row
// key = idx.On ++ table key; all table columns stored (§II-D: an index
// becomes a relation in the NoSQL schema).
func (c *Catalog) RegisterIndex(table string, idx IndexInfo, spec hbase.TableSpec) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tables[table]
	if t == nil {
		return fmt.Errorf("%w: %s", ErrUnknownTable, table)
	}
	for _, col := range idx.On {
		if !t.HasColumn(col) {
			return fmt.Errorf("%w: %s.%s", ErrUnknownColumn, table, col)
		}
	}
	for _, existing := range t.Indexes {
		if existing.Name == idx.Name {
			return fmt.Errorf("phoenix: index %q already registered", idx.Name)
		}
	}
	spec.Name = idx.Name
	if err := c.hc.CreateTable(spec); err != nil {
		return err
	}
	ix := idx
	t.Indexes = append(t.Indexes, &ix)
	return nil
}

// Table returns the named table's info, or an error.
func (c *Catalog) Table(name string) (*TableInfo, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t := c.tables[name]
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTable, name)
	}
	return t, nil
}

// Tables lists registered tables in registration order.
func (c *Catalog) Tables() []*TableInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*TableInfo, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.tables[n])
	}
	return out
}

// Views lists registered views, sorted by name.
func (c *Catalog) Views() []*TableInfo {
	var out []*TableInfo
	for _, t := range c.Tables() {
		if t.IsView {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
