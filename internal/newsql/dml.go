package newsql

import (
	"fmt"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// Exec runs a single-row write transaction (insert, update or delete),
// serialized with every other statement — serializable isolation by
// construction. It is charged under the first scheme: a write that does not
// bind that scheme's partition column runs on every partition.
func (e *Engine) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	ctx.Charge(e.costs.NewSQLBase)
	switch s := stmt.(type) {
	case *sqlparser.InsertStmt:
		return e.execInsert(ctx, s, params)
	case *sqlparser.UpdateStmt:
		return e.execUpdate(ctx, s, params)
	case *sqlparser.DeleteStmt:
		return e.execDelete(ctx, s, params)
	default:
		return fmt.Errorf("newsql: unsupported statement %T", stmt)
	}
}

func (e *Engine) execInsert(ctx *sim.Ctx, s *sqlparser.InsertStmt, params []schema.Value) error {
	rel := e.sch.Relation(s.Table)
	if rel == nil {
		return fmt.Errorf("%w: %s", ErrUnknownTable, s.Table)
	}
	cols := s.Columns
	if len(cols) == 0 {
		cols = rel.ColumnNames()
	}
	if len(cols) != len(s.Values) {
		return fmt.Errorf("newsql: %d columns, %d values", len(cols), len(s.Values))
	}
	row := schema.Row{}
	for i, c := range cols {
		v, err := constValue(s.Values[i], params)
		if err != nil {
			return err
		}
		row[c] = v
	}
	for _, k := range rel.PK {
		if row[k] == nil {
			return fmt.Errorf("%w: %s.%s", ErrKeyRequired, s.Table, k)
		}
	}
	// Every scheme must be able to place the row.
	for _, sc := range e.schemes {
		if pcol := sc.Partitioned(s.Table); pcol != "" && row[pcol] == nil {
			return fmt.Errorf("newsql: write to %s must bind partition column %s of scheme %s", s.Table, pcol, sc.Name)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.table(s.Table)[pkKey(rel, row)] = row
	ctx.Charge(e.costs.NewSQLRow)
	return nil
}

func (e *Engine) keyRowFromWhere(rel *schema.Relation, where []sqlparser.Predicate, params []schema.Value) (schema.Row, error) {
	bound := schema.Row{}
	for _, p := range where {
		col, ok := p.Left.(sqlparser.ColumnRef)
		if !ok || p.Op != sqlparser.OpEq {
			return nil, fmt.Errorf("newsql: write WHERE must be key equality (%s)", p)
		}
		v, err := constValue(p.Right, params)
		if err != nil {
			return nil, err
		}
		bound[col.Column] = v
	}
	for _, k := range rel.PK {
		if bound[k] == nil {
			return nil, fmt.Errorf("%w: %s.%s", ErrKeyRequired, rel.Name, k)
		}
	}
	return bound, nil
}

// findRow locates the row a write's WHERE names: the one with the bound key
// whose every bound column equals the bound value. A write that leaves the
// first scheme's partition column unbound is charged as multi-partition.
// Callers hold e.mu.
func (e *Engine) findRow(ctx *sim.Ctx, rel *schema.Relation, bound schema.Row) (string, schema.Row, bool) {
	if pcol := e.schemes[0].Partitioned(rel.Name); pcol != "" && bound[pcol] == nil {
		ctx.Charge(e.costs.NewSQLMultiPartition)
	}
	key := pkKey(rel, bound)
	row, ok := e.tables[rel.Name][key]
	if !ok {
		return "", nil, false
	}
	for c, v := range bound {
		if schema.CompareValues(row[c], v) != 0 {
			return "", nil, false
		}
	}
	return key, row, true
}

func (e *Engine) execUpdate(ctx *sim.Ctx, s *sqlparser.UpdateStmt, params []schema.Value) error {
	rel := e.sch.Relation(s.Table)
	if rel == nil {
		return fmt.Errorf("%w: %s", ErrUnknownTable, s.Table)
	}
	bound, err := e.keyRowFromWhere(rel, s.Where, params)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key, row, ok := e.findRow(ctx, rel, bound)
	if !ok {
		return nil // zero rows affected
	}
	updated := row.Clone()
	for _, a := range s.Set {
		v, err := constValue(a.Value, params)
		if err != nil {
			return err
		}
		updated[a.Column] = v
	}
	e.tables[rel.Name][key] = updated
	ctx.Charge(e.costs.NewSQLRow)
	return nil
}

func (e *Engine) execDelete(ctx *sim.Ctx, s *sqlparser.DeleteStmt, params []schema.Value) error {
	rel := e.sch.Relation(s.Table)
	if rel == nil {
		return fmt.Errorf("%w: %s", ErrUnknownTable, s.Table)
	}
	bound, err := e.keyRowFromWhere(rel, s.Where, params)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key, _, ok := e.findRow(ctx, rel, bound)
	if !ok {
		return nil
	}
	delete(e.tables[rel.Name], key)
	ctx.Charge(e.costs.NewSQLRow)
	return nil
}
