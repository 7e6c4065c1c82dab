// Package sqlparser parses the SQL dialect the paper's workloads are written
// in (§II-B): single-statement SELECT/INSERT/UPDATE/DELETE with comma-style
// joins, conjunctive WHERE clauses, aggregates, GROUP BY, ORDER BY, LIMIT,
// derived tables and ? parameters. The TPC-W statements in the paper's
// appendix (Figures 15 and 16) and the Company-schema examples (§V) all fall
// in this subset.
package sqlparser

import (
	"fmt"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	String() string
}

// Expr is a scalar expression: a column reference, literal, parameter or
// aggregate call.
type Expr interface {
	expr()
	String() string
}

// ColumnRef names a column, optionally qualified by a table name or alias.
type ColumnRef struct {
	Table  string // may be ""
	Column string
}

func (ColumnRef) expr() {}

func (c ColumnRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// Literal is a typed constant: int64, float64 or string.
type Literal struct {
	Value any
}

func (Literal) expr() {}

// String prints the literal as the lexer reads it back: a string in quotes,
// any quote in it doubled.
func (l Literal) String() string {
	if s, ok := l.Value.(string); ok {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return fmt.Sprint(l.Value)
}

// Param is a ? placeholder; Index is its zero-based position in the
// statement.
type Param struct {
	Index int
}

func (Param) expr() {}

func (p Param) String() string { return "?" }

// AggExpr is an aggregate call: COUNT(*), SUM(col), AVG(col), MIN(col),
// MAX(col).
type AggExpr struct {
	Fn   string // upper case
	Arg  *ColumnRef
	Star bool // COUNT(*)
}

func (AggExpr) expr() {}

func (a AggExpr) String() string {
	if a.Star {
		return a.Fn + "(*)"
	}
	return a.Fn + "(" + a.Arg.String() + ")"
}

// CompareOp is a comparison operator in a predicate.
type CompareOp string

const (
	OpEq CompareOp = "="
	OpNe CompareOp = "<>"
	OpLt CompareOp = "<"
	OpLe CompareOp = "<="
	OpGt CompareOp = ">"
	OpGe CompareOp = ">="
)

// Predicate is one conjunct of a WHERE clause.
type Predicate struct {
	Left  Expr
	Op    CompareOp
	Right Expr
}

func (p Predicate) String() string {
	return p.Left.String() + " " + string(p.Op) + " " + p.Right.String()
}

// IsJoin reports whether both sides are column references — an equi-join
// condition when Op is "=".
func (p Predicate) IsJoin() bool {
	_, l := p.Left.(ColumnRef)
	_, r := p.Right.(ColumnRef)
	return l && r
}

// TableRef is one entry of a FROM clause: a named table (with optional
// alias) or a derived table (sub-select with required alias).
type TableRef struct {
	Name  string
	Alias string
	Sub   *SelectStmt
}

// Binding returns the name this table is referred to by in predicates.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

func (t TableRef) String() string {
	var b strings.Builder
	if t.Sub != nil {
		b.WriteString("(" + t.Sub.String() + ")")
	} else {
		b.WriteString(t.Name)
	}
	if t.Alias != "" {
		b.WriteString(" AS " + t.Alias)
	}
	return b.String()
}

// SelectItem is one projection of a SELECT list.
type SelectItem struct {
	Expr  Expr
	Alias string
}

func (s SelectItem) String() string {
	if s.Alias != "" {
		return s.Expr.String() + " AS " + s.Alias
	}
	return s.Expr.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  ColumnRef
	Desc bool
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Col.String() + " DESC"
	}
	return o.Col.String()
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Star    bool
	Items   []SelectItem
	From    []TableRef
	Where   []Predicate
	GroupBy []ColumnRef
	OrderBy []OrderItem
	Limit   int // 0 = no limit
}

func (*SelectStmt) stmt() {}

func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Star {
		b.WriteString("*")
	} else {
		for i, it := range s.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.String())
		}
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range s.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if s.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// JoinPredicates returns the equi-join conjuncts of the WHERE clause.
func (s *SelectStmt) JoinPredicates() []Predicate {
	var out []Predicate
	for _, p := range s.Where {
		if p.Op == OpEq && p.IsJoin() {
			out = append(out, p)
		}
	}
	return out
}

// FilterPredicates returns the non-join conjuncts of the WHERE clause.
func (s *SelectStmt) FilterPredicates() []Predicate {
	var out []Predicate
	for _, p := range s.Where {
		if !(p.Op == OpEq && p.IsJoin()) {
			out = append(out, p)
		}
	}
	return out
}

// InsertStmt is an INSERT ... VALUES statement.
type InsertStmt struct {
	Table   string
	Columns []string
	Values  []Expr
}

func (*InsertStmt) stmt() {}

func (s *InsertStmt) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + s.Table)
	if len(s.Columns) > 0 {
		b.WriteString(" (" + strings.Join(s.Columns, ", ") + ")")
	}
	b.WriteString(" VALUES (")
	for i, v := range s.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteString(")")
	return b.String()
}

// Assignment is one SET clause of an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is an UPDATE statement.
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where []Predicate
}

func (*UpdateStmt) stmt() {}

func (s *UpdateStmt) String() string {
	var b strings.Builder
	b.WriteString("UPDATE " + s.Table + " SET ")
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Column + " = " + a.Value.String())
	}
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range s.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	return b.String()
}

// DeleteStmt is a DELETE statement.
type DeleteStmt struct {
	Table string
	Where []Predicate
}

func (*DeleteStmt) stmt() {}

func (s *DeleteStmt) String() string {
	var b strings.Builder
	b.WriteString("DELETE FROM " + s.Table)
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range s.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	return b.String()
}
