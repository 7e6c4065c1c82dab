// Package schema holds the relational data model of §II-A: relations with
// primary keys, foreign keys and covered indexes, and the schema graph whose
// key/foreign-key edges drive the candidate view generation mechanism of §V.
// It also provides the typed value model and the order-preserving key codec
// shared by every engine in the repository.
package schema

import (
	"fmt"
	"strings"
)

// ColType is the type of a column.
type ColType int

const (
	TInt ColType = iota
	TFloat
	TString
)

func (t ColType) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "STRING"
	default:
		return "?"
	}
}

// Column is one attribute of a relation.
type Column struct {
	Name string
	Type ColType
}

// ForeignKey is a reference from this relation's Cols to RefTable's primary
// key. A relation can have several (§II-A: F(R)).
type ForeignKey struct {
	Cols     []string
	RefTable string
}

func (fk ForeignKey) String() string {
	return fmt.Sprintf("(%s)->%s", strings.Join(fk.Cols, ","), fk.RefTable)
}

// Relation models a relation R: a set of attributes with a primary key
// PK(R) and foreign keys F(R) (§II-A).
type Relation struct {
	Name    string
	Columns []Column
	PK      []string
	FKs     []ForeignKey
}

// Col returns the named column, or nil.
func (r *Relation) Col(name string) *Column {
	for i := range r.Columns {
		if r.Columns[i].Name == name {
			return &r.Columns[i]
		}
	}
	return nil
}

// HasColumn reports whether the relation has the named attribute.
func (r *Relation) HasColumn(name string) bool { return r.Col(name) != nil }

// ColumnNames lists attribute names in declaration order.
func (r *Relation) ColumnNames() []string {
	out := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		out[i] = c.Name
	}
	return out
}

// IsPK reports whether name is part of the primary key.
func (r *Relation) IsPK(name string) bool {
	for _, k := range r.PK {
		if k == name {
			return true
		}
	}
	return false
}

// Index models a covered index X(R): a set of attributes stored in the index
// itself, indexed on the tuple Cols; the index key is Cols ++ PK(R) in that
// order (§II-A).
type Index struct {
	Name  string
	Table string
	Cols  []string // Xtuple(R): the attributes the index is keyed on
	// Include lists the covered non-key attributes. Empty means all of
	// the relation's attributes are covered, which is how this
	// reproduction uses indexes throughout.
	Include []string
}

// Schema is a set of relations and their index sets (§II-A).
type Schema struct {
	relations map[string]*Relation
	order     []string
	indexes   map[string][]*Index // table -> indexes
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{relations: map[string]*Relation{}, indexes: map[string][]*Index{}}
}

// AddRelation registers a relation. It panics on duplicates or dangling
// column references — schema definitions are static program data, and a bad
// one is a bug.
func (s *Schema) AddRelation(r *Relation) *Schema {
	if _, dup := s.relations[r.Name]; dup {
		panic(fmt.Sprintf("schema: duplicate relation %q", r.Name))
	}
	for _, k := range r.PK {
		if !r.HasColumn(k) {
			panic(fmt.Sprintf("schema: %s primary key column %q not declared", r.Name, k))
		}
	}
	for _, fk := range r.FKs {
		for _, c := range fk.Cols {
			if !r.HasColumn(c) {
				panic(fmt.Sprintf("schema: %s foreign key column %q not declared", r.Name, c))
			}
		}
	}
	s.relations[r.Name] = r
	s.order = append(s.order, r.Name)
	return s
}

// AddIndex registers a covered index on an existing relation.
func (s *Schema) AddIndex(ix *Index) *Schema {
	r := s.relations[ix.Table]
	if r == nil {
		panic(fmt.Sprintf("schema: index %q on unknown relation %q", ix.Name, ix.Table))
	}
	for _, c := range ix.Cols {
		if !r.HasColumn(c) {
			panic(fmt.Sprintf("schema: index %q column %q not in %s", ix.Name, c, ix.Table))
		}
	}
	s.indexes[ix.Table] = append(s.indexes[ix.Table], ix)
	return s
}

// Relation returns the named relation, or nil.
func (s *Schema) Relation(name string) *Relation { return s.relations[name] }

// Relations lists relations in declaration order.
func (s *Schema) Relations() []*Relation {
	out := make([]*Relation, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.relations[n])
	}
	return out
}

// RelationNames lists relation names in declaration order.
func (s *Schema) RelationNames() []string { return append([]string(nil), s.order...) }

// Indexes returns the index set I(R) of a relation.
func (s *Schema) Indexes(table string) []*Index { return s.indexes[table] }

// Validate checks referential structure: every FK must reference an existing
// relation whose PK length matches the FK column count.
func (s *Schema) Validate() error {
	for _, name := range s.order {
		r := s.relations[name]
		for _, fk := range r.FKs {
			ref := s.relations[fk.RefTable]
			if ref == nil {
				return fmt.Errorf("schema: %s references unknown relation %q", r.Name, fk.RefTable)
			}
			if len(fk.Cols) != len(ref.PK) {
				return fmt.Errorf("schema: %s fk %v arity %d != %s pk arity %d",
					r.Name, fk.Cols, len(fk.Cols), ref.Name, len(ref.PK))
			}
		}
	}
	return nil
}
