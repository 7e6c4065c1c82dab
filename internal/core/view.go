// Package core implements the paper's primary contribution: the schema
// based-workload driven materialized views selection mechanism (§V, §VI) and
// the view maintenance / transaction planning that cooperates with the
// hierarchical locking concurrency control (§VII, §VIII).
//
// The package is pure algorithm: it consumes a relational schema, a roots
// set and a SQL workload, and produces a Design — the selected views, the
// rewritten workload, the view indexes and the per-statement write plans.
// The synergy package materializes a Design against the store.
package core

import (
	"fmt"
	"strings"

	"synergy/internal/schema"
)

// View is a candidate or selected materialized view: a path in a rooted tree
// (Definition 5). It is stored physically as a relation whose attributes are
// the union of the path relations' attributes and whose key is the key of
// the last relation in the path.
type View struct {
	// Relations lists the path's relations, root-most first.
	Relations []string
	// Edges are the key/foreign-key joins along the path.
	Edges []schema.Edge
	// Root is the root relation of the tree the path was drawn from; it
	// identifies the lock table guarding this view (§VIII-A).
	Root string
	// Key is PK(V): the primary key of the last relation.
	Key []string
	// Cols is the union of the constituent relations' attributes.
	Cols []schema.Column

	name string // Name(), once buildView has run
}

// Name returns the view's table name, derived from its path: the paper
// writes Customer-Order-Order_line; SQL identifiers use V_ and underscores.
// A view assembled by buildView carries it; one put together by hand derives
// it per call.
func (v *View) Name() string {
	if v.name != "" {
		return v.name
	}
	return "V_" + strings.Join(v.Relations, "__")
}

// DisplayName renders the paper's hyphenated notation.
func (v *View) DisplayName() string { return strings.Join(v.Relations, "-") }

// Last returns the last relation of the path (whose key is the view key and
// whose inserts/deletes apply to the view, §VII-A/B).
func (v *View) Last() string { return v.Relations[len(v.Relations)-1] }

// Contains reports whether the view's path includes the relation.
func (v *View) Contains(rel string) bool {
	for _, r := range v.Relations {
		if r == rel {
			return true
		}
	}
	return false
}

// buildView assembles a View from a path, resolving attributes from the
// schema. It panics on unknown relations (the path came from the same
// schema).
func buildView(s *schema.Schema, root string, p schema.Path) *View {
	v := &View{
		Relations: append([]string(nil), p.Relations...),
		Edges:     append([]schema.Edge(nil), p.Edges...),
		Root:      root,
	}
	seen := map[string]bool{}
	for _, rel := range v.Relations {
		r := s.Relation(rel)
		if r == nil {
			panic(fmt.Sprintf("core: view path references unknown relation %q", rel))
		}
		for _, c := range r.Columns {
			if seen[c.Name] {
				panic(fmt.Sprintf("core: view %s attribute collision on %q (schemas must use globally unique attribute names)", v.DisplayName(), c.Name))
			}
			seen[c.Name] = true
			v.Cols = append(v.Cols, c)
		}
	}
	last := s.Relation(v.Last())
	v.Key = append([]string(nil), last.PK...)
	v.name = v.Name()
	return v
}

// ViewIndex is a covered index on a view (§VI-C), also used for maintenance
// indexes (§VII-C).
type ViewIndex struct {
	View *View
	On   []string
	// Maintenance marks indexes added for update-tuple construction
	// rather than query filters.
	Maintenance bool

	name string
}

func newViewIndex(v *View, on []string, maintenance bool) *ViewIndex {
	return &ViewIndex{View: v, On: on, Maintenance: maintenance,
		name: fmt.Sprintf("IX_%s__%s", v.Name(), strings.Join(on, "_"))}
}

// Name returns the index table name.
func (ix *ViewIndex) Name() string { return ix.name }
