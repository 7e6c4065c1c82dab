package core

import (
	"fmt"

	"synergy/internal/schema"
	"synergy/internal/sqlparser"
)

// Workload is the set of SQL statements W = {w1, ..., wm} of §II-B, parsed.
type Workload struct {
	Statements []sqlparser.Statement
	Sources    []string
}

// ParseWorkload parses SQL texts into a workload.
func ParseWorkload(sqls []string) (*Workload, error) {
	w := &Workload{}
	for _, src := range sqls {
		stmt, err := sqlparser.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("core: workload statement %q: %w", src, err)
		}
		w.Statements = append(w.Statements, stmt)
		w.Sources = append(w.Sources, src)
	}
	return w, nil
}

// Selects returns the workload's SELECT statements.
func (w *Workload) Selects() []*sqlparser.SelectStmt {
	var out []*sqlparser.SelectStmt
	for _, s := range w.Statements {
		if sel, ok := s.(*sqlparser.SelectStmt); ok {
			out = append(out, sel)
		}
	}
	return out
}

// Writes returns the workload's write statements.
func (w *Workload) Writes() []sqlparser.Statement {
	var out []sqlparser.Statement
	for _, s := range w.Statements {
		switch s.(type) {
		case *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
			out = append(out, s)
		}
	}
	return out
}

// queryJoin is one equi-join condition of a query resolved to relations:
// binding names mapped to their underlying relation names.
type queryJoin struct {
	relA, colA string
	relB, colB string
	// bindings preserved for rewriting
	bindA, bindB string
}

// bindingRelations maps every FROM binding of a select to its relation name.
// Derived tables map to "" (they never participate in view matching).
func bindingRelations(sel *sqlparser.SelectStmt) map[string]string {
	m := map[string]string{}
	for _, ref := range sel.From {
		if ref.Sub != nil {
			m[ref.Binding()] = ""
			continue
		}
		m[ref.Binding()] = ref.Name
	}
	return m
}

// extractJoins resolves a select's equi-join predicates to relation pairs.
// Joins involving derived tables resolve with an empty relation name.
func extractJoins(sel *sqlparser.SelectStmt) []queryJoin {
	binds := bindingRelations(sel)
	resolve := func(c sqlparser.ColumnRef) (bind, rel string) {
		if c.Table != "" {
			return c.Table, binds[c.Table]
		}
		// Unqualified: attribute names are globally unique in the
		// paper's schemas, so scan bindings for the owner. Without a
		// catalog we cannot check membership here; rewriting re-checks
		// against the schema. Unqualified columns stay unresolved.
		return "", ""
	}
	var out []queryJoin
	for _, p := range sel.JoinPredicates() {
		l := p.Left.(sqlparser.ColumnRef)
		r := p.Right.(sqlparser.ColumnRef)
		lb, lr := resolve(l)
		rb, rr := resolve(r)
		out = append(out, queryJoin{
			relA: lr, colA: l.Column, bindA: lb,
			relB: rr, colB: r.Column, bindB: rb,
		})
	}
	return out
}

// matchesEdge reports whether a query join condition is exactly the
// key/foreign-key join of a schema edge.
func (j queryJoin) matchesEdge(e schema.Edge) bool {
	if len(e.PK) != 1 || len(e.FK) != 1 {
		return false // workload joins are single-attribute (§IX)
	}
	if j.relA == e.Parent && j.colA == e.PK[0] && j.relB == e.Child && j.colB == e.FK[0] {
		return true
	}
	if j.relB == e.Parent && j.colB == e.PK[0] && j.relA == e.Child && j.colA == e.FK[0] {
		return true
	}
	return false
}

// weigher scores edges and paths by the number of overlapping workload
// joins, the heuristic the mechanism uses throughout (§V-B2).
//
// An edge's weight is the number of workload join conditions matching it. A
// path's weight counts the queries whose join conditions overlap the entire
// path — i.e. queries the path could materialize a view for. The
// whole-path interpretation is what keeps Orders under the Customer root in
// TPC-W: the alternative Country→Address→Orders chain overlaps Q7's join
// set only once, while Customer→Orders overlaps Q2 and Q7.
type weigher struct {
	perQuery [][]queryJoin
}

func newWeigher(w *Workload) *weigher {
	h := &weigher{}
	for _, sel := range w.Selects() {
		h.perQuery = append(h.perQuery, extractJoins(sel))
	}
	return h
}

func (h *weigher) edgeWeight(e schema.Edge) int {
	n := 0
	for _, joins := range h.perQuery {
		for _, j := range joins {
			if j.matchesEdge(e) {
				n++
			}
		}
	}
	return n
}

// pathWeight counts queries whose joins cover every edge of the path.
func (h *weigher) pathWeight(p schema.Path) int {
	if len(p.Edges) == 0 {
		return 0
	}
	n := 0
	for _, joins := range h.perQuery {
		all := true
		for _, e := range p.Edges {
			matched := false
			for _, j := range joins {
				if j.matchesEdge(e) {
					matched = true
					break
				}
			}
			if !matched {
				all = false
				break
			}
		}
		if all {
			n++
		}
	}
	return n
}
