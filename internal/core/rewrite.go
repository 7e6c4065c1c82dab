package core

import (
	"fmt"
	"slices"
	"sort"

	"synergy/internal/schema"
	"synergy/internal/sqlparser"
)

// ViewUsage records one appearance of a view in a rewritten query: the view,
// the alias it is bound to, and which original bindings it replaced.
type ViewUsage struct {
	View     *View
	Alias    string
	Replaced []string // original binding names, in view-relation order
}

// Rewritten is a query transformed to read from selected views (§VI-B).
type Rewritten struct {
	Original *sqlparser.SelectStmt
	Stmt     *sqlparser.SelectStmt
	Usages   []ViewUsage
}

// UsesViews reports whether rewriting replaced anything.
func (r *Rewritten) UsesViews() bool { return len(r.Usages) > 0 }

// RewriteQuery rewrites a query using the views selected for it: constituent
// relations are replaced by the view and join conditions internal to a view
// are removed (§VI-B). A view may be used several times when the query joins
// the same chain through different foreign keys (Q7's two addresses).
func RewriteQuery(sel *sqlparser.SelectStmt, views []*View) *Rewritten {
	joins := extractJoins(sel)
	binds := bindingRelations(sel)

	consumed := map[string]*ViewUsage{} // binding -> usage
	var usages []*ViewUsage

	for _, v := range views {
		for {
			usage := findUsage(v, joins, binds, consumed)
			if usage == nil {
				break
			}
			usage.Alias = fmt.Sprintf("v%d", len(usages))
			usages = append(usages, usage)
			for _, b := range usage.Replaced {
				consumed[b] = usage
			}
		}
	}
	if len(usages) == 0 {
		return &Rewritten{Original: sel, Stmt: sel}
	}

	out := &sqlparser.SelectStmt{
		Star:  sel.Star,
		Limit: sel.Limit,
	}
	// FROM: view usages first, then surviving bindings in original order.
	for _, u := range usages {
		out.From = append(out.From, sqlparser.TableRef{Name: u.View.Name(), Alias: u.Alias})
	}
	for _, ref := range sel.From {
		if _, gone := consumed[ref.Binding()]; !gone {
			out.From = append(out.From, ref)
		}
	}

	remap := func(c sqlparser.ColumnRef) sqlparser.ColumnRef {
		if c.Table == "" {
			return c
		}
		if u, ok := consumed[c.Table]; ok {
			return sqlparser.ColumnRef{Table: u.Alias, Column: c.Column}
		}
		return c
	}
	remapExpr := func(e sqlparser.Expr) sqlparser.Expr {
		switch x := e.(type) {
		case sqlparser.ColumnRef:
			return remap(x)
		case sqlparser.AggExpr:
			if x.Arg != nil {
				c := remap(*x.Arg)
				return sqlparser.AggExpr{Fn: x.Fn, Arg: &c, Star: x.Star}
			}
			return x
		default:
			return e
		}
	}

	// WHERE: drop join conditions whose both sides landed in the same
	// usage; remap the rest.
	for _, p := range sel.Where {
		l, lIsCol := p.Left.(sqlparser.ColumnRef)
		r, rIsCol := p.Right.(sqlparser.ColumnRef)
		if lIsCol && rIsCol && l.Table != "" && r.Table != "" {
			lu, lOK := consumed[l.Table]
			ru, rOK := consumed[r.Table]
			if lOK && rOK && lu == ru && p.Op == sqlparser.OpEq {
				continue // materialized inside the view
			}
		}
		out.Where = append(out.Where, sqlparser.Predicate{
			Left:  remapExpr(p.Left),
			Op:    p.Op,
			Right: remapExpr(p.Right),
		})
	}

	for _, it := range sel.Items {
		out.Items = append(out.Items, sqlparser.SelectItem{Expr: remapExpr(it.Expr), Alias: it.Alias})
	}
	for _, g := range sel.GroupBy {
		out.GroupBy = append(out.GroupBy, remap(g))
	}
	for _, o := range sel.OrderBy {
		out.OrderBy = append(out.OrderBy, sqlparser.OrderItem{Col: remap(o.Col), Desc: o.Desc})
	}

	final := make([]ViewUsage, len(usages))
	for i, u := range usages {
		final[i] = *u
	}
	return &Rewritten{Original: sel, Stmt: out, Usages: final}
}

// ExpandStar spells out a rewritten SELECT * the way the engine spells it
// over the original FROM list: every column of every original binding, in
// FROM and column order, named by the column, or binding.column where another
// binding has a column of that name — each read from the view that replaced
// its binding. The rewrite then returns the original query's columns, names
// and order. r is left alone when it uses no view, the query selects no star,
// or a binding is not a relation of s (a derived table, whose columns only the
// engine knows).
func (r *Rewritten) ExpandStar(s *schema.Schema) {
	sel := r.Original
	if !r.UsesViews() || !sel.Star {
		return
	}
	rels := make([]*schema.Relation, len(sel.From))
	n := 0
	for i, ref := range sel.From {
		if rels[i] = s.Relation(ref.Name); ref.Sub != nil || rels[i] == nil {
			return
		}
		n += len(rels[i].Columns)
	}
	items := make([]sqlparser.SelectItem, 0, n)
	for i, ref := range sel.From {
		bind := ref.Binding()
		table := bind
		for _, u := range r.Usages {
			if slices.Contains(u.Replaced, bind) {
				table = u.Alias
				break
			}
		}
		for _, c := range rels[i].Columns {
			name := c.Name
			for j, other := range rels {
				if j != i && other.HasColumn(c.Name) {
					name = bind + "." + c.Name
					break
				}
			}
			items = append(items, sqlparser.SelectItem{Expr: sqlparser.ColumnRef{Table: table, Column: c.Name}, Alias: name})
		}
	}
	r.Stmt.Star, r.Stmt.Items = false, items
}

// findUsage locates one not-yet-consumed group of bindings whose joins cover
// every edge of the view, mapping bindings 1:1 onto the view's relations.
func findUsage(v *View, joins []queryJoin, binds map[string]string, consumed map[string]*ViewUsage) *ViewUsage {
	// bindingFor[relation] per usage; seed from the view's first edge and
	// grow along the path.
	relIndex := map[string]int{}
	for i, r := range v.Relations {
		relIndex[r] = i
	}

	// Collect, per view edge, the candidate binding pairs.
	type pair struct{ parentBind, childBind string }
	edgeCands := make([][]pair, len(v.Edges))
	for ei, e := range v.Edges {
		for _, j := range joins {
			if !j.matchesEdge(e) {
				continue
			}
			var p pair
			if j.relA == e.Parent && j.colA == e.PK[0] {
				p = pair{parentBind: j.bindA, childBind: j.bindB}
			} else {
				p = pair{parentBind: j.bindB, childBind: j.bindA}
			}
			if p.parentBind == "" || p.childBind == "" {
				continue
			}
			if _, gone := consumed[p.parentBind]; gone {
				continue
			}
			if _, gone := consumed[p.childBind]; gone {
				continue
			}
			edgeCands[ei] = append(edgeCands[ei], p)
		}
		if len(edgeCands[ei]) == 0 {
			return nil
		}
		sort.Slice(edgeCands[ei], func(a, b int) bool {
			if edgeCands[ei][a].parentBind != edgeCands[ei][b].parentBind {
				return edgeCands[ei][a].parentBind < edgeCands[ei][b].parentBind
			}
			return edgeCands[ei][a].childBind < edgeCands[ei][b].childBind
		})
	}

	// Backtracking assignment of one binding per relation consistent
	// across all edges (view paths are short, so this is cheap).
	assign := make(map[string]string, len(v.Relations)) // relation -> binding
	used := map[string]bool{}
	var solve func(ei int) bool
	solve = func(ei int) bool {
		if ei == len(v.Edges) {
			return true
		}
		e := v.Edges[ei]
		for _, cand := range edgeCands[ei] {
			ok := true
			for rel, bind := range map[string]string{e.Parent: cand.parentBind, e.Child: cand.childBind} {
				if cur, has := assign[rel]; has && cur != bind {
					ok = false
					break
				}
				if _, has := assign[rel]; !has && used[bind] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			addedP := false
			addedC := false
			if _, has := assign[e.Parent]; !has {
				assign[e.Parent] = cand.parentBind
				used[cand.parentBind] = true
				addedP = true
			}
			if _, has := assign[e.Child]; !has {
				assign[e.Child] = cand.childBind
				used[cand.childBind] = true
				addedC = true
			}
			if solve(ei + 1) {
				return true
			}
			if addedP {
				used[assign[e.Parent]] = false
				delete(assign, e.Parent)
			}
			if addedC {
				used[assign[e.Child]] = false
				delete(assign, e.Child)
			}
		}
		return false
	}
	if !solve(0) {
		return nil
	}
	u := &ViewUsage{View: v}
	for _, r := range v.Relations {
		u.Replaced = append(u.Replaced, assign[r])
	}
	return u
}
