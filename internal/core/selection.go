package core

import (
	"sort"

	"synergy/internal/schema"
	"synergy/internal/sqlparser"
)

// SelectViewsForQuery runs the marking procedure of §VI-A against the rooted
// trees and returns the views selected for one equi-join query, in selection
// order.
//
// Procedure: mark every tree edge (and its endpoints) that matches a join
// condition of the query; then repeatedly choose a path whose nodes and
// edges are all marked, starting at a marked node with no incoming marked
// edge and ending at a leaf or a node with no outgoing marked edge; select
// it as a view and un-mark its relations and their outgoing edges.
func SelectViewsForQuery(s *schema.Schema, trees []*RootedTree, sel *sqlparser.SelectStmt) []*View {
	// Self-joins (a relation joined with itself, Q9/Q11) never mark tree
	// edges: their join conditions are not key/foreign-key edges. Queries
	// that reference a relation twice through *different* foreign keys
	// (Q7's shipping and billing addresses) mark the shared edge once and
	// are rewritten with one view usage per alias group.
	joins := extractJoins(sel)
	var out []*View
	for _, tree := range trees {
		out = append(out, selectInTree(s, tree, joins)...)
	}
	return out
}

func selectInTree(s *schema.Schema, tree *RootedTree, joins []queryJoin) []*View {
	// Mark edges whose (PK, FK) join appears in the query, plus their
	// endpoints. A tree has one edge into each relation, so the child names
	// the edge.
	markedEdge := map[string]bool{}
	markedNode := map[string]bool{}
	for _, e := range tree.Edges() {
		for _, j := range joins {
			if j.matchesEdge(e) {
				markedEdge[e.Child] = true
				markedNode[e.Parent] = true
				markedNode[e.Child] = true
				break
			}
		}
	}
	if len(markedEdge) == 0 {
		return nil
	}

	var views []*View
	for {
		path, ok := chooseMarkedPath(tree, markedNode, markedEdge)
		if !ok {
			break
		}
		views = append(views, buildView(s, tree.Root, path))
		// Un-mark participating relations and their outgoing edges.
		inPath := map[string]bool{}
		for _, r := range path.Relations {
			inPath[r] = true
			delete(markedNode, r)
		}
		for _, e := range tree.Edges() {
			if inPath[e.Parent] {
				delete(markedEdge, e.Child)
			}
		}
	}
	return views
}

// chooseMarkedPath finds the next path per the two §VI-A rules. Among
// candidates it prefers the longest (most joins materialized), breaking ties
// lexicographically — which reproduces the paper's Figure 6 choice of
// R2-R3-R4 before R5-R6.
func chooseMarkedPath(tree *RootedTree, markedNode map[string]bool, markedEdge map[string]bool) (schema.Path, bool) {
	// Start nodes: marked, with no incoming marked edge.
	var starts []string
	for n := range markedNode {
		if markedEdge[n] {
			continue
		}
		starts = append(starts, n)
	}
	sort.Strings(starts)

	var best schema.Path
	found := false
	var walk func(cur string, rels []string, edges []schema.Edge)
	walk = func(cur string, rels []string, edges []schema.Edge) {
		// Does the path end here? Leaf or no outgoing marked edge.
		extended := false
		for _, child := range tree.Children(cur) {
			if !markedEdge[child] || !markedNode[child] {
				continue
			}
			extended = true
			e, _ := tree.ParentEdge(child)
			walk(child, append(rels, child), append(edges, e))
		}
		if !extended && len(edges) > 0 {
			p := schema.Path{
				Relations: append([]string(nil), rels...),
				Edges:     append([]schema.Edge(nil), edges...),
			}
			if !found || len(p.Edges) > len(best.Edges) ||
				(len(p.Edges) == len(best.Edges) && p.String() < best.String()) {
				best = p
				found = true
			}
		}
	}
	for _, s := range starts {
		walk(s, []string{s}, nil)
	}
	return best, found
}

// SelectViews runs views selection over the whole workload (§VI-A "Final
// View Set"): per-query selections accumulate, de-duplicated by path.
// The per-query selections are also returned so queries can be rewritten
// with exactly the views chosen for them.
func SelectViews(s *schema.Schema, trees []*RootedTree, w *Workload) (final []*View, perQuery map[*sqlparser.SelectStmt][]*View) {
	perQuery = map[*sqlparser.SelectStmt][]*View{}
	seen := map[string]*View{}
	for _, sel := range w.Selects() {
		views := SelectViewsForQuery(s, trees, sel)
		var canonical []*View
		for _, v := range views {
			if existing, dup := seen[v.Name()]; dup {
				canonical = append(canonical, existing)
				continue
			}
			seen[v.Name()] = v
			final = append(final, v)
			canonical = append(canonical, v)
		}
		if len(canonical) > 0 {
			perQuery[sel] = canonical
		}
	}
	sort.Slice(final, func(i, j int) bool { return final[i].Name() < final[j].Name() })
	return final, perQuery
}
