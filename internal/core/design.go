package core

import (
	"fmt"
	"sort"
	"strings"

	"synergy/internal/schema"
	"synergy/internal/sqlparser"
)

// Design is the complete output of the Synergy mechanisms for one schema and
// workload (Figure 3): the rooted trees, the selected views, the rewritten
// workload and the supplementary indexes. The synergy package materializes a
// Design against the store.
type Design struct {
	Schema     *schema.Schema
	Roots      []string
	Workload   *Workload
	Candidates *CandidateResult

	// Views is the final selected view set (§VI-A).
	Views []*View
	// PerQuery maps each workload SELECT to the views selected for it.
	PerQuery map[*sqlparser.SelectStmt][]*View
	// Rewritten maps each workload SELECT to its view-based rewrite
	// (identity when no views apply).
	Rewritten map[*sqlparser.SelectStmt]*Rewritten
	// ViewIndexes lists query-driven (§VI-C) and maintenance (§VII-C)
	// view indexes.
	ViewIndexes []*ViewIndex
}

// BuildDesign runs the full pipeline of Figure 3: candidate views
// generation, views selection, query re-writing and view-index addition.
func BuildDesign(s *schema.Schema, roots []string, w *Workload) (*Design, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cand, err := GenerateCandidates(s, roots, w)
	if err != nil {
		return nil, err
	}
	views, perQuery := SelectViews(s, cand.Trees, w)

	rewritten := map[*sqlparser.SelectStmt]*Rewritten{}
	var rwList []*Rewritten
	for _, sel := range w.Selects() {
		rw := RewriteQuery(sel, perQuery[sel])
		rw.ExpandStar(s)
		rewritten[sel] = rw
		rwList = append(rwList, rw)
	}

	ixs := DeriveViewIndexes(rwList)
	ixs = append(ixs, DeriveMaintenanceIndexes(s, views, w, ixs)...)

	return &Design{
		Schema:      s,
		Roots:       append([]string(nil), roots...),
		Workload:    w,
		Candidates:  cand,
		Views:       views,
		PerQuery:    perQuery,
		Rewritten:   rewritten,
		ViewIndexes: ixs,
	}, nil
}

// ViewByName returns a selected view, or nil.
func (d *Design) ViewByName(name string) *View {
	for _, v := range d.Views {
		if v.Name() == name {
			return v
		}
	}
	return nil
}

// ViewsOnRelation lists selected views whose path contains the relation.
func (d *Design) ViewsOnRelation(rel string) []*View {
	var out []*View
	for _, v := range d.Views {
		if v.Contains(rel) {
			out = append(out, v)
		}
	}
	return out
}

// IndexesOnView lists the view-indexes of a view.
func (d *Design) IndexesOnView(v *View) []*ViewIndex {
	var out []*ViewIndex
	for _, ix := range d.ViewIndexes {
		if ix.View == v || ix.View.Name() == v.Name() {
			out = append(out, ix)
		}
	}
	return out
}

// RootOf returns the root relation guarding rel, with ok=false for
// relations outside every rooted tree (their writes need no hierarchical
// lock: single-row atomicity suffices since no view contains them).
func (d *Design) RootOf(rel string) (string, bool) {
	for _, r := range d.Roots {
		if r == rel {
			return r, true
		}
	}
	root, ok := d.Candidates.RootOf[rel]
	return root, ok
}

// LockChain returns the tree edges from the root down to rel; reversing the
// walk (child FK -> parent PK reads) resolves the root-relation row key a
// write on rel must lock (§VIII-A).
func (d *Design) LockChain(rel string) ([]schema.Edge, bool) {
	root, ok := d.RootOf(rel)
	if !ok {
		return nil, false
	}
	if root == rel {
		return nil, true
	}
	tree := d.Candidates.Tree(root)
	if tree == nil {
		return nil, false
	}
	p, ok := tree.PathFromRoot(rel)
	if !ok {
		return nil, false
	}
	return p.Edges, true
}

// Summary renders a human-readable report of the design, used by examples
// and the benchmark harness.
func (d *Design) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Roots: %s\n", strings.Join(d.Roots, ", "))
	fmt.Fprintf(&b, "Rooted trees:\n")
	for _, t := range d.Candidates.Trees {
		fmt.Fprintf(&b, "  %s\n", t)
	}
	if len(d.Candidates.Unassigned) > 0 {
		fmt.Fprintf(&b, "Unassigned relations: %s\n", strings.Join(d.Candidates.Unassigned, ", "))
	}
	fmt.Fprintf(&b, "Selected views (%d):\n", len(d.Views))
	for _, v := range d.Views {
		fmt.Fprintf(&b, "  %-40s key=(%s) root=%s\n", v.DisplayName(), strings.Join(v.Key, ","), v.Root)
	}
	var q, m int
	for _, ix := range d.ViewIndexes {
		if ix.Maintenance {
			m++
		} else {
			q++
		}
	}
	fmt.Fprintf(&b, "View indexes: %d query-driven, %d maintenance\n", q, m)
	names := make([]string, 0, len(d.ViewIndexes))
	for _, ix := range d.ViewIndexes {
		kind := "query"
		if ix.Maintenance {
			kind = "maint"
		}
		names = append(names, fmt.Sprintf("  %-50s on=(%s) [%s]", ix.Name(), strings.Join(ix.On, ","), kind))
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintln(&b, n)
	}
	return b.String()
}
