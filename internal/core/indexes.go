package core

import (
	"sort"

	"synergy/internal/schema"
	"synergy/internal/sqlparser"
)

// DeriveViewIndexes implements §VI-C: for each view, each conjunctive query
// that uses it gets a view-index when the query only filters on view
// attributes that neither the view key nor an existing view-index is indexed
// upon.
func DeriveViewIndexes(rewritten []*Rewritten) []*ViewIndex {
	var out []*ViewIndex
	indexedOn := map[string]map[string]bool{} // view name -> leading attrs
	leading := func(v *View) map[string]bool {
		m := indexedOn[v.Name()]
		if m == nil {
			m = map[string]bool{v.Key[0]: true}
			indexedOn[v.Name()] = m
		}
		return m
	}
	for _, rw := range rewritten {
		for _, u := range rw.Usages {
			filters := filterColumnsOn(rw.Stmt, u.Alias)
			if len(filters) == 0 {
				continue
			}
			lead := leading(u.View)
			covered := false
			for _, f := range filters {
				if lead[f] {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
			col := filters[0]
			ix := newViewIndex(u.View, []string{col}, false)
			out = append(out, ix)
			lead[col] = true
		}
	}
	return out
}

// filterColumnsOn lists the columns of non-join equality/range filters bound
// to a binding, sorted.
func filterColumnsOn(sel *sqlparser.SelectStmt, bindingName string) []string {
	seen := map[string]bool{}
	for _, p := range sel.Where {
		if p.IsJoin() {
			continue
		}
		if c, ok := p.Left.(sqlparser.ColumnRef); ok && c.Table == bindingName {
			seen[c.Column] = true
		}
		if c, ok := p.Right.(sqlparser.ColumnRef); ok && c.Table == bindingName {
			seen[c.Column] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// DeriveMaintenanceIndexes implements §VII-C: an update to a relation that
// is in a view but is not the view's last relation must locate the affected
// view rows; without an index on that relation's key within the view, the
// whole view would be scanned. For every workload UPDATE on such a relation,
// a maintenance index on the relation's key is added (unless an equivalent
// index already exists).
func DeriveMaintenanceIndexes(s *schema.Schema, views []*View, w *Workload, existing []*ViewIndex) []*ViewIndex {
	have := map[string]map[string]bool{} // view -> leading attr
	note := func(v *View, col string) {
		if have[v.Name()] == nil {
			have[v.Name()] = map[string]bool{}
		}
		have[v.Name()][col] = true
	}
	for _, ix := range existing {
		note(ix.View, ix.On[0])
	}
	for _, v := range views {
		note(v, v.Key[0])
	}

	var out []*ViewIndex
	for _, stmt := range w.Writes() {
		up, ok := stmt.(*sqlparser.UpdateStmt)
		if !ok {
			continue
		}
		rel := s.Relation(up.Table)
		if rel == nil {
			continue
		}
		for _, v := range views {
			if !v.Contains(up.Table) || v.Last() == up.Table {
				continue
			}
			if have[v.Name()] != nil && have[v.Name()][rel.PK[0]] {
				continue
			}
			ix := newViewIndex(v, append([]string(nil), rel.PK...), true)
			out = append(out, ix)
			note(v, rel.PK[0])
		}
	}
	return out
}
