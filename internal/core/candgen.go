package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"synergy/internal/schema"
)

// RootedTree is the output of the candidate views generation mechanism
// (Definition 4): a directed tree rooted at a root relation with a unique
// path from the root to each non-root relation. Every path in a rooted tree
// is a candidate view.
type RootedTree struct {
	Root  string
	nodes map[string]bool
	// parentEdge[child] is the single tree edge entering child.
	parentEdge map[string]schema.Edge

	// What statements ask of the tree, derived from parentEdge whenever a
	// path is grafted (index) — a tree is finished before it serves any — so
	// a lookup builds nothing. Callers share these and must not modify them.
	edges    []schema.Edge          // sorted by child
	children map[string][]string    // relation -> its children, sorted
	paths    map[string]schema.Path // relation -> the path from the root to it
}

func newRootedTree(root string) *RootedTree {
	t := &RootedTree{Root: root, nodes: map[string]bool{root: true}, parentEdge: map[string]schema.Edge{}}
	t.index()
	return t
}

// addPath grafts a root-to-relation path onto the tree.
func (t *RootedTree) addPath(p schema.Path) {
	for i, e := range p.Edges {
		child := p.Relations[i+1]
		if existing, ok := t.parentEdge[child]; ok && existing.ID() != e.ID() {
			panic(fmt.Sprintf("core: tree %s would give %s two parents", t.Root, child))
		}
		t.parentEdge[child] = e
		t.nodes[child] = true
	}
	t.index()
}

// index rebuilds edges, children and paths from parentEdge.
func (t *RootedTree) index() {
	t.edges = make([]schema.Edge, 0, len(t.parentEdge))
	for _, e := range t.parentEdge {
		t.edges = append(t.edges, e)
	}
	sort.Slice(t.edges, func(i, j int) bool { return t.edges[i].Child < t.edges[j].Child })
	t.children = map[string][]string{}
	for _, e := range t.edges {
		t.children[e.Parent] = append(t.children[e.Parent], e.Child)
	}
	t.paths = map[string]schema.Path{t.Root: {Relations: []string{t.Root}}}
	for rel := range t.parentEdge {
		var p schema.Path
		for cur := rel; cur != t.Root; {
			e, ok := t.parentEdge[cur]
			if !ok {
				break // not connected to the root yet: no path
			}
			p.Relations, p.Edges = append(p.Relations, cur), append(p.Edges, e)
			cur = e.Parent
		}
		if len(p.Edges) > 0 && p.Edges[len(p.Edges)-1].Parent == t.Root {
			p.Relations = append(p.Relations, t.Root)
			slices.Reverse(p.Relations)
			slices.Reverse(p.Edges)
			t.paths[rel] = p
		}
	}
}

// consistent reports whether grafting the path would keep every relation at
// a single parent.
func (t *RootedTree) consistent(p schema.Path) bool {
	for i, e := range p.Edges {
		child := p.Relations[i+1]
		if existing, ok := t.parentEdge[child]; ok && existing.ID() != e.ID() {
			return false
		}
	}
	return true
}

// Nodes lists the tree's relations, sorted.
func (t *RootedTree) Nodes() []string {
	out := make([]string, 0, len(t.nodes))
	for n := range t.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Edges lists the tree's edges, sorted by child name.
func (t *RootedTree) Edges() []schema.Edge { return t.edges }

// Children lists the relations whose tree parent is rel, sorted.
func (t *RootedTree) Children(rel string) []string { return t.children[rel] }

// ParentEdge returns the edge entering child, with ok=false for the root or
// unknown relations.
func (t *RootedTree) ParentEdge(child string) (schema.Edge, bool) {
	e, ok := t.parentEdge[child]
	return e, ok
}

// PathFromRoot returns the unique root→rel path (Definition 4).
func (t *RootedTree) PathFromRoot(rel string) (schema.Path, bool) {
	p, ok := t.paths[rel]
	return p, ok
}

// DownwardPaths enumerates every path of length >= 1 edge in the tree (each
// is a candidate view per Definition 5), sorted by display name.
func (t *RootedTree) DownwardPaths() []schema.Path {
	var out []schema.Path
	var walk func(start string, rels []string, edges []schema.Edge)
	walk = func(cur string, rels []string, edges []schema.Edge) {
		if len(edges) > 0 {
			out = append(out, schema.Path{
				Relations: append([]string(nil), rels...),
				Edges:     append([]schema.Edge(nil), edges...),
			})
		}
		for _, child := range t.Children(cur) {
			e := t.parentEdge[child]
			walk(child, append(rels, child), append(edges, e))
		}
	}
	for _, start := range t.Nodes() {
		walk(start, []string{start}, nil)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func (t *RootedTree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tree(%s):", t.Root)
	for _, e := range t.Edges() {
		fmt.Fprintf(&b, " %s->%s", e.Parent, e.Child)
	}
	return b.String()
}

// CandidateResult carries the mechanism's outputs, including intermediates
// that the paper illustrates in Figure 5 (tests mirror them).
type CandidateResult struct {
	DAG        *schema.Graph
	TopoOrder  []string
	Trees      []*RootedTree     // one per root, in roots order
	RootOf     map[string]string // relation -> assigned root ("" if unassigned)
	Unassigned []string          // relations not reachable from any root
}

// Tree returns the rooted tree of a root.
func (r *CandidateResult) Tree(root string) *RootedTree {
	for _, t := range r.Trees {
		if t.Root == root {
			return t
		}
	}
	return nil
}

// GenerateCandidates runs the candidate views generation mechanism of §V-B:
//
//  1. transform the schema graph into a DAG by keeping at most one edge per
//     relation pair (maximum heuristic weight);
//  2. topologically order the DAG;
//  3. assign each non-root relation to at most one root by selecting a path
//     (forward topological order, heuristic-weighted paths);
//  4. transform each rooted graph into a rooted tree (reverse topological
//     order, keeping maximum-weight paths).
func GenerateCandidates(s *schema.Schema, roots []string, w *Workload) (*CandidateResult, error) {
	g := schema.BuildGraph(s)
	for _, r := range roots {
		if !g.HasNode(r) {
			return nil, fmt.Errorf("core: root %q is not a relation", r)
		}
	}
	h := newWeigher(w)

	// Step 1: multigraph -> DAG. For each (parent, child) pair keep the
	// edge with the maximum weight; ties break on FK column order so the
	// choice is deterministic (the paper's example drops the
	// (AID, EOffice_AID) edge in favor of the home-address edge).
	type pair struct{ p, c string }
	best := map[pair]schema.Edge{}
	bestW := map[pair]int{}
	for _, e := range g.Edges() {
		k := pair{e.Parent, e.Child}
		w := h.edgeWeight(e)
		cur, ok := best[k]
		if !ok || w > bestW[k] || (w == bestW[k] && e.ID() < cur.ID()) {
			best[k] = e
			bestW[k] = w
		}
	}
	var dagEdges []schema.Edge
	for _, e := range g.Edges() { // preserve insertion order for determinism
		k := pair{e.Parent, e.Child}
		if best[k].ID() == e.ID() {
			dagEdges = append(dagEdges, e)
		}
	}
	dag := schema.NewGraph(g.Nodes(), dagEdges)

	// Step 2: topological order.
	topo, err := dag.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("core: schema graph is cyclic: %w", err)
	}

	isRoot := map[string]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}

	// Step 3: assign non-root relations to roots.
	rootOf := map[string]string{}
	rootedGraphEdges := map[string][]schema.Edge{} // root -> edges
	edgeSeen := map[string]map[string]bool{}
	addEdge := func(root string, e schema.Edge) {
		if edgeSeen[root] == nil {
			edgeSeen[root] = map[string]bool{}
		}
		if !edgeSeen[root][e.ID()] {
			edgeSeen[root][e.ID()] = true
			rootedGraphEdges[root] = append(rootedGraphEdges[root], e)
		}
	}

	var unassigned []string
	for _, rel := range topo {
		if isRoot[rel] {
			continue
		}
		// 3a: identify paths from each root.
		type scored struct {
			root string
			p    schema.Path
			w    int
		}
		var cands []scored
		for _, root := range roots {
			for _, p := range dag.Paths(root, rel) {
				cands = append(cands, scored{root: root, p: p, w: h.pathWeight(p)})
			}
		}
		if len(cands) == 0 {
			if _, ok := rootOf[rel]; !ok {
				unassigned = append(unassigned, rel)
			}
			continue
		}
		// 3b: sort by weight (desc); ties prefer longer paths (more
		// joins materializable), then the path rendering for
		// determinism.
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].w != cands[j].w {
				return cands[i].w > cands[j].w
			}
			if len(cands[i].p.Edges) != len(cands[j].p.Edges) {
				return len(cands[i].p.Edges) > len(cands[j].p.Edges)
			}
			return cands[i].p.String() < cands[j].p.String()
		})
		for _, c := range cands {
			// The path must include a single root relation and no
			// relation assigned to a different root.
			ok := true
			rootCount := 0
			for _, pr := range c.p.Relations {
				if isRoot[pr] {
					rootCount++
					continue
				}
				if assigned, has := rootOf[pr]; has && assigned != c.root {
					ok = false
					break
				}
			}
			if rootCount != 1 || !ok {
				continue
			}
			// 3c: add the path to the root's rooted graph.
			for _, pr := range c.p.Relations {
				if !isRoot[pr] {
					rootOf[pr] = c.root
				}
			}
			for _, e := range c.p.Edges {
				addEdge(c.root, e)
			}
			break
		}
		if _, ok := rootOf[rel]; !ok {
			unassigned = append(unassigned, rel)
		}
	}

	// Step 4: rooted graphs -> rooted trees, examining non-root relations
	// in reverse topological order and keeping maximum-weight paths.
	var trees []*RootedTree
	for _, root := range roots {
		tree := newRootedTree(root)
		nodes := []string{root}
		for rel, r := range rootOf {
			if r == root {
				nodes = append(nodes, rel)
			}
		}
		rg := schema.NewGraph(nodes, rootedGraphEdges[root])
		// Reverse topological order of the non-root relations.
		var pending []string
		for _, rel := range topo {
			if rel != root && rootOf[rel] == root {
				pending = append(pending, rel)
			}
		}
		for len(pending) > 0 {
			last := pending[len(pending)-1]
			paths := rg.Paths(root, last)
			if len(paths) == 0 {
				// Already covered by a previously selected path.
				pending = pending[:len(pending)-1]
				continue
			}
			sort.SliceStable(paths, func(i, j int) bool {
				wi, wj := h.pathWeight(paths[i]), h.pathWeight(paths[j])
				if wi != wj {
					return wi > wj
				}
				if len(paths[i].Edges) != len(paths[j].Edges) {
					return len(paths[i].Edges) > len(paths[j].Edges)
				}
				return paths[i].String() < paths[j].String()
			})
			// A relation already grafted by a deeper path has its
			// parent fixed; candidate paths must agree with the
			// partial tree so every relation keeps a single parent.
			chosen := paths[0]
			for _, p := range paths {
				if tree.consistent(p) {
					chosen = p
					break
				}
			}
			tree.addPath(chosen)
			// Remove the path's non-root relations from the ordering.
			inPath := map[string]bool{}
			for _, pr := range chosen.Relations {
				inPath[pr] = true
			}
			kept := pending[:0]
			for _, rel := range pending {
				if !inPath[rel] {
					kept = append(kept, rel)
				}
			}
			pending = kept
		}
		trees = append(trees, tree)
	}

	sort.Strings(unassigned)
	return &CandidateResult{
		DAG:        dag,
		TopoOrder:  topo,
		Trees:      trees,
		RootOf:     rootOf,
		Unassigned: unassigned,
	}, nil
}
