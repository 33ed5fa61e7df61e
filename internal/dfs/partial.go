// Package dfs implements the paper's second contribution (Theorem 2):
// construction of a DFS tree of a planar graph by repeatedly computing
// cycle separators of the remaining components (Theorem 1) and joining them
// to a partial DFS tree with the DFS-RULE (Section 3.2, Lemma 2). The
// package also provides the DFS-tree validity checker (the
// ancestor/descendant property of every graph edge) used throughout the
// test suite and experiments.
package dfs

import (
	"fmt"

	"planardfs/internal/graph"
)

// notAdded marks vertices not yet in the partial tree.
const notAdded = -2

// PartialTree is a partial DFS tree T_d: a subgraph of G grown only by the
// DFS-RULE. Parent and Depth are fixed once a vertex joins and never change
// afterwards.
type PartialTree struct {
	Root   int
	Parent []int // parent in T_d; -1 for the root, notAdded if absent
	Depth  []int
	added  int
}

// NewPartialTree returns the initial partial tree holding only the root.
func NewPartialTree(n, root int) *PartialTree {
	pt := &PartialTree{
		Root:   root,
		Parent: make([]int, n),
		Depth:  make([]int, n),
	}
	for i := range pt.Parent {
		pt.Parent[i] = notAdded
		pt.Depth[i] = -1
	}
	pt.Parent[root] = -1
	pt.Depth[root] = 0
	pt.added = 1
	return pt
}

// Has reports whether v has been added.
func (pt *PartialTree) Has(v int) bool { return pt.Parent[v] != notAdded }

// Complete reports whether every vertex has been added.
func (pt *PartialTree) Complete() bool { return pt.added == len(pt.Parent) }

// AttachPath applies the DFS-RULE: it appends the path vertices (none of
// which may be in T_d yet) below the anchor vertex, which must be in T_d
// and adjacent in G to the first path vertex; consecutive path vertices
// must be adjacent in G.
func (pt *PartialTree) AttachPath(g *graph.Graph, anchor int, path []int) error {
	if !pt.Has(anchor) {
		return fmt.Errorf("dfs: anchor %d not in partial tree", anchor)
	}
	prev := anchor
	for _, v := range path {
		if pt.Has(v) {
			return fmt.Errorf("dfs: vertex %d already in partial tree", v)
		}
		if !g.HasEdge(prev, v) {
			return fmt.Errorf("dfs: path step {%d,%d} is not an edge", prev, v)
		}
		pt.Parent[v] = prev
		pt.Depth[v] = pt.Depth[prev] + 1
		pt.added++
		prev = v
	}
	return nil
}

// DeepestNeighborIn returns the deepest T_d-neighbour of the candidate
// set, the DFS-RULE anchor, or -1 if no candidate has a neighbour in T_d.
// When the candidates are a component of G − T_d, the DFS-RULE keeps
// their T_d-neighbours on one root path of T_d, so the deepest one is
// unique.
func (pt *PartialTree) DeepestNeighborIn(g *graph.Graph, cands []int) int {
	anchor := -1
	for _, v := range cands {
		for _, id := range g.IncidentEdges(v) {
			w := g.Other(int(id), v)
			if pt.Has(w) && (anchor < 0 || pt.Depth[w] > pt.Depth[anchor]) {
				anchor = w
			}
		}
	}
	return anchor
}

// IsDFSTree checks that parent (with parent[root] == -1) describes a
// spanning tree of g rooted at root satisfying the DFS property: every edge
// of g connects an ancestor-descendant pair.
func IsDFSTree(g *graph.Graph, root int, parent []int) error {
	n := g.N()
	if len(parent) != n {
		return fmt.Errorf("dfs: parent array of length %d for %d vertices", len(parent), n)
	}
	// Validate tree shape and compute preorder intervals.
	children := make([][]int, n)
	for v := 0; v < n; v++ {
		p := parent[v]
		if v == root {
			if p != -1 {
				return fmt.Errorf("dfs: root %d has parent %d", root, p)
			}
			continue
		}
		if p < 0 || p >= n {
			return fmt.Errorf("dfs: vertex %d has invalid parent %d", v, p)
		}
		if !g.HasEdge(v, p) {
			return fmt.Errorf("dfs: tree edge {%d,%d} is not a graph edge", v, p)
		}
		children[p] = append(children[p], v)
	}
	tin := make([]int, n)
	tout := make([]int, n)
	for i := range tin {
		tin[i] = -1
	}
	timer := 0
	type frame struct{ v, ci int }
	stack := []frame{{root, 0}}
	tin[root] = timer
	timer++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.ci < len(children[f.v]) {
			c := children[f.v][f.ci]
			f.ci++
			if tin[c] != -1 {
				return fmt.Errorf("dfs: vertex %d reached twice (cycle)", c)
			}
			tin[c] = timer
			timer++
			stack = append(stack, frame{c, 0})
			continue
		}
		tout[f.v] = timer
		stack = stack[:len(stack)-1]
	}
	for v := 0; v < n; v++ {
		if tin[v] == -1 {
			return fmt.Errorf("dfs: vertex %d unreachable from root", v)
		}
	}
	anc := func(a, b int) bool { return tin[a] <= tin[b] && tin[b] < tout[a] }
	for _, e := range g.Edges() {
		if !anc(e.U, e.V) && !anc(e.V, e.U) {
			return fmt.Errorf("dfs: edge %v is a cross edge", e)
		}
	}
	return nil
}
