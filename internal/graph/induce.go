package graph

import (
	"fmt"
	"slices"
)

// Inducer builds induced subgraphs of one graph on a flat index it keeps
// between calls: local[v] is the id of parent vertex v in the current
// subset and sub[e] the id of parent edge e in the current induced
// subgraph, both -1 outside it. Induce sets them over the subset and
// Release clears them over the same subset, so after the O(n + m) set-up
// each subgraph costs its own size (the per-component reset of DESIGN.md
// §17). The graph must not gain edges after NewInducer. An Inducer is not
// safe for concurrent use; the graph it reads may be shared.
type Inducer struct {
	g     *Graph
	local []int32
	sub   []int32
	// vs and kept are the subset and the ascending parent ids of its
	// edges, held from Induce until Release.
	vs   []int
	kept []int32
}

// NewInducer returns an Inducer over g with an empty index.
func NewInducer(g *Graph) *Inducer {
	g.ensure()
	x := &Inducer{g: g, local: make([]int32, g.n), sub: make([]int32, len(g.endU))}
	for v := range x.local {
		x.local[v] = -1
	}
	for e := range x.sub {
		x.sub[e] = -1
	}
	return x
}

// Induce returns the subgraph induced by vs. Vertices are numbered
// 0..len(vs)-1 in the order given and edges keep their relative parent
// order (ascending parent edge id). An out-of-range or duplicate vertex
// is an error, and the index is left clear. Otherwise the index stays set
// over vs, for Local and SubEdge, until Release or the next Induce; vs
// must not change before then.
func (x *Inducer) Induce(vs []int) (*Graph, error) {
	x.Release()
	g := x.g
	for i, v := range vs {
		err := g.CheckVertex(v)
		if err == nil && x.local[v] >= 0 {
			err = fmt.Errorf("graph: duplicate vertex %d", v)
		}
		if err != nil {
			x.vs = vs[:i]
			x.Release()
			return nil, err
		}
		//planarvet:narrowok i < len(vs), and vs holds distinct vertices < n, so i < n ≤ MaxInt32
		x.local[v] = int32(i)
	}
	x.vs = vs
	// Kept edges, counted once from the larger endpoint and sorted to
	// reproduce the parent edge-id order exactly.
	x.kept = x.kept[:0]
	for _, v := range vs {
		//planarvet:narrowok v passed CheckVertex above, so v < n and New bounds n to MaxInt32
		v32 := int32(v)
		for _, id := range g.inc[g.off[v]:g.off[v+1]] {
			if w := g.endU[id] + g.endV[id] - v32; w < v32 && x.local[w] >= 0 {
				x.kept = append(x.kept, id)
			}
		}
	}
	slices.Sort(x.kept)
	sub := NewWithCapacity(len(vs), len(x.kept))
	for i, id := range x.kept {
		//planarvet:narrowok i < len(kept) ≤ m, and AddEdge bounds m to MaxInt32/2
		x.sub[id] = int32(i)
		sub.MustAddEdge(int(x.local[g.endU[id]]), int(x.local[g.endV[id]]))
	}
	return sub, nil
}

// Local returns the id of parent vertex v in the induced subset, or -1.
func (x *Inducer) Local(v int) int { return int(x.local[v]) }

// SubEdge returns the id of parent edge e in the induced subgraph, or -1.
func (x *Inducer) SubEdge(e int) int { return int(x.sub[e]) }

// Release clears the index over the last induced subset. It is a no-op
// when nothing is set.
func (x *Inducer) Release() {
	for _, v := range x.vs {
		x.local[v] = -1
	}
	for _, id := range x.kept {
		x.sub[id] = -1
	}
	x.vs, x.kept = nil, x.kept[:0]
}
