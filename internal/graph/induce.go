package graph

import (
	"fmt"
)

// Inducer builds the induced subgraphs of the parts of one split of a
// graph's vertices, on flat indexes it keeps between calls. Split sets
// them over the parts: part[v] is the part of parent vertex v, local[v]
// its position in that part and sub[e] the rank of parent edge e among
// the edges its part induces, all -1 outside the parts. The parts are
// disjoint, so one index serves every part at once. Split buckets every
// part's edges by a counting pass over the parent edge ids, so each
// part's list ascends without a sort, and Induce builds one part's
// subgraph from its list into storage the Inducer reuses. After the O(n + m) set-up a split
// costs O(n + m) and a part its own size (the per-component reset of
// DESIGN.md §17). The graph must not gain edges after NewInducer. An
// Inducer is not safe for concurrent use; the graph it reads may be
// shared.
type Inducer struct {
	g     *Graph
	part  []int32
	local []int32
	sub   []int32
	// parts is the split, held until the next Split; edges[off[i]:
	// off[i+1]] are the ascending parent ids of the edges part i induces.
	parts [][]int
	off   []int32
	edges []int32
	// out is the subgraph Induce builds, rebuilt in place by every call.
	out Graph
}

// NewInducer returns an Inducer over g with an empty index.
func NewInducer(g *Graph) *Inducer {
	g.ensure()
	x := &Inducer{
		g:     g,
		part:  make([]int32, g.n),
		local: make([]int32, g.n),
		sub:   make([]int32, len(g.endU)),
	}
	for v := range x.local {
		x.part[v] = -1
		x.local[v] = -1
	}
	for e := range x.sub {
		x.sub[e] = -1
	}
	return x
}

// Split sets the index over parts, which must be disjoint sets of
// vertices, and buckets every parent edge whose endpoints share a part
// into that part's list. An out-of-range or repeated vertex is an error,
// and the index is left clear. Otherwise it stays set over every part,
// for Induce, Part, PartOf, Local and SubEdge, until the next Split;
// parts must not change before then.
func (x *Inducer) Split(parts [][]int) error {
	x.release()
	g := x.g
	for i, vs := range parts {
		for j, v := range vs {
			err := g.CheckVertex(v)
			if err == nil && x.part[v] >= 0 {
				err = fmt.Errorf("graph: duplicate vertex %d", v)
			}
			if err != nil {
				x.parts = parts[:i]
				x.release()
				for _, w := range vs[:j] {
					x.part[w], x.local[w] = -1, -1
				}
				return err
			}
			//planarvet:narrowok i < len(parts) and j < len(vs) count distinct vertices < n, and New bounds n to MaxInt32
			x.part[v], x.local[v] = int32(i), int32(j)
		}
	}
	x.parts = parts
	// Count each part's edges, then fill the buckets in one more scan in
	// ascending parent id, advancing off[p] as part p's cursor; the
	// cursors end at the next part's start, so one shift restores off.
	k := len(parts)
	x.off = Resize(x.off, k+1)
	clear(x.off)
	for e, u := range g.endU {
		if p := x.part[u]; p >= 0 && p == x.part[g.endV[e]] {
			x.off[p+1]++
		}
	}
	for p := 0; p < k; p++ {
		x.off[p+1] += x.off[p]
	}
	x.edges = Resize(x.edges, int(x.off[k]))
	for e, u := range g.endU {
		if p := x.part[u]; p >= 0 && p == x.part[g.endV[e]] {
			//planarvet:narrowok e < m, and AddEdge bounds m to MaxInt32/2
			x.edges[x.off[p]] = int32(e)
			x.off[p]++
		}
	}
	copy(x.off[1:], x.off[:k])
	x.off[0] = 0
	for p := 0; p < k; p++ {
		for r, e := range x.edges[x.off[p]:x.off[p+1]] {
			//planarvet:narrowok r ranks a part's edges, < m, and AddEdge bounds m to MaxInt32/2
			x.sub[e] = int32(r)
		}
	}
	return nil
}

// Induce returns the subgraph induced by part i of the last Split: its
// vertices numbered 0..len(part)-1 in the part's order, its edges in
// ascending parent edge id. It is built, CSR included, in storage the
// Inducer reuses, so it is valid until the next Induce or Split and must
// not be modified.
func (x *Inducer) Induce(i int) *Graph {
	g, s := x.g, &x.out
	s.reset(len(x.parts[i]))
	for _, id := range x.edges[x.off[i]:x.off[i+1]] {
		u, v := x.local[g.endU[id]], x.local[g.endV[id]]
		s.link(min(u, v), max(u, v))
	}
	s.ensure()
	return s
}

// Part returns the vertices of part i of the last Split.
func (x *Inducer) Part(i int) []int { return x.parts[i] }

// PartOf returns the part of parent vertex v in the last Split, or -1.
func (x *Inducer) PartOf(v int) int { return int(x.part[v]) }

// Local returns the position of parent vertex v in its part, or -1.
func (x *Inducer) Local(v int) int { return int(x.local[v]) }

// SubEdge returns the id of parent edge e in the subgraph of its part,
// or -1 when its endpoints are not in one part.
func (x *Inducer) SubEdge(e int) int { return int(x.sub[e]) }

// release clears the index over the last split. It is a no-op when
// nothing is set.
func (x *Inducer) release() {
	for _, vs := range x.parts {
		for _, v := range vs {
			x.part[v], x.local[v] = -1, -1
		}
	}
	for _, e := range x.edges {
		x.sub[e] = -1
	}
	x.parts, x.edges = nil, x.edges[:0]
}
