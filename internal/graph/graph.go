// Package graph provides the basic undirected-graph substrate used by the
// rest of the repository: adjacency storage, edge identities, traversal,
// connectivity and diameter computation, and a union–find structure.
//
// Vertices are integers 0..N-1. Edges carry stable integer identifiers so
// that embeddings (package planar) can refer to half-edges ("darts") as
// 2*edgeID and 2*edgeID+1.
//
// # Flat layout
//
// The graph is stored as flat int32 structure-of-arrays (see DESIGN.md §13):
// edge endpoints live in two parallel arrays, the mutable incidence
// structure is an intrusive linked list over darts (O(1) append, no
// per-vertex allocations), and iteration runs over a CSR index — contiguous
// per-vertex slices of edge identifiers in insertion order — that is built
// lazily after the last mutation. No maps are involved anywhere: edge
// identity queries scan the incidence list of the lower-degree endpoint,
// which is O(min degree) and cache-resident for the bounded-degree planar
// instances this repository works with.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V int
}

// Normalize returns the edge with endpoints in ascending order.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e different from x.
// It panics (with a "graph:"-prefixed message) if x is not an endpoint of e;
// this holds for edges obtained from the CSR view exactly as for literals.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", x, e))
}

// Graph is a simple undirected graph with stable edge identifiers, stored as
// flat int32 structure-of-arrays. The zero value is an empty graph with no
// vertices; use New.
//
// Concurrency: a Graph is safe for concurrent reads once construction is
// finished (every generator returns graphs with the CSR index already
// built). Mutating concurrently with reads, or reading while the first
// post-mutation query rebuilds the index, is not safe.
type Graph struct {
	n int
	// endU/endV are the normalized endpoints of edge e (endU[e] < endV[e]).
	endU, endV []int32
	// deg[v] is the degree of v.
	deg []int32
	// Mutable incidence: darts of edge e are 2e (at endU) and 2e+1 (at
	// endV). firstD/lastD head and tail v's dart list (-1 when empty),
	// nextD links darts in insertion order.
	firstD, lastD []int32
	nextD         []int32
	// CSR iteration cache: inc[off[v]:off[v+1]] lists the incident edge IDs
	// of v in insertion order. Valid when csrM == len(endU); rebuilt on the
	// first query after a mutation.
	off  []int32
	inc  []int32
	csrM int
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: vertex count %d exceeds the int32 substrate", n))
	}
	g := &Graph{
		n:      n,
		deg:    make([]int32, n),
		firstD: make([]int32, n),
		lastD:  make([]int32, n),
		csrM:   -1,
	}
	for v := range g.firstD {
		g.firstD[v] = -1
		g.lastD[v] = -1
	}
	return g
}

// NewWithCapacity returns an empty graph on n vertices with room for m edges
// pre-allocated, so streaming generators can emit edges without growing the
// arrays.
func NewWithCapacity(n, m int) *Graph {
	g := New(n)
	if m > 0 {
		g.endU = make([]int32, 0, m)
		g.endV = make([]int32, 0, m)
		g.nextD = make([]int32, 0, 2*m)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.endU) }

// scanEdge returns the id of edge {u,v} by walking the dart list of the
// lower-degree endpoint, or -1.
func (g *Graph) scanEdge(u, v int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1
	}
	if g.deg[v] < g.deg[u] {
		u, v = v, u
	}
	v32 := int32(v)
	for d := g.firstD[u]; d >= 0; d = g.nextD[d] {
		e := d >> 1
		if g.endU[e]+g.endV[e]-int32(u) == v32 {
			return int(e)
		}
	}
	return -1
}

// AddEdge inserts the undirected edge {u,v} and returns its identifier.
// Self-loops and duplicate edges are rejected with an error.
func (g *Graph) AddEdge(u, v int) (int, error) {
	if u == v {
		return -1, fmt.Errorf("graph: self-loop at %d", u)
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if g.scanEdge(u, v) >= 0 {
		return -1, fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	if u > v {
		u, v = v, u
	}
	id := len(g.endU)
	if id >= math.MaxInt32/2 {
		return -1, fmt.Errorf("graph: edge count %d exceeds the int32 dart space", id)
	}
	g.endU = append(g.endU, int32(u))
	g.endV = append(g.endV, int32(v))
	g.nextD = append(g.nextD, -1, -1)
	//planarvet:narrowok id < MaxInt32/2 is checked above, so both darts 2id and 2id+1 fit
	g.appendDart(u, int32(2*id))
	//planarvet:narrowok id < MaxInt32/2 is checked above, so both darts 2id and 2id+1 fit
	g.appendDart(v, int32(2*id+1))
	g.deg[u]++
	g.deg[v]++
	g.csrM = -1
	return id, nil
}

// appendDart links dart d at the tail of v's incidence list.
func (g *Graph) appendDart(v int, d int32) {
	if g.lastD[v] < 0 {
		g.firstD[v] = d
	} else {
		g.nextD[g.lastD[v]] = d
	}
	g.lastD[v] = d
}

// MustAddEdge is AddEdge that panics on error; intended for generators and
// tests where the input is known to be valid.
func (g *Graph) MustAddEdge(u, v int) int {
	id, err := g.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return id
}

// ensure (re)builds the CSR iteration index if edges were added since the
// last build. It runs in O(n + m).
func (g *Graph) ensure() {
	if g.csrM == len(g.endU) {
		return
	}
	m := len(g.endU)
	if cap(g.off) < g.n+1 {
		g.off = make([]int32, g.n+1)
	} else {
		g.off = g.off[:g.n+1]
	}
	if cap(g.inc) < 2*m {
		g.inc = make([]int32, 2*m)
	} else {
		g.inc = g.inc[:2*m]
	}
	g.off[0] = 0
	for v := 0; v < g.n; v++ {
		g.off[v+1] = g.off[v] + g.deg[v]
		i := g.off[v]
		for d := g.firstD[v]; d >= 0; d = g.nextD[d] {
			g.inc[i] = d >> 1
			i++
		}
	}
	g.csrM = m
}

// Freeze builds the CSR iteration index now (it is otherwise built lazily on
// the first query). Call it before sharing a graph across goroutines.
func (g *Graph) Freeze() { g.ensure() }

// HasEdge reports whether {u,v} is an edge of g.
func (g *Graph) HasEdge(u, v int) bool { return g.scanEdge(u, v) >= 0 }

// EdgeID returns the identifier of edge {u,v} and whether it exists.
func (g *Graph) EdgeID(u, v int) (int, bool) {
	id := g.scanEdge(u, v)
	return id, id >= 0
}

// EdgeByID returns the edge with the given identifier. It panics with a
// "graph:"-prefixed message if id is not a valid edge identifier.
func (g *Graph) EdgeByID(id int) Edge {
	if id < 0 || id >= len(g.endU) {
		panic(fmt.Sprintf("graph: edge id %d out of range [0,%d)", id, len(g.endU)))
	}
	return Edge{U: int(g.endU[id]), V: int(g.endV[id])}
}

// EndpointsOf returns the normalized endpoints of edge id directly from the
// structure-of-arrays (the allocation-free form of EdgeByID for hot loops).
// It panics like EdgeByID on an invalid id.
func (g *Graph) EndpointsOf(id int) (u, v int32) {
	if id < 0 || id >= len(g.endU) {
		panic(fmt.Sprintf("graph: edge id %d out of range [0,%d)", id, len(g.endU)))
	}
	return g.endU[id], g.endV[id]
}

// Other returns the endpoint of edge id different from x, indexing the
// endpoint arrays directly. The caller must hold the incidence invariant
// (x is an endpoint); violations return the arithmetic complement.
func (g *Graph) Other(id int, x int) int {
	//planarvet:narrowok x is an endpoint vertex id by the incidence invariant, < n and New bounds n to MaxInt32
	return int(g.endU[id] + g.endV[id] - int32(x))
}

// Edges returns a copy of the edge list, indexed by edge ID.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.endU))
	for e := range out {
		out[e] = Edge{U: int(g.endU[e]), V: int(g.endV[e])}
	}
	return out
}

// IncidentEdges returns the identifiers of edges incident to v in insertion
// order, as a view into the CSR index: zero allocations, and the returned
// slice must not be modified. It is invalidated by the next AddEdge.
func (g *Graph) IncidentEdges(v int) []int32 {
	g.ensure()
	return g.inc[g.off[v]:g.off[v+1]]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.deg[v]) }

// Neighbors returns the neighbours of v in incident-edge order.
func (g *Graph) Neighbors(v int) []int {
	g.ensure()
	inc := g.inc[g.off[v]:g.off[v+1]]
	out := make([]int, len(inc))
	//planarvet:narrowok v indexed g.off above, so it is a vertex id < n ≤ MaxInt32
	v32 := int32(v)
	for i, id := range inc {
		out[i] = int(g.endU[id] + g.endV[id] - v32)
	}
	return out
}

// Clone returns a deep copy of g. Edge identifiers are preserved.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:      g.n,
		endU:   append([]int32(nil), g.endU...),
		endV:   append([]int32(nil), g.endV...),
		deg:    append([]int32(nil), g.deg...),
		firstD: append([]int32(nil), g.firstD...),
		lastD:  append([]int32(nil), g.lastD...),
		nextD:  append([]int32(nil), g.nextD...),
		csrM:   -1,
	}
	return c
}

// CheckVertex returns the error InducedSubgraph reports for a vertex
// outside [0, N()), or nil.
func (g *Graph) CheckVertex(v int) error {
	if v < 0 || v >= g.n {
		return fmt.Errorf("graph: vertex %d out of range", v)
	}
	return nil
}

// InducedSubgraph returns the subgraph induced by the given vertices,
// along with the mapping from new vertex index to original vertex.
// Vertices are renumbered 0..len(vs)-1 in the order given (duplicates
// are rejected). Edges keep their relative identifier order (ascending
// original edge ID); only edges incident to the subset are examined, so the
// cost is O(Σ deg(vs) · log) rather than O(M).
func (g *Graph) InducedSubgraph(vs []int) (*Graph, []int, error) {
	idx := make(map[int]int, len(vs))
	orig := make([]int, len(vs))
	for i, v := range vs {
		if err := g.CheckVertex(v); err != nil {
			return nil, nil, err
		}
		if _, dup := idx[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d", v)
		}
		idx[v] = i
		orig[i] = v
	}
	g.ensure()
	// Candidate edges: those with both endpoints in the subset, collected
	// from the incidence of the lower-id endpoint and sorted to reproduce
	// the global edge-ID insertion order exactly.
	var cand []int32
	for _, v := range vs {
		//planarvet:narrowok v passed CheckVertex above, so v < n and New bounds n to MaxInt32
		v32 := int32(v)
		for _, id := range g.inc[g.off[v]:g.off[v+1]] {
			w := g.endU[id] + g.endV[id] - v32
			if w > v32 {
				continue // counted once, from the smaller endpoint
			}
			if _, ok := idx[int(w)]; ok {
				cand = append(cand, id)
			}
		}
	}
	slices.Sort(cand)
	sub := NewWithCapacity(len(vs), len(cand))
	for _, id := range cand {
		sub.MustAddEdge(idx[int(g.endU[id])], idx[int(g.endV[id])])
	}
	return sub, orig, nil
}

// SortedNeighbors returns the neighbours of v sorted ascending; useful for
// deterministic iteration in tests.
func (g *Graph) SortedNeighbors(v int) []int {
	ns := g.Neighbors(v)
	sort.Ints(ns)
	return ns
}
