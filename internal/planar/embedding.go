// Package planar implements combinatorial planar embeddings (rotation
// systems) over the graphs of package graph, together with the geometric
// primitives the paper's algorithms rest on: face tracing, Euler-genus
// validation, dual graphs, Jordan inside/outside classification of cycles,
// and ℰ-compatible insertion of virtual edges.
//
// # Darts
//
// Every undirected edge e (with graph edge ID e) is split into two darts:
// dart 2e is directed from e.U to e.V, dart 2e+1 from e.V to e.U. A rotation
// system assigns to each vertex v the *clockwise* cyclic order of the darts
// whose tail is v. Faces are traced with the convention that, for a genus-0
// rotation system drawn in the plane, every inner face is traversed
// counterclockwise (interior to the left of each dart) and the outer face
// clockwise.
//
// # Flat layout
//
// The rotation system is stored dart-indexed (DESIGN.md §13): next[d] and
// prev[d] link the clockwise cyclic order around Tail(d), head[d] caches the
// head vertex, pos[d] the index within the tail's rotation, and first[v] the
// dart at position 0. There are no per-vertex slices; Rotation and
// NeighborOrder materialize copies for compatibility, while hot paths walk
// FirstDart/NextCW directly.
package planar

import (
	"fmt"

	"planardfs/internal/graph"
)

// Tail returns the tail vertex of dart d in g.
func Tail(g *graph.Graph, d int) int {
	u, v := g.EndpointsOf(d / 2)
	if d%2 == 0 {
		return int(u)
	}
	return int(v)
}

// DartFrom returns the dart of edge id directed out of vertex u.
func DartFrom(g *graph.Graph, id, u int) int {
	e := g.EdgeByID(id)
	switch u {
	case e.U:
		return 2 * id
	case e.V:
		return 2*id + 1
	}
	panic(fmt.Sprintf("planar: vertex %d not an endpoint of edge %d", u, id))
}

// Embedding is a rotation system over a graph: for every vertex, the
// clockwise cyclic ordering of its outgoing darts, stored as flat
// dart-indexed arrays.
type Embedding struct {
	g *graph.Graph
	// next[d]/prev[d] are the clockwise successor/predecessor of dart d in
	// the rotation of its tail vertex.
	next, prev []int32
	// pos[d] is the index of dart d within the rotation of Tail(d).
	pos []int32
	// headD[d] is the head vertex of dart d.
	headD []int32
	// first[v] is the dart at position 0 of v's rotation, or -1 for an
	// isolated vertex.
	first []int32
}

// allocEmbedding returns an embedding shell over g with pos and first
// initialised to -1.
func allocEmbedding(g *graph.Graph) *Embedding {
	emb := &Embedding{}
	emb.reset(g)
	return emb
}

// reset makes emb the embedding shell over g in its own storage, keeping
// the capacity of every array: pos and first are -1 and head holds each
// dart's head, ready for placeDart, linkCycle and finish.
func (emb *Embedding) reset(g *graph.Graph) {
	m2 := 2 * g.M()
	emb.g = g
	emb.next = graph.Resize(emb.next, m2)
	emb.prev = graph.Resize(emb.prev, m2)
	emb.pos = graph.Resize(emb.pos, m2)
	emb.headD = graph.Resize(emb.headD, m2)
	emb.first = graph.Resize(emb.first, g.N())
	for d := range emb.pos {
		emb.pos[d] = -1
	}
	for v := range emb.first {
		emb.first[v] = -1
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.EndpointsOf(e)
		emb.headD[2*e] = v
		emb.headD[2*e+1] = u
	}
}

// placeDart validates dart d as entry i of v's rotation of length deg and
// records it in the flat arrays (linking is done once the segment is known).
func (emb *Embedding) placeDart(v, i, d int) error {
	if d < 0 || d >= len(emb.pos) {
		return fmt.Errorf("planar: dart %d out of range at vertex %d", d, v)
	}
	if Tail(emb.g, d) != v {
		return fmt.Errorf("planar: dart %d has tail %d, listed at vertex %d", d, Tail(emb.g, d), v)
	}
	if emb.pos[d] != -1 {
		return fmt.Errorf("planar: dart %d listed twice", d)
	}
	//planarvet:narrowok i indexes a rotation, so i < deg(v) < n and graph.New bounds n to MaxInt32
	emb.pos[d] = int32(i)
	return nil
}

// finish checks completeness after all darts are placed.
func (emb *Embedding) finish() (*Embedding, error) {
	for d, p := range emb.pos {
		if p == -1 {
			return nil, fmt.Errorf("planar: dart %d missing from rotation system", d)
		}
	}
	return emb, nil
}

// NewEmbeddingFlat builds an embedding from a vertex-major flat dart array:
// darts[off[v]:off[v+1]] is the clockwise dart order at v. This is the
// allocation-lean constructor streaming generators use; off must have length
// g.N()+1 and darts length 2*g.M().
func NewEmbeddingFlat(g *graph.Graph, off, darts []int32) (*Embedding, error) {
	if len(off) != g.N()+1 {
		return nil, fmt.Errorf("planar: rotation for %d vertices, graph has %d", len(off)-1, g.N())
	}
	emb := allocEmbedding(g)
	for v := 0; v < g.N(); v++ {
		seg := darts[off[v]:off[v+1]]
		if len(seg) != g.Degree(v) {
			return nil, fmt.Errorf("planar: vertex %d has degree %d but rotation of length %d", v, g.Degree(v), len(seg))
		}
		for i, d := range seg {
			if err := emb.placeDart(v, i, int(d)); err != nil {
				return nil, err
			}
		}
		emb.linkCycle(v, seg)
	}
	return emb.finish()
}

// linkCycle records the cyclic next/prev links and first dart for v's
// validated rotation segment.
func (emb *Embedding) linkCycle(v int, seg []int32) {
	k := len(seg)
	if k == 0 {
		return
	}
	emb.first[v] = seg[0]
	for i, d := range seg {
		emb.next[d] = seg[(i+1)%k]
		emb.prev[d] = seg[(i-1+k)%k]
	}
}

// FromNeighborOrders builds an embedding from per-vertex clockwise neighbour
// orderings (valid for simple graphs, where a neighbour identifies the edge).
func FromNeighborOrders(g *graph.Graph, orders [][]int) (*Embedding, error) {
	if len(orders) != g.N() {
		return nil, fmt.Errorf("planar: rotation for %d vertices, graph has %d", len(orders), g.N())
	}
	emb := allocEmbedding(g)
	darts := make([]int32, 0, 2*g.M())
	for v := range orders {
		if len(orders[v]) != g.Degree(v) {
			return nil, fmt.Errorf("planar: vertex %d has degree %d but rotation of length %d", v, g.Degree(v), len(orders[v]))
		}
		darts = darts[:0]
		for _, w := range orders[v] {
			id, ok := g.EdgeID(v, w)
			if !ok {
				return nil, fmt.Errorf("planar: vertex %d lists non-neighbour %d", v, w)
			}
			//planarvet:narrowok a dart of g is < 2m, and AddEdge bounds 2m to MaxInt32
			darts = append(darts, int32(DartFrom(g, id, v)))
		}
		for i, d := range darts {
			if err := emb.placeDart(v, i, int(d)); err != nil {
				return nil, err
			}
		}
		emb.linkCycle(v, darts)
	}
	return emb.finish()
}

// Graph returns the underlying graph.
func (emb *Embedding) Graph() *graph.Graph { return emb.g }

// Rotation returns the clockwise dart order at v as a freshly allocated
// slice. Hot paths should iterate with FirstDart/NextCW instead.
func (emb *Embedding) Rotation(v int) []int {
	out := make([]int, 0, emb.g.Degree(v))
	d := emb.first[v]
	if d < 0 {
		return out
	}
	for {
		out = append(out, int(d))
		d = emb.next[d]
		if d == emb.first[v] {
			return out
		}
	}
}

// FirstDart returns the dart at position 0 of v's rotation, or -1 if v is
// isolated. Together with NextCW it iterates the rotation without
// allocating.
func (emb *Embedding) FirstDart(v int) int { return int(emb.first[v]) }

// Pos returns the index of dart d within the rotation of its tail.
func (emb *Embedding) Pos(d int) int { return int(emb.pos[d]) }

// HeadOf returns the head vertex of dart d.
func (emb *Embedding) HeadOf(d int) int { return int(emb.headD[d]) }

// TailOf returns the tail vertex of dart d.
func (emb *Embedding) TailOf(d int) int { return int(emb.headD[d^1]) }

// NextCW returns the dart clockwise-after d around its tail vertex.
func (emb *Embedding) NextCW(d int) int { return int(emb.next[d]) }

// NextCCW returns the dart counterclockwise-after d around its tail vertex.
func (emb *Embedding) NextCCW(d int) int { return int(emb.prev[d]) }

// FaceNext returns the successor of dart d along its face, using the
// convention that the face interior lies to the left of d: the successor is
// the clockwise-next dart after the twin d^1 around the head of d.
func (emb *Embedding) FaceNext(d int) int { return int(emb.next[d^1]) }

// Clone returns a deep copy of the embedding (sharing the graph).
func (emb *Embedding) Clone() *Embedding {
	return &Embedding{
		g:     emb.g,
		next:  append([]int32(nil), emb.next...),
		prev:  append([]int32(nil), emb.prev...),
		pos:   append([]int32(nil), emb.pos...),
		headD: append([]int32(nil), emb.headD...),
		first: append([]int32(nil), emb.first...),
	}
}

// NeighborOrder returns the clockwise neighbour ordering at v.
func (emb *Embedding) NeighborOrder(v int) []int {
	order := make([]int, 0, emb.g.Degree(v))
	d := emb.first[v]
	if d < 0 {
		return order
	}
	for {
		order = append(order, int(emb.headD[d]))
		d = emb.next[d]
		if d == emb.first[v] {
			return order
		}
	}
}
