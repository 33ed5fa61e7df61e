package planar

import (
	"fmt"

	"planardfs/internal/graph"
)

// Restriction is an embedded induced subgraph together with the vertex
// mapping back to the parent graph and the designated outer face of the
// sub-embedding.
type Restriction struct {
	G   *graph.Graph
	Emb *Embedding
	// Orig maps sub-vertex -> original vertex.
	Orig []int
	// OuterDart is a dart of the sub-embedding lying on the face that
	// contains the face of the parent dart RestrictTo was given (the
	// parent's outer region, as callers choose it), or -1 if the subgraph
	// has no edges.
	OuterDart int
}

// RestrictTo returns the embedding induced on the given vertices, with
// the sub-face containing the given parent dart's face as its outer face.
// dart must have its tail in vs; it is ignored when vs induces no edge.
//
// Sub-faces are unions of parent faces merged across the darts the
// subgraph drops. In the parent, the face of dart d fills the corner
// between prev[d] and d at Tail(d), so the sub-face holding it is the face
// of the first kept dart at or clockwise after d. Finding it costs O(deg),
// and the whole restriction costs O(Σ deg(vs)) with no array sized by the
// parent graph. Callers name a dart whose face lies in the parent's outer
// region: the DFS build knows one locally (see dfs.Build), everyone else
// asks OuterRegionDart.
func (emb *Embedding) RestrictTo(vs []int, dart int) (*Restriction, error) {
	sub, orig, err := emb.g.InducedSubgraph(vs)
	if err != nil {
		return nil, err
	}
	subOf := make(map[int]int, len(orig))
	for i, v := range orig {
		subOf[v] = i
	}
	// Rotation orders: filter each kept vertex's rotation to kept edges.
	orders := make([][]int, sub.N())
	for i, v := range orig {
		d0 := emb.first[v]
		if d0 < 0 {
			continue
		}
		orders[i] = make([]int, 0, emb.g.Degree(v))
		for d := d0; ; {
			if w, ok := subOf[int(emb.headD[d])]; ok {
				orders[i] = append(orders[i], w)
			}
			d = emb.next[d]
			if d == d0 {
				break
			}
		}
	}
	semb, err := FromNeighborOrders(sub, orders)
	if err != nil {
		return nil, err
	}
	res := &Restriction{G: sub, Emb: semb, Orig: orig, OuterDart: -1}
	if sub.M() == 0 {
		return res, nil
	}
	if dart < 0 || dart >= len(emb.next) {
		return nil, fmt.Errorf("planar: outer dart %d out of range", dart)
	}
	su, ok := subOf[emb.TailOf(dart)]
	if !ok {
		return nil, fmt.Errorf("planar: outer dart %d has tail %d outside the restriction", dart, emb.TailOf(dart))
	}
	for d := dart; ; {
		if sw, ok := subOf[emb.HeadOf(d)]; ok {
			sid, _ := sub.EdgeID(su, sw) // sub is induced, so the edge is there
			res.OuterDart = DartFrom(sub, sid, su)
			return res, nil
		}
		d = int(emb.next[d])
		if d == dart {
			break
		}
	}
	return nil, fmt.Errorf("planar: outer dart %d has tail %d with no edge in the restriction", dart, emb.TailOf(dart))
}

// OuterRegionDart returns a parent dart with both endpoints in vs whose
// face lies in the region of the face of outerDart (the parent outer face)
// once the edges not induced by vs are dropped — the dart RestrictTo needs
// when the caller knows nothing local about vs. It returns -1 if vs
// induces no edge. Sub-faces are unions of parent faces merged across
// absent edges, so the region is found by a union–find over all parent
// faces: O(n + m).
func (emb *Embedding) OuterRegionDart(vs []int, outerDart int) (int, error) {
	g := emb.g
	in := make([]bool, g.N())
	for _, v := range vs {
		if v < 0 || v >= g.N() {
			return -1, fmt.Errorf("planar: vertex %d out of range", v)
		}
		in[v] = true
	}
	if outerDart < 0 || outerDart >= len(emb.next) {
		return -1, fmt.Errorf("planar: outer dart %d out of range", outerDart)
	}
	fs := emb.TraceFaces()
	uf := graph.NewUnionFind(fs.Count())
	for e := 0; e < g.M(); e++ {
		u, v := g.EndpointsOf(e)
		if !in[u] || !in[v] {
			uf.Union(int(fs.FaceOf[2*e]), int(fs.FaceOf[2*e+1]))
		}
	}
	outerClass := uf.Find(int(fs.FaceOf[outerDart]))
	for e := 0; e < g.M(); e++ {
		u, v := g.EndpointsOf(e)
		if !in[u] || !in[v] {
			continue
		}
		for d := 2 * e; d < 2*e+2; d++ {
			if uf.Find(int(fs.FaceOf[d])) == outerClass {
				return d, nil
			}
		}
	}
	return -1, nil
}
