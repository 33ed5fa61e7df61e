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
	// contains the face of the parent dart Restrict was given (the
	// parent's outer region, as callers choose it), or -1 if the subgraph
	// has no edges.
	OuterDart int
}

// Restricter builds restrictions of one embedding to the parts of a
// split, on a graph.Inducer it keeps between calls: Split sets the
// parent-vertex and parent-edge indexes over every part at once, and
// Restrict builds one part's restriction into storage the Restricter
// reuses, so after the O(n + m) set-up a split costs O(n + m) and a
// restriction its own size. The DFS build owns one per run, through
// separator.Workspace. A Restricter is not safe for concurrent use; the
// embedding it reads may be shared.
type Restricter struct {
	emb *Embedding
	ind *graph.Inducer
	// rot holds one kept vertex's sub rotation while it is placed.
	rot []int32
	// sub and res are the restriction Restrict returns, rebuilt in place.
	sub Embedding
	res Restriction
}

// NewRestricter returns a Restricter over emb.
func NewRestricter(emb *Embedding) *Restricter {
	return &Restricter{emb: emb, ind: graph.NewInducer(emb.g)}
}

// Split sets the parts later Restrict calls build: disjoint vertex sets
// of the parent graph, which must not change before the next Split
// (graph.Inducer.Split, whose errors it returns).
func (r *Restricter) Split(parts [][]int) error { return r.ind.Split(parts) }

// Part returns the vertices of part i of the last Split.
func (r *Restricter) Part(i int) []int { return r.ind.Part(i) }

// Restrict returns the embedding induced on part i of the last Split,
// with the sub-face containing the given parent dart's face as its outer
// face. dart must have its tail in the part; it is ignored when the part
// induces no edge. Sub vertices follow the part's order and sub edges
// ascend by parent edge id (graph.Inducer), so sub dart 2i+s of sub edge
// i runs from its smaller (s = 0) or larger (s = 1) sub endpoint. The
// restriction, its graph and embedding included, is built in storage the
// Restricter reuses: it is valid until the next Restrict or Split and
// must not be modified.
//
// Sub-faces are unions of parent faces merged across the darts the
// subgraph drops. In the parent, the face of dart d fills the corner
// between prev[d] and d at Tail(d), so the sub-face holding it is the face
// of the first kept dart at or clockwise after d. Finding it costs O(deg),
// and the whole restriction costs O(Σ deg(part)) in one pass over the
// parent rotations. Callers name a dart whose face lies in the parent's
// outer region: the DFS build knows one locally (see dfs.Build), everyone
// else asks OuterRegionDart.
func (r *Restricter) Restrict(i, dart int) (*Restriction, error) {
	emb, ind := r.emb, r.ind
	vs := ind.Part(i)
	sub := ind.Induce(i)
	// Each kept vertex's sub rotation is its parent rotation with the
	// absent darts skipped.
	semb := &r.sub
	semb.reset(sub)
	for si, v := range vs {
		d0 := emb.first[v]
		if d0 < 0 {
			continue
		}
		r.rot = r.rot[:0]
		for d := d0; ; {
			if sd := r.subDart(int(d), si); sd >= 0 {
				//planarvet:narrowok sd < 2·sub.M() ≤ 2·m, and AddEdge bounds 2m to MaxInt32
				r.rot = append(r.rot, int32(sd))
			}
			if d = emb.next[d]; d == d0 {
				break
			}
		}
		for k, sd := range r.rot {
			if err := semb.placeDart(si, k, int(sd)); err != nil {
				return nil, err
			}
		}
		semb.linkCycle(si, r.rot)
	}
	if _, err := semb.finish(); err != nil {
		return nil, err
	}
	res := &r.res
	*res = Restriction{G: sub, Emb: semb, Orig: vs, OuterDart: -1}
	if sub.M() == 0 {
		return res, nil
	}
	if err := emb.CheckOuterDart(dart); err != nil {
		return nil, err
	}
	if ind.PartOf(emb.TailOf(dart)) != i {
		return nil, fmt.Errorf("planar: outer dart %d has tail %d outside the restriction", dart, emb.TailOf(dart))
	}
	su := ind.Local(emb.TailOf(dart))
	for d := dart; ; {
		if sd := r.subDart(d, su); sd >= 0 {
			res.OuterDart = sd
			return res, nil
		}
		if d = int(emb.next[d]); d == dart {
			break
		}
	}
	return nil, fmt.Errorf("planar: outer dart %d has tail %d with no edge in the restriction", dart, emb.TailOf(dart))
}

// subDart returns the sub dart of parent dart d, whose tail has sub id su,
// or -1 if the restriction drops d's edge. An edge is kept only inside
// one part, so a kept d's head is in its tail's part.
func (r *Restricter) subDart(d, su int) int {
	se := r.ind.SubEdge(d >> 1)
	if se < 0 {
		return -1
	}
	if su < r.ind.Local(r.emb.HeadOf(d)) {
		return 2 * se
	}
	return 2*se + 1
}

// CheckOuterDart returns an error if d is not a dart of the embedding: the
// check every entry point taking an instance's outer dart makes before it
// reads the dart's face.
func (emb *Embedding) CheckOuterDart(d int) error {
	if d < 0 || d >= len(emb.next) {
		return fmt.Errorf("planar: outer dart %d out of range", d)
	}
	return nil
}

// OuterRegionDart returns a parent dart with both endpoints in vs whose
// face lies in the region of the face of outerDart (the parent outer face)
// once the edges not induced by vs are dropped — the dart Restrict needs
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
	if err := emb.CheckOuterDart(outerDart); err != nil {
		return -1, err
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
