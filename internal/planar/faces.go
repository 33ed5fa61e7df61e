package planar

import (
	"fmt"

	"planardfs/internal/graph"
)

// Faces is the face structure of an embedding: every dart belongs to exactly
// one face cycle. Cycles are stored in CSR form — one flat dart array with
// per-face offsets — so tracing allocates O(1) slices regardless of the face
// count.
type Faces struct {
	emb *Embedding
	// FaceOf[d] is the face index of dart d.
	FaceOf []int32
	// CSR cycle storage: the darts of face f, in traversal order starting
	// from its smallest dart, are cyc[off[f]:off[f+1]].
	off []int32
	cyc []int32
}

// TraceFaces computes all faces of the embedding by iterating the FaceNext
// successor rule. Face f's cycle begins at its smallest dart.
func (emb *Embedding) TraceFaces() *Faces {
	fs := &Faces{}
	emb.TraceFacesInto(fs)
	return fs
}

// TraceFacesInto is TraceFaces into fs, reusing its storage: the
// allocation prologue sizes FaceOf and the cycle storage to 2m darts,
// keeping their capacity, and the trace itself is the noalloc core
// below, so retracing after virtual-edge insertions, or for each
// component of a build, stays GC-quiet.
func (emb *Embedding) TraceFacesInto(fs *Faces) {
	m2 := 2 * emb.g.M()
	fs.emb = emb
	fs.FaceOf = graph.Resize(fs.FaceOf, m2)
	fs.cyc = graph.Resize(fs.cyc, m2)
	// Every face holds at least one dart, so m2+1 offsets suffice.
	fs.off = append(graph.Resize(fs.off, m2+1)[:0], 0)
	emb.traceFacesInto(fs)
}

// traceFacesInto runs the face trace proper over storage presized by
// TraceFacesInto: FaceOf and cyc hold 2m darts, off has capacity for one
// offset per face plus the leading zero. This is the separator pipeline's
// steady-state face walk — it re-runs after every virtual-edge insertion —
// so the loop must not touch the allocator.
//
//planarvet:noalloc TestFaceTraceZeroAlloc
func (emb *Embedding) traceFacesInto(fs *Faces) {
	fs.off = fs.off[:1]
	for i := range fs.FaceOf {
		fs.FaceOf[i] = -1
	}
	cursor := 0
	for d := 0; d < len(fs.FaceOf); d++ {
		if fs.FaceOf[d] != -1 {
			continue
		}
		//planarvet:narrowok one offset per face, so len(fs.off) ≤ 2m+1 and AddEdge bounds 2m to MaxInt32
		id := int32(len(fs.off) - 1)
		for x := int32(d); fs.FaceOf[x] == -1; x = emb.next[int(x)^1] {
			fs.FaceOf[x] = id
			fs.cyc[cursor] = x
			cursor++
		}
		//planarvet:narrowok cursor counts traced darts, ≤ 2m which AddEdge bounds to MaxInt32
		fs.off = append(fs.off, int32(cursor)) //planarvet:allocok off is presized to one slot per face by TraceFacesInto, append stays in capacity
	}
}

// Count returns the number of faces.
func (fs *Faces) Count() int { return len(fs.off) - 1 }

// Cycle returns the darts of face f in traversal order, as a view into the
// CSR storage: zero allocations, and the returned slice must not be
// modified.
func (fs *Faces) Cycle(f int) []int32 { return fs.cyc[fs.off[f]:fs.off[f+1]] }

// CycleLen returns the number of darts on face f.
func (fs *Faces) CycleLen(f int) int { return int(fs.off[f+1] - fs.off[f]) }

// FaceRoot returns the tail of the smallest dart on d's face. TraceFaces
// starts every cycle at its smallest dart, so this is the first vertex
// FaceVertices lists for the face of d, found by one walk around that face
// without tracing the others. Passed the outer dart, it is the root every
// configuration hangs from (the paper attaches its virtual root r₀ on the
// outer face). d must be a dart of emb.
//
//planarvet:noalloc TestFaceRootZeroAlloc
func (emb *Embedding) FaceRoot(d int) int {
	least := d
	for x := emb.FaceNext(d); x != d; x = emb.FaceNext(x) {
		if x < least {
			least = x
		}
	}
	return emb.TailOf(least)
}

// FaceVertices returns the vertices on face f in traversal order (a vertex
// may repeat if the face boundary visits it more than once).
func (fs *Faces) FaceVertices(f int) []int {
	seg := fs.Cycle(f)
	out := make([]int, len(seg))
	for i, d := range seg {
		out[i] = int(fs.emb.headD[int(d)^1]) // tail of d
	}
	return out
}

// Genus returns the Euler genus of the embedding, assuming the underlying
// graph is connected: g = (2 - V + E - F) / 2.
func (emb *Embedding) Genus() int {
	return (2 - emb.g.N() + emb.g.M() - emb.faceCount()) / 2
}

// faceCount returns the number of faces, counting the single face of an
// edgeless graph (which has no dart cycles) as 1.
func (emb *Embedding) faceCount() int {
	if emb.g.M() == 0 {
		return 1
	}
	return emb.TraceFaces().Count()
}

// Validate checks that the embedding is genus 0 (a planar embedding) and the
// graph is connected.
func (emb *Embedding) Validate() error {
	if !emb.g.Connected() {
		return fmt.Errorf("planar: graph is not connected")
	}
	euler := emb.g.N() - emb.g.M() + emb.faceCount()
	if euler != 2 {
		return fmt.Errorf("planar: rotation system has Euler characteristic %d (genus %d), not a planar embedding",
			euler, (2-euler)/2)
	}
	return nil
}

// Dual returns the dual graph of the embedding: one vertex per face, one
// edge per primal edge (connecting the faces on its two sides). Dual edge
// identifiers equal primal edge identifiers. Duplicate face pairs and loops
// are possible in duals, so the dual is returned as an adjacency via edge
// sides rather than a graph.Graph.
type Dual struct {
	Faces *Faces
	// Side[e] gives the two face indices separated by primal edge e
	// (Side[e][0] = face of dart 2e, Side[e][1] = face of dart 2e+1).
	Side [][2]int
}

// BuildDual computes the dual structure of the embedding.
func (emb *Embedding) BuildDual() *Dual {
	fs := emb.TraceFaces()
	d := &Dual{Faces: fs, Side: make([][2]int, emb.g.M())}
	for e := 0; e < emb.g.M(); e++ {
		d.Side[e] = [2]int{int(fs.FaceOf[2*e]), int(fs.FaceOf[2*e+1])}
	}
	return d
}

// CycleClassification is the result of classifying the plane against a
// simple cycle: which faces and vertices are strictly inside.
type CycleClassification struct {
	// OnCycle[v] reports whether v lies on the cycle.
	OnCycle []bool
	// InsideVertex[v] reports whether v is strictly inside the cycle.
	InsideVertex []bool
	// InsideFace[f] reports whether face f is inside the cycle.
	InsideFace []bool
}

// ClassifyCycle classifies faces and vertices of the embedding against the
// simple cycle formed by the given edge IDs, taking outerFace (a face index
// of emb.TraceFaces ordering) as the unbounded face. The cycle's edges cut
// the dual graph into exactly two components; the component containing
// outerFace is the outside.
func (emb *Embedding) ClassifyCycle(cycleEdges []int, outerFace int) (*CycleClassification, error) {
	fs := emb.TraceFaces()
	onCycleEdge := make([]bool, emb.g.M())
	for _, e := range cycleEdges {
		if e < 0 || e >= emb.g.M() {
			return nil, fmt.Errorf("planar: cycle edge %d out of range", e)
		}
		if onCycleEdge[e] {
			return nil, fmt.Errorf("planar: cycle edge %d repeated", e)
		}
		onCycleEdge[e] = true
	}
	// Union faces across non-cycle edges.
	uf := graph.NewUnionFind(fs.Count())
	for e := 0; e < emb.g.M(); e++ {
		if !onCycleEdge[e] {
			uf.Union(int(fs.FaceOf[2*e]), int(fs.FaceOf[2*e+1]))
		}
	}
	if uf.Count() != 2 {
		return nil, fmt.Errorf("planar: edge set does not cut the sphere into 2 regions (got %d); not a simple cycle", uf.Count())
	}
	out := uf.Find(outerFace)
	cc := &CycleClassification{
		OnCycle:      make([]bool, emb.g.N()),
		InsideVertex: make([]bool, emb.g.N()),
		InsideFace:   make([]bool, fs.Count()),
	}
	for f := 0; f < fs.Count(); f++ {
		cc.InsideFace[f] = uf.Find(f) != out
	}
	for _, e := range cycleEdges {
		u, v := emb.g.EndpointsOf(e)
		cc.OnCycle[u] = true
		cc.OnCycle[v] = true
	}
	for v := 0; v < emb.g.N(); v++ {
		if cc.OnCycle[v] || emb.first[v] < 0 {
			continue
		}
		// All incident faces of a non-cycle vertex are on one side.
		cc.InsideVertex[v] = cc.InsideFace[fs.FaceOf[emb.first[v]]]
	}
	return cc, nil
}

// OuterFaceOf returns the face index (w.r.t. emb.TraceFaces ordering)
// containing the given dart. Generators designate the outer face by one of
// its darts.
func (emb *Embedding) OuterFaceOf(dart int) int {
	fs := emb.TraceFaces()
	return int(fs.FaceOf[dart])
}
