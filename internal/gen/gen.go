// Package gen generates embedded planar graphs for tests, examples, and
// experiments. Every generator returns an Instance carrying the graph, a
// validated combinatorial planar embedding (clockwise rotation system,
// y-up drawing convention), and a dart lying on the designated outer face.
package gen

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"planardfs/internal/graph"
	"planardfs/internal/planar"
)

// Instance is an embedded planar graph with a designated outer face.
type Instance struct {
	Name string
	G    *graph.Graph
	Emb  *planar.Embedding
	// OuterDart is a dart whose face (interior-left convention) is the
	// unbounded outer face.
	OuterDart int
}

// OuterFace returns the face index of the designated outer face with respect
// to Emb.TraceFaces ordering.
func (in *Instance) OuterFace() int { return in.Emb.OuterFaceOf(in.OuterDart) }

// embedFromCoords builds the embedding induced by vertex coordinates: the
// rotation at each vertex lists its neighbours in clockwise angular order
// (starting from north, y up). It requires a straight-line plane drawing
// (no crossing edges); validity is checked via the genus.
//
// The rotation is streamed into flat arrays: the darts are appended vertex
// by vertex, so each vertex's segment is sorted by clockwise angle key on
// its own, and the vertex-major array feeds planar.NewEmbeddingFlat
// directly — no per-vertex neighbour slices are materialized. Two darts
// of one vertex with the same key (neighbours in one direction, which no
// straight-line plane drawing has) are an error, so the order never
// depends on the sort algorithm.
func embedFromCoords(g *graph.Graph, xs, ys []float64) (*planar.Embedding, error) {
	n, m := g.N(), g.M()
	darts := make([]int32, 0, 2*m)
	keys := make([]float64, 2*m)
	off := make([]int32, n+1)
	byAngle := func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) }
	for v := 0; v < n; v++ {
		for _, id := range g.IncidentEdges(v) {
			u, _ := g.EndpointsOf(int(id))
			d := 2 * id
			if u != int32(v) {
				d++
			}
			w := g.Other(int(id), v)
			keys[d] = cwKey(math.Atan2(ys[w]-ys[v], xs[w]-xs[v]))
			darts = append(darts, d)
		}
		//planarvet:narrowok degrees are < n and graph.New bounds n to MaxInt32
		off[v+1] = off[v] + int32(g.Degree(v))
		rot := darts[off[v]:off[v+1]]
		slices.SortFunc(rot, byAngle)
		for i := 1; i < len(rot); i++ {
			if keys[rot[i]] == keys[rot[i-1]] {
				return nil, fmt.Errorf("gen: coordinate embedding invalid: vertex %d has two neighbours in one direction", v)
			}
		}
	}
	emb, err := planar.NewEmbeddingFlat(g, off, darts)
	if err != nil {
		return nil, err
	}
	if err := emb.Validate(); err != nil {
		return nil, fmt.Errorf("gen: coordinate embedding invalid: %w", err)
	}
	return emb, nil
}

// cwKey maps an angle to a key increasing clockwise starting from north.
func cwKey(ang float64) float64 {
	k := math.Pi/2 - ang
	if k < 0 {
		k += 2 * math.Pi
	}
	return k
}

// outerDartFromCoords returns a dart on the outer face of a coordinate
// embedding. It locates the bottom-most (then left-most) vertex; the face at
// its south-facing corner is unbounded. The corner between clockwise-
// consecutive darts (a, b) belongs to the face of dart b, so the answer is
// the first dart in clockwise order whose direction key exceeds south
// (wrapping to the first dart).
func outerDartFromCoords(g *graph.Graph, emb *planar.Embedding, xs, ys []float64) int {
	v0 := 0
	for v := 1; v < g.N(); v++ {
		if ys[v] < ys[v0] || (ys[v] == ys[v0] && xs[v] < xs[v0]) {
			v0 = v
		}
	}
	d0 := emb.FirstDart(v0)
	south := math.Pi // cwKey of straight down
	for d := d0; ; {
		w := emb.HeadOf(d)
		if cwKey(math.Atan2(ys[w]-ys[v0], xs[w]-xs[v0])) > south {
			return d
		}
		d = emb.NextCW(d)
		if d == d0 {
			break
		}
	}
	return d0
}

// Grid returns the w x h grid graph with its standard embedding. Vertex
// (x, y) has index y*w + x; (0,0) is the bottom-left corner. Requires
// w, h >= 2.
func Grid(w, h int) (*Instance, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("gen: grid needs w,h >= 2, got %dx%d", w, h)
	}
	g := graph.NewWithCapacity(w*h, (w-1)*h+w*(h-1))
	xs := make([]float64, w*h)
	ys := make([]float64, w*h)
	idx := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := idx(x, y)
			xs[v], ys[v] = float64(x), float64(y)
			if x+1 < w {
				g.MustAddEdge(v, idx(x+1, y))
			}
			if y+1 < h {
				g.MustAddEdge(v, idx(x, y+1))
			}
		}
	}
	emb, err := embedFromCoords(g, xs, ys)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:      fmt.Sprintf("grid-%dx%d", w, h),
		G:         g,
		Emb:       emb,
		OuterDart: outerDartFromCoords(g, emb, xs, ys),
	}, nil
}

// Cycle returns the n-cycle 0-1-...-(n-1)-0 embedded as a convex polygon
// with vertices in counterclockwise order. Requires n >= 3.
func Cycle(n int) (*Instance, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: cycle needs n >= 3, got %d", n)
	}
	g := graph.New(n)
	xs, ys := polygonCoords(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	emb, err := embedFromCoords(g, xs, ys)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:      fmt.Sprintf("cycle-%d", n),
		G:         g,
		Emb:       emb,
		OuterDart: outerDartFromCoords(g, emb, xs, ys),
	}, nil
}

func polygonCoords(n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		xs[i], ys[i] = math.Cos(a), math.Sin(a)
	}
	return xs, ys
}

// Wheel returns the wheel graph: an n-cycle (vertices 0..n-1, ccw) plus a
// hub (vertex n) adjacent to every rim vertex. Requires n >= 3.
func Wheel(n int) (*Instance, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: wheel needs rim n >= 3, got %d", n)
	}
	g := graph.New(n + 1)
	xs, ys := polygonCoords(n)
	xs = append(xs, 0)
	ys = append(ys, 0)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
		g.MustAddEdge(i, n)
	}
	emb, err := embedFromCoords(g, xs, ys)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:      fmt.Sprintf("wheel-%d", n),
		G:         g,
		Emb:       emb,
		OuterDart: outerDartFromCoords(g, emb, xs, ys),
	}, nil
}

// Fan returns the fan graph: a path 0-1-...-(n-2) plus an apex (vertex n-1)
// adjacent to every path vertex; an outerplanar triangulation with a
// Θ(n)-degree apex. Requires n >= 4.
func Fan(n int) (*Instance, error) {
	if n < 4 {
		return nil, fmt.Errorf("gen: fan needs n >= 4, got %d", n)
	}
	k := n - 1 // path length
	g := graph.New(n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	// Path vertices on an upper arc, apex below.
	for i := 0; i < k; i++ {
		a := math.Pi * float64(i+1) / float64(k+1)
		xs[i], ys[i] = math.Cos(math.Pi-a), math.Sin(math.Pi-a)
		if i+1 < k {
			g.MustAddEdge(i, i+1)
		}
		g.MustAddEdge(i, n-1)
	}
	xs[n-1], ys[n-1] = 0, -1
	emb, err := embedFromCoords(g, xs, ys)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:      fmt.Sprintf("fan-%d", n),
		G:         g,
		Emb:       emb,
		OuterDart: outerDartFromCoords(g, emb, xs, ys),
	}, nil
}
