package planar

import (
	"testing"
	"testing/quick"

	"planardfs/internal/graph"
)

// buildRandomEmbedded returns a random stacked-triangulation-like embedded
// graph built directly (avoiding an import cycle with package gen): start
// from a triangle and insert vertices into faces.
func buildRandomEmbedded(seed int64, n int) (*graph.Graph, *Embedding, error) {
	nbrs := [][]int{{2, 1}, {2, 0}, {1, 0}}
	faces := [][3]int{{0, 1, 2}}
	rng := seed
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		x := int(rng % int64(mod))
		if x < 0 {
			x += mod
		}
		return x
	}
	insertAfter := func(v, w, x int) {
		for i, y := range nbrs[v] {
			if y == w {
				nbrs[v] = append(nbrs[v][:i+1], append([]int{x}, nbrs[v][i+1:]...)...)
				return
			}
		}
	}
	for len(nbrs) < n {
		f := next(len(faces))
		a, b, c := faces[f][0], faces[f][1], faces[f][2]
		x := len(nbrs)
		nbrs = append(nbrs, []int{c, b, a})
		insertAfter(a, c, x)
		insertAfter(b, a, x)
		insertAfter(c, b, x)
		faces[f] = [3]int{a, b, x}
		faces = append(faces, [3]int{b, c, x}, [3]int{c, a, x})
	}
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for _, w := range nbrs[v] {
			if v < w {
				g.MustAddEdge(v, w)
			}
		}
	}
	emb, err := FromNeighborOrders(g, nbrs)
	if err != nil {
		return nil, nil, err
	}
	return g, emb, nil
}

// Property: TraceFaces partitions the darts — every dart is in exactly one
// face cycle, and FaceNext is a permutation consistent with the cycles.
func TestTraceFacesPartitionsDarts(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz)%80
		g, emb, err := buildRandomEmbedded(seed, n)
		if err != nil {
			return false
		}
		fs := emb.TraceFaces()
		counted := 0
		for f := 0; f < fs.Count(); f++ {
			cyc := fs.Cycle(f)
			counted += len(cyc)
			for i, d := range cyc {
				nxt := cyc[(i+1)%len(cyc)]
				if emb.FaceNext(int(d)) != int(nxt) {
					return false
				}
				if fs.FaceOf[d] != fs.FaceOf[nxt] {
					return false
				}
			}
		}
		return counted == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Euler's formula holds on every generated embedding.
func TestEulerFormulaProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz)%80
		g, emb, err := buildRandomEmbedded(seed, n)
		if err != nil {
			return false
		}
		fs := emb.TraceFaces()
		return g.N()-g.M()+fs.Count() == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ClassifyCycle partitions vertices into on-cycle, inside, and
// outside; inside and outside are both nonempty only when the cycle
// strictly separates, and the inside is closed under non-cycle adjacency.
func TestClassifyCyclePartitionProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 4 + int(sz)%40
		g, emb, err := buildRandomEmbedded(seed, n)
		if err != nil {
			return false
		}
		// The triangle 0-1-2 is always a cycle of these graphs.
		e01, _ := g.EdgeID(0, 1)
		e12, _ := g.EdgeID(1, 2)
		e20, _ := g.EdgeID(2, 0)
		outer := emb.OuterFaceOf(DartFrom(g, e01, 1))
		cc, err := emb.ClassifyCycle([]int{e01, e12, e20}, outer)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if cc.OnCycle[v] && cc.InsideVertex[v] {
				return false
			}
		}
		// All non-triangle vertices are inside (they were stacked inside).
		for v := 3; v < n; v++ {
			if !cc.InsideVertex[v] {
				return false
			}
		}
		// Inside closed under adjacency avoiding the cycle.
		for _, e := range g.Edges() {
			if cc.InsideVertex[e.U] && !cc.OnCycle[e.V] && !cc.InsideVertex[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
