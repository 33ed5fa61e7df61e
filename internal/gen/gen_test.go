package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"planardfs/internal/graph"
	"planardfs/internal/planar"
)

// checkInstance validates the invariants every generator must provide:
// connected graph, genus-0 embedding, valid outer dart.
func checkInstance(t *testing.T, in *Instance, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%v", err)
	}
	if !in.G.Connected() {
		t.Fatalf("%s: not connected", in.Name)
	}
	if err := in.Emb.Validate(); err != nil {
		t.Fatalf("%s: %v", in.Name, err)
	}
	if in.G.M() > 0 {
		if in.OuterDart < 0 || in.OuterDart >= 2*in.G.M() {
			t.Fatalf("%s: outer dart %d out of range", in.Name, in.OuterDart)
		}
	}
}

func TestGridInvariants(t *testing.T) {
	for _, wh := range [][2]int{{2, 2}, {3, 3}, {4, 7}, {10, 2}} {
		in, err := Grid(wh[0], wh[1])
		checkInstance(t, in, err)
		w, h := wh[0], wh[1]
		if in.G.N() != w*h {
			t.Fatalf("grid %v: n=%d", wh, in.G.N())
		}
		if in.G.M() != w*(h-1)+h*(w-1) {
			t.Fatalf("grid %v: m=%d", wh, in.G.M())
		}
		// Outer face boundary has 2(w-1)+2(h-1) darts; inner faces have 4.
		fs := in.Emb.TraceFaces()
		outer := in.OuterFace()
		wantOuter := 2*(w-1) + 2*(h-1)
		if got := fs.CycleLen(outer); got != wantOuter {
			t.Fatalf("grid %v: outer face length %d, want %d", wh, got, wantOuter)
		}
		for f := 0; f < fs.Count(); f++ {
			if f != outer && fs.CycleLen(f) != 4 {
				t.Fatalf("grid %v: inner face of length %d", wh, fs.CycleLen(f))
			}
		}
	}
	if _, err := Grid(1, 5); err == nil {
		t.Fatal("Grid(1,5) accepted")
	}
}

func TestCycleInvariants(t *testing.T) {
	for _, n := range []int{3, 4, 9} {
		in, err := Cycle(n)
		checkInstance(t, in, err)
		fs := in.Emb.TraceFaces()
		if fs.Count() != 2 {
			t.Fatalf("cycle-%d: %d faces", n, fs.Count())
		}
		if fs.CycleLen(in.OuterFace()) != n {
			t.Fatalf("cycle-%d: outer face length %d", n, fs.CycleLen(in.OuterFace()))
		}
	}
	if _, err := Cycle(2); err == nil {
		t.Fatal("Cycle(2) accepted")
	}
}

func TestWheelInvariants(t *testing.T) {
	for _, n := range []int{3, 5, 12} {
		in, err := Wheel(n)
		checkInstance(t, in, err)
		if in.G.N() != n+1 || in.G.M() != 2*n {
			t.Fatalf("wheel-%d: n=%d m=%d", n, in.G.N(), in.G.M())
		}
		fs := in.Emb.TraceFaces()
		if fs.Count() != n+1 {
			t.Fatalf("wheel-%d: faces=%d, want %d", n, fs.Count(), n+1)
		}
		if fs.CycleLen(in.OuterFace()) != n {
			t.Fatalf("wheel-%d: outer length %d", n, fs.CycleLen(in.OuterFace()))
		}
	}
}

func TestFanInvariants(t *testing.T) {
	for _, n := range []int{4, 7, 20} {
		in, err := Fan(n)
		checkInstance(t, in, err)
		if in.G.N() != n || in.G.M() != 2*(n-1)-1 {
			t.Fatalf("fan-%d: n=%d m=%d", n, in.G.N(), in.G.M())
		}
		// All inner faces triangles; outer face length n (arc + two spokes).
		fs := in.Emb.TraceFaces()
		outer := in.OuterFace()
		for f := 0; f < fs.Count(); f++ {
			if f != outer && fs.CycleLen(f) != 3 {
				t.Fatalf("fan-%d: inner face of length %d", n, fs.CycleLen(f))
			}
		}
		if fs.CycleLen(outer) != n {
			t.Fatalf("fan-%d: outer face length %d, want %d", n, fs.CycleLen(outer), n)
		}
	}
}

func TestStackedTriangulation(t *testing.T) {
	for _, n := range []int{3, 4, 10, 100} {
		in, err := StackedTriangulation(n, 42)
		checkInstance(t, in, err)
		if in.G.N() != n {
			t.Fatalf("n=%d", in.G.N())
		}
		// Maximal planar: m = 3n - 6.
		if in.G.M() != 3*n-6 {
			t.Fatalf("stacked-%d: m=%d, want %d", n, in.G.M(), 3*n-6)
		}
		// Every face is a triangle.
		fs := in.Emb.TraceFaces()
		for f := 0; f < fs.Count(); f++ {
			if fs.CycleLen(f) != 3 {
				t.Fatalf("stacked-%d: face of length %d", n, fs.CycleLen(f))
			}
		}
		// Outer face must be the initial triangle {0,1,2}.
		vs := fs.FaceVertices(in.OuterFace())
		sum := vs[0] + vs[1] + vs[2]
		if sum != 3 {
			t.Fatalf("stacked-%d: outer face vertices %v, want {0,1,2}", n, vs)
		}
	}
}

func TestStackedTriangulationDeterministic(t *testing.T) {
	a, _ := StackedTriangulation(50, 7)
	b, _ := StackedTriangulation(50, 7)
	if a.G.M() != b.G.M() {
		t.Fatal("same seed produced different graphs")
	}
	for e := 0; e < a.G.M(); e++ {
		if a.G.EdgeByID(e) != b.G.EdgeByID(e) {
			t.Fatal("same seed produced different edge lists")
		}
	}
	c, _ := StackedTriangulation(50, 8)
	same := c.G.M() == a.G.M()
	if same {
		for e := 0; e < a.G.M(); e++ {
			if a.G.EdgeByID(e) != c.G.EdgeByID(e) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
}

// TestGenerationAllocsBounded gates the generation path of the stacked
// builder: the dart arena is sized up front, so growing the triangulation
// to n vertices costs a constant number of allocations (the arena arrays
// plus the builder struct), not ~2 per inserted vertex.
func TestGenerationAllocsBounded(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(5))
	allocs := testing.AllocsPerRun(10, func() {
		tb := newTriBuilder(n)
		for tb.n < n {
			tb.stack(rng.Intn(len(tb.faces)))
		}
		if tb.n != n || len(tb.faces) != 2*n-5 {
			t.Fatalf("built %d vertices, %d faces", tb.n, len(tb.faces))
		}
	})
	if allocs > 8 {
		t.Fatalf("generation allocates %.1f allocs/run, want a constant <= 8", allocs)
	}
}

func TestSparsePlanar(t *testing.T) {
	for _, p := range []float64{0, 0.3, 0.8, 1} {
		in, err := SparsePlanar(60, p, 3)
		checkInstance(t, in, err)
		if p == 0 && in.G.M() != 3*60-6 {
			t.Fatalf("dropProb 0 must keep all edges, m=%d", in.G.M())
		}
		if p == 1 && in.G.M() >= 3*60-6 {
			t.Fatal("dropProb 1 should remove non-tree edges")
		}
		if in.G.M() < in.G.N()-1 {
			t.Fatal("fewer edges than spanning tree")
		}
	}
	if _, err := SparsePlanar(10, 1.5, 0); err == nil {
		t.Fatal("dropProb out of range accepted")
	}
}

func TestPolygonTriangulation(t *testing.T) {
	for _, n := range []int{3, 4, 5, 30} {
		in, err := PolygonTriangulation(n, 5)
		checkInstance(t, in, err)
		if in.G.M() != n+(n-3) {
			t.Fatalf("polygon-%d: m=%d, want %d", n, in.G.M(), 2*n-3)
		}
		fs := in.Emb.TraceFaces()
		outer := in.OuterFace()
		if fs.CycleLen(outer) != n {
			t.Fatalf("polygon-%d: outer length %d", n, fs.CycleLen(outer))
		}
		for f := 0; f < fs.Count(); f++ {
			if f != outer && fs.CycleLen(f) != 3 {
				t.Fatalf("polygon-%d: inner face length %d", n, fs.CycleLen(f))
			}
		}
	}
}

func TestTreeGenerators(t *testing.T) {
	in, err := RandomTree(40, 11)
	checkInstance(t, in, err)
	if in.G.M() != 39 {
		t.Fatalf("tree edges = %d", in.G.M())
	}
	in, err = PathTree(25)
	checkInstance(t, in, err)
	if in.G.Diameter() != 24 {
		t.Fatal("path diameter wrong")
	}
	in, err = Caterpillar(30)
	checkInstance(t, in, err)
	if in.G.M() != 29 {
		t.Fatal("caterpillar edges wrong")
	}
	if _, err := RandomTree(0, 1); err == nil {
		t.Fatal("RandomTree(0) accepted")
	}
	one, err := PathTree(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := one.Emb.Validate(); err != nil {
		t.Fatalf("single-vertex embedding invalid: %v", err)
	}
}

// Property: stacked triangulations are valid planar embeddings for any
// seed and size.
func TestStackedTriangulationProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz)%120
		in, err := StackedTriangulation(n, seed)
		if err != nil {
			return false
		}
		return in.G.Connected() && in.Emb.Validate() == nil && in.G.M() == 3*n-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the designated outer face of a sparse planar graph always
// contains the darts of the initial triangle boundary.
func TestSparsePlanarOuterFaceProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz)%80
		in, err := SparsePlanar(n, 0.5, seed)
		if err != nil {
			return false
		}
		id, ok := in.G.EdgeID(0, 1)
		if !ok {
			return false
		}
		return in.OuterFace() == in.Emb.OuterFaceOf(planar.DartFrom(in.G, id, 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRotationKeysDistinct holds embedFromCoords to rotations whose order
// cannot depend on the sort algorithm: a drawing with two neighbours of one
// vertex in the same direction is an error, and no generator that draws
// from coordinates produces one, on any family, size or seed.
func TestRotationKeysDistinct(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	if _, err := embedFromCoords(g, []float64{0, 1, 2}, []float64{0, 0, 0}); err == nil {
		t.Fatal("vertex 0 sees 1 and 2 in one direction, but the drawing was embedded")
	}
	for _, fam := range Families {
		for _, n := range []int{4, 5, 17, 64, 300} {
			for seed := int64(1); seed <= 3; seed++ {
				if _, err := ByName(fam, n, seed); err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", fam, n, seed, err)
				}
			}
		}
	}
}
