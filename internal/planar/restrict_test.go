package planar

import (
	"testing"

	"planardfs/internal/graph"
)

// k4Embedded returns the embedded K4 of TestGenusOfK4Rotations with the
// outer face designated below the bottom edge, by its dart 1->0.
func k4Embedded(t *testing.T) (*graph.Graph, *Embedding, int) {
	t.Helper()
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 3)
	emb, err := FromNeighborOrders(g, [][]int{
		{2, 3, 1},
		{0, 3, 2},
		{1, 3, 0},
		{2, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := g.EdgeID(0, 1)
	return g, emb, DartFrom(g, id, 1)
}

// restrictTo restricts emb to the one part vs around dart, on a fresh
// Restricter.
func restrictTo(emb *Embedding, vs []int, dart int) (*Restriction, error) {
	r := NewRestricter(emb)
	if err := r.Split([][]int{vs}); err != nil {
		return nil, err
	}
	return r.Restrict(0, dart)
}

// restrictOuter restricts emb to vs around the dart OuterRegionDart names
// for the parent outer face, given by its dart outerDart.
func restrictOuter(t *testing.T, emb *Embedding, vs []int, outerDart int) *Restriction {
	t.Helper()
	dart, err := emb.OuterRegionDart(vs, outerDart)
	if err != nil {
		t.Fatal(err)
	}
	res, err := restrictTo(emb, vs, dart)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// subVertex returns the sub-vertex of original vertex v, or -1.
func subVertex(res *Restriction, v int) int {
	for i, o := range res.Orig {
		if o == v {
			return i
		}
	}
	return -1
}

// subDart returns the sub-dart of the restriction running from original
// vertex u to original vertex w.
func subDart(t *testing.T, res *Restriction, u, w int) int {
	t.Helper()
	su, sw := subVertex(res, u), subVertex(res, w)
	id, ok := res.G.EdgeID(su, sw)
	if !ok {
		t.Fatalf("edge {%d,%d} not in the restriction", u, w)
	}
	return DartFrom(res.G, id, su)
}

// parentDart returns the dart of emb running from u to w.
func parentDart(t *testing.T, emb *Embedding, u, w int) int {
	t.Helper()
	id, ok := emb.Graph().EdgeID(u, w)
	if !ok {
		t.Fatalf("edge {%d,%d} not in the graph", u, w)
	}
	return DartFrom(emb.Graph(), id, u)
}

// sameSubFace reports whether two sub-darts lie on the same face of the
// restriction.
func sameSubFace(res *Restriction, a, b int) bool {
	fs := res.Emb.TraceFaces()
	return fs.FaceOf[a] == fs.FaceOf[b]
}

func TestRestrictToTriangle(t *testing.T) {
	_, emb, outer := k4Embedded(t)
	// Restrict away the centre vertex 3.
	res := restrictOuter(t, emb, []int{0, 1, 2}, outer)
	if res.G.N() != 3 || res.G.M() != 3 {
		t.Fatalf("restriction n=%d m=%d", res.G.N(), res.G.M())
	}
	if err := res.Emb.Validate(); err != nil {
		t.Fatal(err)
	}
	// The restricted outer face must be the triangle's outer side (length 3
	// both ways here, but must contain the dart 1->0 whose left side is the
	// parent outer region).
	if !sameSubFace(res, res.OuterDart, subDart(t, res, 1, 0)) {
		t.Fatal("restricted outer face wrong")
	}
}

func TestRestrictToStar(t *testing.T) {
	_, emb, outer := k4Embedded(t)
	// Keep the centre and two corners: a path 0-3-1 (plus edge 0-1).
	res := restrictOuter(t, emb, []int{0, 1, 3}, outer)
	if res.G.M() != 3 {
		t.Fatalf("m=%d", res.G.M())
	}
	if res.OuterDart < 0 {
		t.Fatal("outer dart missing")
	}
	if err := res.Emb.Validate(); err != nil {
		t.Fatal(err)
	}
	if subVertex(res, 2) != -1 {
		t.Fatal("absent vertex mapped into the restriction")
	}
}

func TestRestrictToSingleVertex(t *testing.T) {
	_, emb, outer := k4Embedded(t)
	dart, err := emb.OuterRegionDart([]int{3}, outer)
	if err != nil || dart != -1 {
		t.Fatalf("OuterRegionDart of an edgeless subset = %d, %v; want -1", dart, err)
	}
	res, err := restrictTo(emb, []int{3}, dart)
	if err != nil {
		t.Fatal(err)
	}
	if res.G.N() != 1 || res.G.M() != 0 || res.OuterDart != -1 {
		t.Fatalf("single-vertex restriction wrong: %+v", res)
	}
}

// wheel6 returns the wheel with rim 0..5 and hub 6, with the outer face
// designated outside the rim by its dart 1->0.
func wheel6(t *testing.T) (*Embedding, int) {
	t.Helper()
	g := graph.New(7)
	for i := 0; i < 6; i++ {
		g.MustAddEdge(i, (i+1)%6)
		g.MustAddEdge(i, 6)
	}
	orders := make([][]int, 7)
	for i := 0; i < 6; i++ {
		orders[i] = []int{(i + 5) % 6, 6, (i + 1) % 6}
	}
	// Hub sees rim counterclockwise when rim is ccw: clockwise is reverse.
	orders[6] = []int{5, 4, 3, 2, 1, 0}
	emb, err := FromNeighborOrders(g, orders)
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Validate(); err != nil {
		t.Fatal(err)
	}
	id, _ := g.EdgeID(0, 1)
	return emb, DartFrom(g, id, 1)
}

func TestRestrictToInnerRegion(t *testing.T) {
	// Restricting the wheel to the hub and part of the rim must still find
	// an outer dart.
	emb, outer := wheel6(t)
	res := restrictOuter(t, emb, []int{6, 0, 1, 2}, outer)
	if err := res.Emb.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.OuterDart < 0 {
		t.Fatal("no outer dart")
	}
	// The restriction is outerplanar here: its outer face touches every
	// vertex.
	fs := res.Emb.TraceFaces()
	of := int(fs.FaceOf[res.OuterDart])
	seen := map[int]bool{}
	for _, v := range fs.FaceVertices(of) {
		seen[v] = true
	}
	if len(seen) != res.G.N() {
		t.Fatalf("outer face touches %d of %d vertices", len(seen), res.G.N())
	}
}

// The corner rule: a named dart whose edge the restriction drops hands
// over to the first kept dart clockwise after it, skipping every absent
// dart on the way.
func TestRestrictToSkipsAbsentDartsClockwise(t *testing.T) {
	emb, outer := wheel6(t)
	vs := []int{6, 0, 1, 2}
	// The hub's clockwise rotation is 5, 4, 3, 2, 1, 0: from 6->5 the
	// darts 6->5, 6->4 and 6->3 are absent and 6->2 is the first kept one.
	res, err := restrictTo(emb, vs, parentDart(t, emb, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	if want := subDart(t, res, 6, 2); res.OuterDart != want {
		t.Fatalf("OuterDart = %d, want the sub-dart 6->2 = %d", res.OuterDart, want)
	}
	// The face of 6->5 touches the dropped rim, so it lies in the outer
	// region: the union–find over all parent faces agrees.
	ref := restrictOuter(t, emb, vs, outer)
	if !sameSubFace(res, res.OuterDart, ref.OuterDart) {
		t.Fatal("corner rule and union–find chose different outer faces")
	}
}

// The rule turns clockwise, not counterclockwise: at corner 0 of K4 the
// dropped dart 0->3 sits between 0->2 (on the outer face) and 0->1 (on an
// inner face that absorbs 3's faces).
func TestRestrictToCornerIsClockwise(t *testing.T) {
	_, emb, _ := k4Embedded(t)
	res, err := restrictTo(emb, []int{0, 1, 2}, parentDart(t, emb, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if want := subDart(t, res, 0, 1); res.OuterDart != want {
		t.Fatalf("OuterDart = %d, want the sub-dart 0->1 = %d", res.OuterDart, want)
	}
	if sameSubFace(res, res.OuterDart, subDart(t, res, 1, 0)) {
		t.Fatal("the face of 0->3 was placed on the parent outer side")
	}
}

// A named dart that the restriction keeps is its own sub-dart.
func TestRestrictToKeptDart(t *testing.T) {
	_, emb, _ := k4Embedded(t)
	res, err := restrictTo(emb, []int{0, 1, 2}, parentDart(t, emb, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if want := subDart(t, res, 1, 0); res.OuterDart != want {
		t.Fatalf("OuterDart = %d, want the sub-dart 1->0 = %d", res.OuterDart, want)
	}
}

func TestRestrictToDartErrors(t *testing.T) {
	_, emb, _ := k4Embedded(t)
	if _, err := restrictTo(emb, []int{0, 1, 2}, parentDart(t, emb, 3, 0)); err == nil {
		t.Fatal("dart with its tail outside the subset accepted")
	}
	if _, err := restrictTo(emb, []int{0, 1, 2}, -1); err == nil {
		t.Fatal("negative dart accepted")
	}
	if _, err := restrictTo(emb, []int{0, 1, 2}, 2*emb.Graph().M()); err == nil {
		t.Fatal("out-of-range dart accepted")
	}
	// In the wheel, rim vertex 3 is kept but has no kept edge.
	wemb, _ := wheel6(t)
	if _, err := restrictTo(wemb, []int{0, 1, 3}, parentDart(t, wemb, 3, 6)); err == nil {
		t.Fatal("dart at a vertex without kept edges accepted")
	}
}
