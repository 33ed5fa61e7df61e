package dfs

import (
	"math"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
)

func TestPartialTreeBasics(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 4)
	pt := NewPartialTree(5, 0)
	if !pt.Has(0) || pt.Has(1) || pt.Added() != 1 || pt.Complete() {
		t.Fatal("initial state wrong")
	}
	if err := pt.AttachPath(g, 0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if pt.Depth[2] != 2 || pt.Parent[2] != 1 || pt.Parent[1] != 0 {
		t.Fatal("attach wrong")
	}
	if err := pt.AttachPath(g, 2, []int{3, 4}); err != nil {
		t.Fatal(err)
	}
	if !pt.Complete() {
		t.Fatal("should be complete")
	}
	// Error cases.
	if err := pt.AttachPath(g, 0, []int{1}); err == nil {
		t.Fatal("re-adding accepted")
	}
	pt2 := NewPartialTree(5, 0)
	if err := pt2.AttachPath(g, 0, []int{2}); err == nil {
		t.Fatal("non-edge step accepted")
	}
	if err := pt2.AttachPath(g, 3, []int{4}); err == nil {
		t.Fatal("absent anchor accepted")
	}
}

func TestDeepestNeighborIn(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(2, 4)
	g.MustAddEdge(3, 4)
	pt := NewPartialTree(5, 0)
	if err := pt.AttachPath(g, 0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Candidates 3, 4: 4 is adjacent to 2 (depth 2), 3 adjacent to 0
	// (depth 0) -> pick 4 anchored at 2.
	v, a := pt.DeepestNeighborIn(g, []int{3, 4})
	if v != 4 || a != 2 {
		t.Fatalf("got (%d,%d), want (4,2)", v, a)
	}
	v, a = pt.DeepestNeighborIn(g, []int{})
	if v != -1 || a != -1 {
		t.Fatal("empty candidates should give -1")
	}
}

func TestIsDFSTreeDetectsCrossEdge(t *testing.T) {
	// Square 0-1-2-3: BFS tree from 0 has a cross edge.
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 0)
	if err := IsDFSTree(g, 0, []int{-1, 0, 1, 2}); err != nil {
		t.Fatalf("valid DFS tree rejected: %v", err)
	}
	if err := IsDFSTree(g, 0, []int{-1, 0, 1, 0}); err == nil {
		t.Fatal("BFS tree accepted as DFS tree")
	}
	if err := IsDFSTree(g, 0, []int{-1, 0, 1}); err == nil {
		t.Fatal("short parent array accepted")
	}
	if err := IsDFSTree(g, 0, []int{0, 0, 1, 2}); err == nil {
		t.Fatal("rooted parent array with root parent accepted")
	}
	if err := IsDFSTree(g, 0, []int{-1, 2, 1, 2}); err == nil {
		t.Fatal("cycle accepted")
	}
}

func buildOn(t *testing.T, in *gen.Instance) (*PartialTree, *Trace) {
	t.Helper()
	root := in.Emb.FaceRoot(in.OuterDart)
	pt, tr, err := Build(in.G, in.Emb, in.OuterDart, root)
	if err != nil {
		t.Fatalf("%s: %v", in.Name, err)
	}
	return pt, tr
}

// TestBuildProducesDFSTrees is the Theorem 2 validation across families.
func TestBuildProducesDFSTrees(t *testing.T) {
	var instances []*gen.Instance
	add := func(in *gen.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, in)
	}
	add(gen.Grid(6, 6))
	add(gen.Grid(12, 3))
	add(gen.Wheel(13))
	add(gen.Fan(14))
	add(gen.Cycle(15))
	for seed := int64(1); seed <= 8; seed++ {
		add(gen.StackedTriangulation(40, seed))
		add(gen.PolygonTriangulation(26, seed))
		add(gen.SparsePlanar(34, 0.6, seed))
		add(gen.RandomTree(30, seed))
	}
	for _, in := range instances {
		pt, tr := buildOn(t, in)
		if !pt.Complete() {
			t.Fatalf("%s: incomplete", in.Name)
		}
		// Build already verifies IsDFSTree; double check phase bound.
		n := in.G.N()
		bound := int(math.Ceil(math.Log(float64(n))/math.Log(1.5))) + 3
		if tr.Phases > bound {
			t.Errorf("%s: %d phases for n=%d (bound %d)", in.Name, tr.Phases, n, bound)
		}
	}
}

// TestComponentShrink is the E9 property: the largest remaining component
// shrinks geometrically across phases.
func TestComponentShrink(t *testing.T) {
	in, err := gen.StackedTriangulation(200, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, tr := buildOn(t, in)
	for i := 1; i < len(tr.MaxComponent); i++ {
		// After a phase the max component must have shrunk by >= 1/3 of the
		// phase's max component (separator guarantee), with slack for the
		// extra nodes joins absorb.
		if 3*tr.MaxComponent[i] > 2*tr.MaxComponent[i-1]+2 {
			t.Fatalf("phase %d: max component %d -> %d (no 2/3 shrink)",
				i, tr.MaxComponent[i-1], tr.MaxComponent[i])
		}
	}
}

// TestJoinHalving is the E7 property: within a single JOIN, the number of
// missing separator vertices decreases every sub-phase.
func TestJoinHalving(t *testing.T) {
	in, err := gen.Grid(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	g := in.G
	pt := NewPartialTree(g.N(), 0)
	comp := make([]int, 0, g.N()-1)
	for v := 1; v < g.N(); v++ {
		comp = append(comp, v)
	}
	// A synthetic separator: the middle row.
	var sep []int
	for x := 0; x < 10; x++ {
		sep = append(sep, 5*10+x)
	}
	st, err := JoinSeparator(g, pt, comp, sep)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(st.Remaining); i++ {
		if st.Remaining[i] >= st.Remaining[i-1] {
			t.Fatalf("no progress in sub-phase %d: %v", i, st.Remaining)
		}
	}
	for _, v := range sep {
		if !pt.Has(v) {
			t.Fatalf("separator vertex %d not joined", v)
		}
	}
}

func TestJoinErrors(t *testing.T) {
	in, err := gen.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPartialTree(9, 0)
	if _, err := JoinSeparator(in.G, pt, []int{1, 2}, []int{5}); err == nil {
		t.Fatal("separator outside component accepted")
	}
	if _, err := JoinSeparator(in.G, pt, []int{0}, nil); err == nil {
		t.Fatal("already-added component vertex accepted")
	}
}

func TestBuildDisconnected(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	if _, _, err := Build(g, nil, 0, 0); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestAsSpanningTree(t *testing.T) {
	in, err := gen.Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	root := in.Emb.FaceRoot(in.OuterDart)
	pt, _, err := Build(in.G, in.Emb, in.OuterDart, root)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pt.AsSpanningTree()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < in.G.N(); v++ {
		if tr.Depth[v] != pt.Depth[v] {
			t.Fatalf("depth mismatch at %d", v)
		}
	}
	// Incomplete tree is rejected.
	pt2 := NewPartialTree(4, 0)
	if _, err := pt2.AsSpanningTree(); err == nil {
		t.Fatal("incomplete tree accepted")
	}
}
