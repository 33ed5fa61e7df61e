package dfs

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/spanning"
)

func TestPartialTreeBasics(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 4)
	pt := NewPartialTree(5, 0)
	if !pt.Has(0) || pt.Has(1) || pt.added != 1 || pt.Complete() {
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
	// (depth 0) -> anchor 2.
	if a := pt.DeepestNeighborIn(g, []int{3, 4}); a != 2 {
		t.Fatalf("got anchor %d, want 2", a)
	}
	if a := pt.DeepestNeighborIn(g, []int{}); a != -1 {
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

// checkHalving asserts Lemma 2's bound on one JOIN of a separator path of
// sepLen vertices: every sub-phase leaves at most ⌊(r−1)/2⌋ of the r
// separator vertices still missing before it, so the join takes at most
// ⌈log₂(sepLen+1)⌉ sub-phases.
func checkHalving(t *testing.T, name string, st *JoinStats, sepLen int) {
	t.Helper()
	for i := 1; i < len(st.Remaining); i++ {
		if st.Remaining[i] > (st.Remaining[i-1]-1)/2 {
			t.Fatalf("%s: sub-phase %d left %d of %d separator vertices, want at most %d: %v",
				name, i, st.Remaining[i], st.Remaining[i-1], (st.Remaining[i-1]-1)/2, st.Remaining)
		}
	}
	if bound := bits.Len(uint(sepLen)); st.SubPhases > bound {
		t.Fatalf("%s: %d sub-phases for a separator of %d, want at most ⌈log₂(|S|+1)⌉ = %d: %v",
			name, st.SubPhases, sepLen, bound, st.Remaining)
	}
}

// gridSnake returns the snake through rows y0..y1 of a grid of width w,
// row by row in alternating direction: consecutive rows are joined by
// separator–separator chords at every column.
func gridSnake(w, y0, y1 int) []int {
	var sep []int
	for y := y0; y <= y1; y++ {
		for i := 0; i < w; i++ {
			x := i
			if (y-y0)%2 == 1 {
				x = w - 1 - i
			}
			sep = append(sep, y*w+x)
		}
	}
	return sep
}

// gridKeyhole returns a path that comes down column cx from the top row
// of a w×h grid, runs round the square of radius r about (cx, cy), and
// goes back up column cx+1: the two stems are joined by chords, and only
// the ring's middle faces the square's inside.
func gridKeyhole(w, h, cx, cy, r int) []int {
	id := func(x, y int) int { return y*w + x }
	var sep []int
	for y := h - 1; y > cy+r; y-- {
		sep = append(sep, id(cx, y))
	}
	for x := cx; x > cx-r; x-- {
		sep = append(sep, id(x, cy+r))
	}
	for y := cy + r; y > cy-r; y-- {
		sep = append(sep, id(cx-r, y))
	}
	for x := cx - r; x < cx+r; x++ {
		sep = append(sep, id(x, cy-r))
	}
	for y := cy - r; y < cy+r; y++ {
		sep = append(sep, id(cx+r, y))
	}
	for x := cx + r; x > cx; x-- {
		sep = append(sep, id(x, cy+r))
	}
	for y := cy + r + 1; y < h; y++ {
		sep = append(sep, id(cx+1, y))
	}
	return sep
}

// TestJoinHalving is the E7 property on separator paths with
// separator–separator chords, the shape that strands vertices under a
// pick of the root path holding the most separator vertices: snakes
// through the rows of a grid rooted in the middle of the bottom row, and
// keyholes rooted inside their ring. Every JOIN must leave at most half of
// the missing run per sub-phase.
func TestJoinHalving(t *testing.T) {
	type joinCase struct {
		name string
		w, h int
		root int
		sep  []int
	}
	var cases []joinCase
	for _, wh := range [][2]int{{10, 10}, {16, 12}, {31, 31}} {
		w, h := wh[0], wh[1]
		cases = append(cases,
			joinCase{fmt.Sprintf("%dx%d snake", w, h), w, h, w / 2, gridSnake(w, 2, h-3)},
			joinCase{fmt.Sprintf("%dx%d keyhole", w, h), w, h, (h/2)*w + w/2, gridKeyhole(w, h, w/2, h/2, 2)})
	}
	multi := 0
	for _, c := range cases {
		in, err := gen.Grid(c.w, c.h)
		if err != nil {
			t.Fatal(err)
		}
		g := in.G
		pt := NewPartialTree(g.N(), c.root)
		comp := make([]int, 0, g.N()-1)
		for v := 0; v < g.N(); v++ {
			if v != c.root {
				comp = append(comp, v)
			}
		}
		st, _, err := joinSeparator(g, pt, comp, c.sep, newJoinScratch(g.N()))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkHalving(t, c.name, st, len(c.sep))
		for _, v := range c.sep {
			if !pt.Has(v) {
				t.Fatalf("%s: separator vertex %d not joined", c.name, v)
			}
		}
		if st.SubPhases > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("every join took one sub-phase; the keyholes no longer exercise the halving")
	}
}

func TestJoinErrors(t *testing.T) {
	in, err := gen.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPartialTree(9, 0)
	if _, _, err := joinSeparator(in.G, pt, []int{1, 2}, []int{5}, newJoinScratch(9)); err == nil {
		t.Fatal("separator outside component accepted")
	}
	if _, _, err := joinSeparator(in.G, pt, []int{0}, nil, newJoinScratch(9)); err == nil {
		t.Fatal("already-added component vertex accepted")
	}
	if _, _, err := joinSeparator(in.G, pt, []int{1, 2}, []int{1, 2, 1}, newJoinScratch(9)); err == nil {
		t.Fatal("separator longer than its component accepted")
	}
}

func TestBuildDisconnected(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	if _, _, err := Build(g, nil, 0, 0); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

// TestAsSpanningTree converts a built DFS tree into a spanning.Tree with the
// same depths; an incomplete partial tree does not convert.
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
	tr, err := spanning.NewFromParents(pt.Root, pt.Parent)
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
	if _, err := spanning.NewFromParents(pt2.Root, pt2.Parent); err == nil {
		t.Fatal("incomplete tree accepted")
	}
}
