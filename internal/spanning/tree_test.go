package spanning

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"planardfs/internal/graph"
)

// sampleTree builds the tree
//
//	     0
//	   / | \
//	  1  2  3
//	 / \     \
//	4   5     6
//	        / | \
//	       7  8  9
func sampleTree(t *testing.T) *Tree {
	t.Helper()
	parent := []int{-1, 0, 0, 0, 1, 1, 3, 6, 6, 6}
	tr, err := NewFromParents(0, parent)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewFromParentsValidation(t *testing.T) {
	if _, err := NewFromParents(5, []int{-1, 0}); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	if _, err := NewFromParents(0, []int{3, 0}); err == nil {
		t.Fatal("root with parent accepted")
	}
	if _, err := NewFromParents(0, []int{-1, 1}); err == nil {
		t.Fatal("self-parent accepted")
	}
	if _, err := NewFromParents(0, []int{-1, 2, 1}); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestDepthsAndSizes(t *testing.T) {
	tr := sampleTree(t)
	wantDepth := []int{0, 1, 1, 1, 2, 2, 2, 3, 3, 3}
	wantSize := []int{10, 3, 1, 5, 1, 1, 4, 1, 1, 1}
	for v := range wantDepth {
		if tr.Depth[v] != wantDepth[v] {
			t.Errorf("Depth[%d] = %d, want %d", v, tr.Depth[v], wantDepth[v])
		}
		if tr.SubtreeSize(v) != wantSize[v] {
			t.Errorf("Size[%d] = %d, want %d", v, tr.SubtreeSize(v), wantSize[v])
		}
	}
	if tr.MaxDepth() != 3 {
		t.Errorf("MaxDepth = %d", tr.MaxDepth())
	}
}

func TestIsAncestor(t *testing.T) {
	tr := sampleTree(t)
	cases := []struct {
		a, v int
		want bool
	}{
		{0, 9, true}, {3, 7, true}, {6, 6, true}, {1, 6, false},
		{7, 6, false}, {4, 5, false}, {0, 0, true},
	}
	for _, c := range cases {
		if got := tr.IsAncestor(c.a, c.v); got != c.want {
			t.Errorf("IsAncestor(%d,%d) = %v, want %v", c.a, c.v, got, c.want)
		}
	}
}

func TestLCAAndPaths(t *testing.T) {
	tr := sampleTree(t)
	cases := []struct{ u, v, w int }{
		{4, 5, 1}, {4, 9, 0}, {7, 9, 6}, {6, 9, 6}, {2, 2, 2}, {0, 8, 0},
	}
	for _, c := range cases {
		if got := tr.LCA(c.u, c.v); got != c.w {
			t.Errorf("LCA(%d,%d) = %d, want %d", c.u, c.v, got, c.w)
		}
	}
	path := tr.TPath(4, 9)
	want := []int{4, 1, 0, 3, 6, 9}
	if len(path) != len(want) {
		t.Fatalf("TPath(4,9) = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("TPath(4,9) = %v, want %v", path, want)
		}
	}
}

func TestAncestorAndFirstOnPath(t *testing.T) {
	tr := sampleTree(t)
	if tr.Ancestor(9, 1) != 6 || tr.Ancestor(9, 2) != 3 || tr.Ancestor(9, 3) != 0 {
		t.Fatal("Ancestor chain wrong")
	}
	if tr.Ancestor(9, 99) != 0 {
		t.Fatal("deep Ancestor should clamp to root")
	}
	if tr.MustFirstOnPath(0, 9) != 3 {
		t.Fatal("FirstOnPath descending wrong")
	}
	if tr.MustFirstOnPath(4, 9) != 1 {
		t.Fatal("FirstOnPath ascending wrong")
	}
	if tr.MustFirstOnPath(3, 9) != 6 {
		t.Fatal("FirstOnPath descend one wrong")
	}
}

// TestLiftingConcurrentFirstUse makes the first LCA and Ancestor calls of
// a tree from several goroutines at once, as concurrent queries on a
// cached tree do; under -race it fails if the lifting table is filled
// unsynchronized. Every goroutine must get the answers of a tree whose
// table is already built, and later calls must not allocate.
func TestLiftingConcurrentFirstUse(t *testing.T) {
	want := sampleTree(t)
	wantLCA, wantUp := want.LCA(7, 5), want.Ancestor(9, 2)
	tr := sampleTree(t)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < cap(errs); i++ {
		wg.Add(1)
		go func(first bool) {
			defer wg.Done()
			// Half the goroutines reach the table through Ancestor first.
			if first {
				if got := tr.Ancestor(9, 2); got != wantUp {
					errs <- "Ancestor"
				}
			}
			if got := tr.LCA(7, 5); got != wantLCA {
				errs <- "LCA"
			}
			if got := tr.Ancestor(9, 2); got != wantUp {
				errs <- "Ancestor"
			}
		}(i%2 == 0)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent %s disagrees with a sequential tree", e)
	}
	if a := testing.AllocsPerRun(100, func() { tr.LCA(7, 5); tr.Ancestor(9, 2) }); a != 0 {
		t.Errorf("LCA and Ancestor allocate %.1f times per call pair", a)
	}
}

func TestReRoot(t *testing.T) {
	tr := sampleTree(t)
	rr, err := tr.ReRoot(6)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Root != 6 || rr.Parent[6] != -1 {
		t.Fatal("new root wrong")
	}
	// Edge set is preserved.
	if len(rr.Edges()) != len(tr.Edges()) {
		t.Fatal("edge count changed")
	}
	orig := map[graph.Edge]bool{}
	for _, e := range tr.Edges() {
		orig[e.Normalize()] = true
	}
	for _, e := range rr.Edges() {
		if !orig[e.Normalize()] {
			t.Fatalf("edge %v not in original tree", e)
		}
	}
	// Depth in the re-rooted tree equals tree distance from 6.
	if rr.Depth[0] != 2 || rr.Depth[9] != 1 || rr.Depth[4] != 4 {
		t.Fatalf("depths after reroot: %v", rr.Depth)
	}
}

func TestCentroid(t *testing.T) {
	// Star: centroid is the hub.
	parent := []int{-1, 0, 0, 0, 0, 0}
	tr, err := NewFromParents(0, parent)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Centroid() != 0 {
		t.Fatal("star centroid should be hub")
	}
	// Path: centroid is the middle.
	parent = []int{-1, 0, 1, 2, 3, 4, 5}
	tr, _ = NewFromParents(0, parent)
	c := tr.Centroid()
	if c != 3 && c != 2 {
		t.Fatalf("path centroid = %d", c)
	}
}

// Property: removing the centroid leaves components of size <= n/2.
func TestCentroidProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 1 + int(sz)%60
		rng := rand.New(rand.NewSource(seed))
		parent := make([]int, n)
		parent[0] = -1
		g := graph.New(n)
		for v := 1; v < n; v++ {
			parent[v] = rng.Intn(v)
			g.MustAddEdge(v, parent[v])
		}
		tr, err := NewFromParents(0, parent)
		if err != nil {
			return false
		}
		c := tr.Centroid()
		removed := make([]bool, n)
		removed[c] = true
		for _, comp := range g.ComponentsAvoidingMask(removed) {
			if 2*len(comp) > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSAndDeepDFSTrees(t *testing.T) {
	// Cycle of 8: BFS tree has depth 4; deep DFS tree has depth 7.
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		g.MustAddEdge(i, (i+1)%8)
	}
	bt, err := BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bt.MaxDepth() != 4 {
		t.Fatalf("BFS depth = %d", bt.MaxDepth())
	}
	dt, err := DeepDFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dt.MaxDepth() != 7 {
		t.Fatalf("DFS depth = %d", dt.MaxDepth())
	}
	// Disconnected graphs are rejected.
	dg := graph.New(3)
	dg.MustAddEdge(0, 1)
	if _, err := BFSTree(dg, 0); err == nil {
		t.Fatal("BFSTree on disconnected graph accepted")
	}
	if _, err := DeepDFSTree(dg, 0); err == nil {
		t.Fatal("DeepDFSTree on disconnected graph accepted")
	}
}

// dfsOrdersOf runs DFSOrders on a [][]int child order, laid out in the
// CSR form DFSOrders reads.
func dfsOrdersOf(tr *Tree, childOrder [][]int) (piL, piR []int) {
	off := make([]int32, len(childOrder)+1)
	var children []int32
	for v, cs := range childOrder {
		for _, c := range cs {
			children = append(children, int32(c))
		}
		off[v+1] = int32(len(children))
	}
	piL, piR = make([]int, tr.N()), make([]int, tr.N())
	DFSOrders(tr, off, children, piL, piR)
	return piL, piR
}

// walkOrder is the reference DFSOrders is held to: the preorder that
// visits each vertex's children in the given order (reversed if rev), by
// a walk of its own for each order.
func walkOrder(tr *Tree, childOrder [][]int, rev bool) []int {
	pi := make([]int, tr.N())
	timer := 0
	var visit func(v int)
	visit = func(v int) {
		pi[v] = timer
		timer++
		cs := childOrder[v]
		for i := range cs {
			if rev {
				visit(cs[len(cs)-1-i])
			} else {
				visit(cs[i])
			}
		}
	}
	visit(tr.Root)
	return pi
}

func TestDFSOrdersSample(t *testing.T) {
	tr := sampleTree(t)
	// Clockwise child order = ascending ids here.
	childOrder := make([][]int, tr.N())
	for v := 0; v < tr.N(); v++ {
		childOrder[v] = childrenInts(tr, v)
	}
	piL, piR := dfsOrdersOf(tr, childOrder)
	// RIGHT order: 0,1,4,5,2,3,6,7,8,9.
	wantR := []int{0, 1, 4, 5, 2, 3, 6, 7, 8, 9}
	for i, v := range wantR {
		if piR[v] != i {
			t.Fatalf("piR = %v (piR[%d]=%d, want %d)", piR, v, piR[v], i)
		}
	}
	// LEFT order visits children in reverse: 0,3,6,9,8,7,2,1,5,4.
	wantL := []int{0, 3, 6, 9, 8, 7, 2, 1, 5, 4}
	for i, v := range wantL {
		if piL[v] != i {
			t.Fatalf("piL = %v (piL[%d]=%d, want %d)", piL, v, piL[v], i)
		}
	}
}

// Property: DFSOrders equals one preorder walk per order, and in both
// orders every subtree occupies a contiguous interval of positions
// starting at its root.
func TestDFSOrderSubtreeIntervalsProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 1 + int(sz)%80
		rng := rand.New(rand.NewSource(seed))
		parent := make([]int, n)
		parent[0] = -1
		for v := 1; v < n; v++ {
			parent[v] = rng.Intn(v)
		}
		tr, err := NewFromParents(0, parent)
		if err != nil {
			return false
		}
		childOrder := make([][]int, n)
		for v := 0; v < n; v++ {
			cs := childrenInts(tr, v)
			rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
			childOrder[v] = cs
		}
		piL, piR := dfsOrdersOf(tr, childOrder)
		if !slices.Equal(piL, walkOrder(tr, childOrder, true)) || !slices.Equal(piR, walkOrder(tr, childOrder, false)) {
			return false
		}
		for _, pi := range [][]int{piL, piR} {
			for v := 0; v < n; v++ {
				for z := 0; z < n; z++ {
					in := pi[v] <= pi[z] && pi[z] <= pi[v]+tr.SubtreeSize(v)-1
					if in != tr.IsAncestor(v, z) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: LEFT and RIGHT orders are reverses of each other on the
// children of every vertex: among siblings, ascending piR means descending
// piL.
func TestDFSOrderSiblingSymmetry(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 2 + int(sz)%60
		rng := rand.New(rand.NewSource(seed))
		parent := make([]int, n)
		parent[0] = -1
		for v := 1; v < n; v++ {
			parent[v] = rng.Intn(v)
		}
		tr, _ := NewFromParents(0, parent)
		childOrder := make([][]int, n)
		for v := 0; v < n; v++ {
			childOrder[v] = childrenInts(tr, v)
		}
		piL, piR := dfsOrdersOf(tr, childOrder)
		for v := 0; v < n; v++ {
			cs := childOrder[v]
			for i := 0; i+1 < len(cs); i++ {
				if (piR[cs[i]] < piR[cs[i+1]]) != (piL[cs[i]] > piL[cs[i+1]]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPathUpNonAncestorErrors(t *testing.T) {
	tr := sampleTree(t)
	if _, err := tr.PathUp(4, 3); err == nil {
		t.Fatal("PathUp with non-ancestor should return an error")
	}
}

// Property: LCA matches the naive parent-walk implementation.
func TestLCAMatchesNaive(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 2 + int(sz)%120
		rng := rand.New(rand.NewSource(seed))
		parent := make([]int, n)
		parent[0] = -1
		for v := 1; v < n; v++ {
			parent[v] = rng.Intn(v)
		}
		tr, err := NewFromParents(0, parent)
		if err != nil {
			return false
		}
		naive := func(u, v int) int {
			seen := map[int]bool{}
			for x := u; x != -1; x = parent[x] {
				seen[x] = true
			}
			for x := v; ; x = parent[x] {
				if seen[x] {
					return x
				}
			}
		}
		for trial := 0; trial < 30; trial++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if tr.LCA(u, v) != naive(u, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: TPath starts and ends at its arguments, is a tree walk, and has
// length depth(u)+depth(v)-2*depth(LCA)+1.
func TestTPathShapeProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 2 + int(sz)%100
		rng := rand.New(rand.NewSource(seed))
		parent := make([]int, n)
		parent[0] = -1
		for v := 1; v < n; v++ {
			parent[v] = rng.Intn(v)
		}
		tr, _ := NewFromParents(0, parent)
		for trial := 0; trial < 20; trial++ {
			u, v := rng.Intn(n), rng.Intn(n)
			p := tr.TPath(u, v)
			if p[0] != u || p[len(p)-1] != v {
				return false
			}
			w := tr.LCA(u, v)
			if len(p) != tr.Depth[u]+tr.Depth[v]-2*tr.Depth[w]+1 {
				return false
			}
			for i := 0; i+1 < len(p); i++ {
				a, b := p[i], p[i+1]
				if parent[a] != b && parent[b] != a {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// childrenInts copies tr.Children(v) into a fresh []int for test helpers
// that shuffle or store child lists.
func childrenInts(tr *Tree, v int) []int {
	cs := tr.Children(v)
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = int(c)
	}
	return out
}
