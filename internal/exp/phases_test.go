package exp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
)

// randomTreeWithOrder builds a random tree and a shuffled child order.
func randomTreeWithOrder(seed int64, n int) (*spanning.Tree, [][]int) {
	rng := rand.New(rand.NewSource(seed))
	parent := make([]int, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = rng.Intn(v)
	}
	t, err := spanning.NewFromParents(0, parent)
	if err != nil {
		panic(err)
	}
	order := make([][]int, n)
	for v := 0; v < n; v++ {
		cs := make([]int, 0, len(t.Children(v)))
		for _, c := range t.Children(v) {
			cs = append(cs, int(c))
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		order[v] = cs
	}
	return t, order
}

// centralOrders is spanning.DFSOrders over a [][]int child order.
func centralOrders(tree *spanning.Tree, order [][]int) (piL, piR []int) {
	off := make([]int32, len(order)+1)
	var children []int32
	for v, cs := range order {
		for _, c := range cs {
			children = append(children, int32(c))
		}
		off[v+1] = int32(len(children))
	}
	piL, piR = make([]int, tree.N()), make([]int, tree.N())
	spanning.DFSOrders(tree, off, children, piL, piR)
	return piL, piR
}

// TestDFSOrderPhasesMatchCentral is the Lemma 11 validation: the
// fragment merging computes exactly the centralized orders, in
// O(log depth) phases.
func TestDFSOrderPhasesMatchCentral(t *testing.T) {
	f := func(seed int64, sz uint16) bool {
		n := 1 + int(sz)%300
		tree, order := randomTreeWithOrder(seed, n)
		want1, want2 := centralOrders(tree, order)
		res := countDFSOrderPhases(tree, order)
		for v := 0; v < n; v++ {
			if res.PiL[v] != want1[v] || res.PiR[v] != want2[v] {
				return false
			}
		}
		bound := shortcut.Log2Ceil(tree.MaxDepth()+2) + 2
		return res.Phases <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDFSOrderPhasesOnDeepTree: a path tree needs Θ(log n) phases, far
// fewer than its Θ(n) depth.
func TestDFSOrderPhasesOnDeepTree(t *testing.T) {
	n := 1024
	parent := make([]int, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = v - 1
	}
	tree, _ := spanning.NewFromParents(0, parent)
	order := make([][]int, n)
	for v := 0; v < n; v++ {
		for _, c := range tree.Children(v) {
			order[v] = append(order[v], int(c))
		}
	}
	res := countDFSOrderPhases(tree, order)
	if res.Phases < 8 || res.Phases > 14 {
		t.Fatalf("path of 1024: %d phases, want ~log2(1023)", res.Phases)
	}
	for v := 0; v < n; v++ {
		if res.PiL[v] != v {
			t.Fatal("path order wrong")
		}
	}
}

// TestMarkPathPhasesMarkTPath validates Lemma 13: the marking equals the
// T-path, with O(log path) phases of O(log depth) iterations.
func TestMarkPathPhasesMarkTPath(t *testing.T) {
	f := func(seed int64, sz uint16) bool {
		n := 2 + int(sz)%300
		tree, _ := randomTreeWithOrder(seed, n)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		u, v := rng.Intn(n), rng.Intn(n)
		res := countMarkPathPhases(tree, u, v)
		want := map[int]bool{}
		for _, x := range tree.TPath(u, v) {
			want[x] = true
		}
		for x := 0; x < n; x++ {
			if res.Marked[x] != want[x] {
				return false
			}
		}
		pathLen := len(tree.TPath(u, v))
		maxPhases := shortcut.Log2Ceil(pathLen+2) + 2
		return res.Phases <= maxPhases
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMarkPathIterationsPolylog: marking a Θ(n) path costs O(log^2 n)
// iterations, far below the trivial O(n).
func TestMarkPathIterationsPolylog(t *testing.T) {
	n := 2048
	parent := make([]int, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = v - 1
	}
	tree, _ := spanning.NewFromParents(0, parent)
	res := countMarkPathPhases(tree, 0, n-1)
	l := shortcut.Log2Ceil(n)
	if res.Iterations > 2*l*l {
		t.Fatalf("iterations %d exceed O(log^2 n) = %d", res.Iterations, 2*l*l)
	}
	if res.Iterations >= n/4 {
		t.Fatalf("iterations %d not sublinear", res.Iterations)
	}
}

func TestMarkPathPhasesTrivial(t *testing.T) {
	tree, _ := randomTreeWithOrder(1, 10)
	res := countMarkPathPhases(tree, 3, 3)
	cnt := 0
	for _, m := range res.Marked {
		if m {
			cnt++
		}
	}
	if cnt != 1 || !res.Marked[3] || res.Phases != 0 {
		t.Fatalf("self path wrong: %+v", res)
	}
}

func TestDFSOrderPhasesSingleVertex(t *testing.T) {
	tree, _ := spanning.NewFromParents(0, []int{-1})
	res := countDFSOrderPhases(tree, [][]int{nil})
	if res.PiL[0] != 0 || res.PiR[0] != 0 || res.Phases != 0 {
		t.Fatalf("single vertex: %+v", res)
	}
}
