package shortcut

import (
	"math/rand"
	"testing"
	"testing/quick"

	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/spanning"
)

func TestNewPartitionValidation(t *testing.T) {
	if _, err := NewPartition([]int{0, -1}); err == nil {
		t.Fatal("negative part accepted")
	}
	if _, err := NewPartition([]int{0, 2}); err == nil {
		t.Fatal("gap in part ids accepted")
	}
	p, err := NewPartition([]int{0, 1, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 3 || len(p.Parts[0]) != 2 || len(p.Parts[2]) != 1 {
		t.Fatalf("partition wrong: %+v", p)
	}
}

func TestPartitionValidateConnectivity(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	ok, _ := NewPartition([]int{0, 0, 1, 1})
	if err := ok.Validate(g); err != nil {
		t.Fatalf("connected parts rejected: %v", err)
	}
	bad, _ := NewPartition([]int{0, 1, 1, 0})
	if err := bad.Validate(g); err == nil {
		t.Fatal("disconnected part accepted")
	}
}

func TestCostModels(t *testing.T) {
	pc := PaperCost{D: 10, N: 1000}
	if pc.Cost(OpLocal, 5) != 1 {
		t.Fatal("local cost should be 1")
	}
	l := Log2Ceil(1001)
	if pc.Cost(OpPA, 7) != 11*l*l {
		t.Fatalf("paper PA cost = %d", pc.Cost(OpPA, 7))
	}
	if pc.Cost(OpPA, 7) != pc.Cost(OpTreeAgg, 3) {
		t.Fatal("tree agg should cost like PA")
	}
	pl := PipelinedCost{Depth: 8}
	if pl.Cost(OpPA, 10) != 2*(8+10)+4 {
		t.Fatalf("pipelined cost = %d", pl.Cost(OpPA, 10))
	}
	for _, m := range []CostModel{pc, pl} {
		if m.Name() == "" {
			t.Fatal("empty model name")
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for x, want := range cases {
		if got := Log2Ceil(x); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", x, got, want)
		}
	}
}

// stripePartition partitions grid vertices into k vertical stripes (each
// connected).
func stripePartition(t *testing.T, w, h, k int) (*graph.Graph, *Partition) {
	t.Helper()
	in, err := gen.Grid(w, h)
	if err != nil {
		t.Fatal(err)
	}
	partOf := make([]int, in.G.N())
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			partOf[y*w+x] = x * k / w
		}
	}
	p, err := NewPartition(partOf)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(in.G); err != nil {
		t.Fatal(err)
	}
	return in.G, p
}

func TestRunPAMatchesReference(t *testing.T) {
	g, p := stripePartition(t, 12, 8, 4)
	rng := rand.New(rand.NewSource(17))
	value := make([]int, g.N())
	for v := range value {
		value[v] = rng.Intn(100)
	}
	res, err := RunPA(g, 0, p, value, congest.OpSum)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, p.K())
	for v, x := range value {
		want[p.PartOf[v]] += x
	}
	for v := 0; v < g.N(); v++ {
		if res.Values[v] != want[p.PartOf[v]] {
			t.Fatalf("node %d: %d, want %d", v, res.Values[v], want[p.PartOf[v]])
		}
	}
	if res.Rounds <= 0 || res.Stats.Messages == 0 {
		t.Fatal("stats not populated")
	}
}

// RunPA rejects a value array or a partition whose length is not the
// graph's vertex count instead of indexing past it.
func TestRunPARejectsMismatchedLengths(t *testing.T) {
	g, p := stripePartition(t, 4, 4, 2)
	if _, err := RunPA(g, 0, p, []int{1}, congest.OpSum); err == nil {
		t.Fatal("short value array accepted")
	}
	_, small := stripePartition(t, 2, 2, 2)
	if _, err := RunPA(g, 0, small, make([]int, g.N()), congest.OpSum); err == nil {
		t.Fatal("partition of another graph accepted")
	}
	// A spanning tree of another graph: the 2x2 grid's BFS tree on the
	// 4x4 grid's network, then trees with a root or a parent outside it.
	gSmall, _ := stripePartition(t, 2, 2, 2)
	smallTree, err := spanning.BFSTree(gSmall, 0)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewPartition(make([]int, g.N()))
	if err != nil {
		t.Fatal(err)
	}
	bigTree, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	badParent := append([]int(nil), bigTree.Parent...)
	badParent[5] = g.N()
	for _, tree := range []*spanning.Tree{
		smallTree,
		{Root: g.N(), Parent: bigTree.Parent},
		{Root: -1, Parent: bigTree.Parent},
		{Root: 0, Parent: badParent},
	} {
		if _, err := RunPAOn(congest.New(g), tree, single, make([]int, g.N()), congest.OpSum); err == nil {
			t.Fatalf("tree with root %d and %d parents accepted on a %d-vertex network", tree.Root, len(tree.Parent), g.N())
		}
	}
}

// Property: RunPA matches the reference on random stripe widths and values.
func TestRunPAProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 2 + rng.Intn(8)
		h := 2 + rng.Intn(8)
		k := 1 + rng.Intn(w)
		in, err := gen.Grid(w, h)
		if err != nil {
			return false
		}
		partOf := make([]int, in.G.N())
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				partOf[y*w+x] = x * k / w
			}
		}
		p, err := NewPartition(partOf)
		if err != nil {
			return false
		}
		value := make([]int, in.G.N())
		for v := range value {
			value[v] = rng.Intn(50) - 25
		}
		res, err := RunPA(in.G, rng.Intn(in.G.N()), p, value, congest.OpMin)
		if err != nil {
			return false
		}
		want := make([]int, p.K())
		seen := make([]bool, p.K())
		for v, x := range value {
			i := p.PartOf[v]
			if !seen[i] || x < want[i] {
				want[i] = x
				seen[i] = true
			}
		}
		for v := range value {
			if res.Values[v] != want[p.PartOf[v]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureQuality(t *testing.T) {
	g, p := stripePartition(t, 10, 10, 5)
	q, err := MeasureQuality(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if q.MaxDilation <= 0 {
		t.Fatal("dilation should be positive")
	}
	// Each vertical stripe of a grid is connected with small dilation even
	// without shortcuts; congestion must not exceed k.
	if q.MaxCongestion > p.K() {
		t.Fatalf("congestion %d exceeds part count %d", q.MaxCongestion, p.K())
	}
	// Dilation is bounded by the stripe perimeter.
	if q.MaxDilation > 2*(10+10) {
		t.Fatalf("dilation %d too large", q.MaxDilation)
	}
}

func TestSteinerEdgesSinglePart(t *testing.T) {
	// Whole graph as one part: Steiner tree of all vertices = all tree
	// edges (n-1 child endpoints).
	in, err := gen.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	partOf := make([]int, in.G.N())
	p, _ := NewPartition(partOf)
	q, err := MeasureQuality(in.G, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if q.MaxCongestion != 1 {
		t.Fatalf("single part congestion = %d, want 1", q.MaxCongestion)
	}
}
