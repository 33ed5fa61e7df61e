package congest

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/spanning"
)

func gridGraph(t *testing.T, w, h int) *graph.Graph {
	t.Helper()
	in, err := gen.Grid(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return in.G
}

func TestBFSProgramMatchesReference(t *testing.T) {
	g := gridGraph(t, 5, 7)
	nw := New(g)
	nodes := NewBFSNodes(nw, 3)
	rounds, err := nw.Run(nodes, 10*g.N())
	if err != nil {
		t.Fatal(err)
	}
	ref := g.BFS(3)
	for v := 0; v < g.N(); v++ {
		bn := nodes[v].(*BFSNode)
		if bn.Dist != ref.Dist[v] {
			t.Fatalf("node %d: dist %d, want %d", v, bn.Dist, ref.Dist[v])
		}
		if v != 3 && bn.Dist != nodes[bn.ParentID].(*BFSNode).Dist+1 {
			t.Fatalf("node %d: parent %d not one level up", v, bn.ParentID)
		}
	}
	// BFS flooding finishes within a small multiple of the eccentricity.
	if ecc := g.Eccentricity(3); rounds > ecc+3 {
		t.Fatalf("BFS took %d rounds, eccentricity %d", rounds, ecc)
	}
}

// runPA runs part-wise aggregation over a BFS tree and returns results and
// rounds.
func runPA(t *testing.T, g *graph.Graph, partOf, value []int, op AggOp) ([]int, int) {
	t.Helper()
	nw := New(g)
	tree, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := NewPANodes(nw, tree.Parent, 0, partOf, value, op)
	rounds, err := nw.Run(nodes, 100*g.N()+1000)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		pn := nodes[v].(*PANode)
		if !pn.HasResult {
			t.Fatalf("node %d has no PA result", v)
		}
		out[v] = pn.Result
	}
	return out, rounds
}

func TestPASumSinglePart(t *testing.T) {
	g := gridGraph(t, 4, 4)
	partOf := make([]int, g.N())
	value := make([]int, g.N())
	want := 0
	for v := range value {
		value[v] = v + 1
		want += v + 1
	}
	res, _ := runPA(t, g, partOf, value, OpSum)
	for v, r := range res {
		if r != want {
			t.Fatalf("node %d: sum %d, want %d", v, r, want)
		}
	}
}

func TestPAOpsMultiParts(t *testing.T) {
	g := gridGraph(t, 8, 8)
	rng := rand.New(rand.NewSource(99))
	partOf := make([]int, g.N())
	value := make([]int, g.N())
	for v := range partOf {
		partOf[v] = rng.Intn(7)
		value[v] = rng.Intn(1000) - 500
	}
	for _, op := range []AggOp{OpSum, OpMin, OpMax} {
		res, _ := runPA(t, g, partOf, value, op)
		// Reference aggregates.
		ref := map[int]int{}
		has := map[int]bool{}
		for v := range partOf {
			if !has[partOf[v]] {
				ref[partOf[v]] = value[v]
				has[partOf[v]] = true
			} else {
				ref[partOf[v]] = op.combine(ref[partOf[v]], value[v])
			}
		}
		for v, r := range res {
			if r != ref[partOf[v]] {
				t.Fatalf("op %d node %d: got %d, want %d", op, v, r, ref[partOf[v]])
			}
		}
	}
}

func TestPARoundsScaleWithDepthPlusParts(t *testing.T) {
	g := gridGraph(t, 16, 16)
	tree, _ := spanning.BFSTree(g, 0)
	depth := tree.MaxDepth()
	for _, k := range []int{1, 8, 64} {
		partOf := make([]int, g.N())
		value := make([]int, g.N())
		for v := range partOf {
			partOf[v] = v % k
			value[v] = 1
		}
		res, rounds := runPA(t, g, partOf, value, OpSum)
		for v, r := range res {
			want := g.N()/k + boolToInt(v%k < g.N()%k)*0 // parts are equal-sized here when k divides n
			_ = want
			// Just check positivity and consistency with a direct count.
			cnt := 0
			for u := range partOf {
				if partOf[u] == partOf[v] {
					cnt++
				}
			}
			if r != cnt {
				t.Fatalf("k=%d node %d: got %d, want %d", k, v, r, cnt)
			}
		}
		// O(depth + k) with a small constant.
		if rounds > 4*(2*depth+k)+20 {
			t.Fatalf("k=%d: %d rounds for depth %d", k, rounds, depth)
		}
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestAwerbuchDFS(t *testing.T) {
	for _, mk := range []func() *graph.Graph{
		func() *graph.Graph { return gridGraph(t, 6, 5) },
		func() *graph.Graph {
			in, err := gen.StackedTriangulation(40, 4)
			if err != nil {
				t.Fatal(err)
			}
			return in.G
		},
	} {
		g := mk()
		nw := New(g)
		nodes := NewAwerbuchNodes(nw, 0)
		rounds, err := nw.Run(nodes, 10*g.N())
		if err != nil {
			t.Fatal(err)
		}
		if rounds > 2*g.N()+2 {
			t.Fatalf("Awerbuch took %d rounds on n=%d", rounds, g.N())
		}
		parent := make([]int, g.N())
		for v := 0; v < g.N(); v++ {
			an := nodes[v].(*AwerbuchNode)
			parent[v] = an.ParentID
			if v == 0 {
				if an.ParentID != -1 || an.Depth != 0 {
					t.Fatal("root state wrong")
				}
			}
		}
		tree, err := spanning.NewFromParents(0, parent)
		if err != nil {
			t.Fatalf("Awerbuch output is not a tree: %v", err)
		}
		// Depths consistent.
		for v := 0; v < g.N(); v++ {
			if nodes[v].(*AwerbuchNode).Depth != tree.Depth[v] {
				t.Fatalf("node %d depth mismatch", v)
			}
		}
		// DFS property: every graph edge connects an ancestor-descendant pair.
		for _, e := range g.Edges() {
			if !tree.IsAncestor(e.U, e.V) && !tree.IsAncestor(e.V, e.U) {
				t.Fatalf("edge %v is a cross edge: not a DFS tree", e)
			}
		}
	}
}

func TestAwerbuchSingleVertex(t *testing.T) {
	g := graph.New(1)
	nw := New(g)
	nodes := NewAwerbuchNodes(nw, 0)
	if _, err := nw.Run(nodes, 10); err != nil {
		t.Fatal(err)
	}
}

type chattyNode struct{ deg int }

func (c *chattyNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	if round > 0 {
		return nil, true
	}
	// Oversized message.
	return []Outgoing{{Port: 0, Msg: Message{Kind: 1, Args: []int{1, 2, 3, 4, 5, 6}}}}, true
}

func TestBandwidthEnforced(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	nw := New(g)
	nodes := []Node{&chattyNode{}, &chattyNode{}}
	if _, err := nw.Run(nodes, 10); err == nil {
		t.Fatal("oversized message accepted")
	}
}

type doubleSender struct{}

func (d *doubleSender) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	if round > 0 {
		return nil, true
	}
	return []Outgoing{
		{Port: 0, Msg: Message{Kind: 1}},
		{Port: 0, Msg: Message{Kind: 2}},
	}, true
}

func TestOneMessagePerEdgePerRound(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	nw := New(g)
	if _, err := nw.Run([]Node{&doubleSender{}, &doubleSender{}}, 10); err == nil {
		t.Fatal("two messages on one port in one round accepted")
	}
}

type silentNode struct{}

func (s *silentNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	return nil, false // never done
}

func TestRoundLimit(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	nw := New(g)
	_, err := nw.Run([]Node{&silentNode{}, &silentNode{}}, 5)
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

func TestStatsPopulated(t *testing.T) {
	g := gridGraph(t, 4, 4)
	nw := New(g)
	nodes := NewBFSNodes(nw, 0)
	if _, err := nw.Run(nodes, 1000); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.Rounds == 0 || st.Messages == 0 || st.Words < st.Messages || st.MaxEdgeLoad == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestNodeInfoPortTo(t *testing.T) {
	g := gridGraph(t, 3, 3)
	nw := New(g)
	info := nw.Info(4) // centre of 3x3 grid
	for p, w := range info.Neighbors {
		if info.PortTo(w) != p {
			t.Fatal("PortTo inconsistent")
		}
	}
	if info.PortTo(999) != -1 {
		t.Fatal("PortTo of non-neighbour should be -1")
	}
}

// TestPAPartsBelowIsASet checks the sorted part list that routes the
// downcast against the set it replaces: in-order, repeated and
// out-of-order (corrupted) part ids must give the same membership.
func TestPAPartsBelowIsASet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var c paChild
		set := map[int]bool{}
		for i := rng.Intn(40); i > 0; i-- {
			p := rng.Intn(30)
			if rng.Intn(4) == 0 {
				p ^= 0x5a5 // a corrupted id, out of order
			}
			c.addBelow(p)
			set[p] = true
		}
		if !sort.IntsAreSorted(c.below) || len(c.below) != len(set) {
			t.Fatalf("trial %d: below %v is not the sorted set of %d ids", trial, c.below, len(set))
		}
		for p := -1; p < 0x600; p++ {
			if c.hasBelow(p) != set[p] {
				t.Fatalf("trial %d: hasBelow(%d) = %v, want %v", trial, p, c.hasBelow(p), set[p])
			}
		}
	}
}
