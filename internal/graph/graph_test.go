package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeAndLookup(t *testing.T) {
	g := New(4)
	id, err := g.AddEdge(2, 1)
	if err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if id != 0 {
		t.Fatalf("first edge id = %d, want 0", id)
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("HasEdge should be symmetric")
	}
	if got, ok := g.EdgeID(1, 2); !ok || got != 0 {
		t.Fatalf("EdgeID(1,2) = %d,%v", got, ok)
	}
	if e := g.EdgeByID(0); e != (Edge{U: 1, V: 2}) {
		t.Fatalf("EdgeByID(0) = %v, want {1 2}", e)
	}
	if g.M() != 1 || g.N() != 4 {
		t.Fatalf("M=%d N=%d", g.M(), g.N())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if _, err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
	g.MustAddEdge(0, 1)
	if _, err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Fatal("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint should panic")
		}
	}()
	e.Other(5)
}

func TestNeighborsAndDegree(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(0, 2)
	ns := g.Neighbors(0)
	want := []int{1, 3, 2}
	if len(ns) != 3 {
		t.Fatalf("deg=%d", len(ns))
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("Neighbors(0) = %v, want %v (insertion order)", ns, want)
		}
	}
	if g.Degree(0) != 3 || g.Degree(4) != 0 {
		t.Fatal("Degree wrong")
	}
}

func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

func cycleGraph(n int) *Graph {
	g := pathGraph(n)
	g.MustAddEdge(n-1, 0)
	return g
}

func TestBFSPath(t *testing.T) {
	g := pathGraph(6)
	res := g.BFS(0)
	for v := 0; v < 6; v++ {
		if res.Dist[v] != v {
			t.Fatalf("Dist[%d]=%d, want %d", v, res.Dist[v], v)
		}
	}
	if res.Parent[0] != -1 {
		t.Fatal("source parent should be -1")
	}
	for v := 1; v < 6; v++ {
		if res.Parent[v] != v-1 {
			t.Fatalf("Parent[%d]=%d", v, res.Parent[v])
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	res := g.BFS(0)
	if res.Dist[2] != -1 || res.Dist[3] != -1 {
		t.Fatal("unreachable vertices should have Dist -1")
	}
	if g.Connected() {
		t.Fatal("graph should be disconnected")
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{pathGraph(1), 0},
		{pathGraph(2), 1},
		{pathGraph(10), 9},
		{cycleGraph(10), 5},
		{cycleGraph(11), 5},
	}
	for i, c := range cases {
		if got := c.g.Diameter(); got != c.want {
			t.Errorf("case %d: diameter = %d, want %d", i, got, c.want)
		}
	}
	dg := New(3)
	dg.MustAddEdge(0, 1)
	if dg.Diameter() != -1 {
		t.Error("disconnected diameter should be -1")
	}
}

func TestEccentricity(t *testing.T) {
	g := pathGraph(7)
	if g.Eccentricity(0) != 6 {
		t.Fatal("end eccentricity")
	}
	if g.Eccentricity(3) != 3 {
		t.Fatal("center eccentricity")
	}
}

func TestComponentsAvoiding(t *testing.T) {
	g := pathGraph(7)
	removed := make([]bool, g.N())
	removed[3] = true
	comps := g.ComponentsAvoidingMask(removed)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0])+len(comps[1]) != 6 {
		t.Fatal("wrong component sizes")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cycleGraph(6)
	ind := NewInducer(g)
	sub, err := ind.Induce([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("N=%d M=%d, want 3,2", sub.N(), sub.M())
	}
	if ind.Local(1) != 0 || ind.Local(2) != 1 || ind.Local(3) != 2 || ind.Local(0) != -1 {
		t.Fatalf("local ids %d %d %d %d", ind.Local(0), ind.Local(1), ind.Local(2), ind.Local(3))
	}
	if _, err := ind.Induce([]int{1, 1}); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if _, err := ind.Induce([]int{99}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

// TestInducerClearsIndex checks that one Inducer's index is clear over
// the whole graph after Release, after an error and after a second
// Induce, and that a reused Inducer builds what a fresh one does.
func TestInducerClearsIndex(t *testing.T) {
	g := cycleGraph(8)
	g.MustAddEdge(0, 4)
	x := NewInducer(g)
	cleared := func(when string) {
		t.Helper()
		for v := 0; v < g.N(); v++ {
			if x.Local(v) != -1 {
				t.Fatalf("%s: Local(%d) = %d", when, v, x.Local(v))
			}
		}
		for e := 0; e < g.M(); e++ {
			if x.SubEdge(e) != -1 {
				t.Fatalf("%s: SubEdge(%d) = %d", when, e, x.SubEdge(e))
			}
		}
	}
	same := func(vs []int) {
		t.Helper()
		sub, err := x.Induce(vs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vs {
			if x.Local(v) != i {
				t.Fatalf("Local(%d) = %d, want %d", v, x.Local(v), i)
			}
		}
		want, err := NewInducer(g).Induce(vs)
		if err != nil {
			t.Fatal(err)
		}
		if sub.N() != want.N() || sub.M() != want.M() {
			t.Fatalf("reused Induce(%v) has n, m = %d, %d, fresh %d, %d", vs, sub.N(), sub.M(), want.N(), want.M())
		}
		for e := 0; e < want.M(); e++ {
			if sub.EdgeByID(e) != want.EdgeByID(e) {
				t.Fatalf("reused Induce(%v): edge %d = %v, fresh %v", vs, e, sub.EdgeByID(e), want.EdgeByID(e))
			}
		}
	}
	same([]int{4, 0, 1, 3})
	x.Release()
	cleared("after Release")
	for _, bad := range [][]int{{0, 1, 0}, {2, 3, 8}, {5, -1}} {
		if _, err := x.Induce(bad); err == nil {
			t.Fatalf("Induce(%v) accepted", bad)
		}
		cleared(fmt.Sprintf("after Induce(%v) failed", bad))
		same([]int{1, 0, 3, 2, 5})
	}
	same([]int{7, 6})
	x.Release()
	cleared("after a second Induce and Release")
}

func TestClone(t *testing.T) {
	g := cycleGraph(5)
	c := g.Clone()
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatal("clone size mismatch")
	}
	c.MustAddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Fatal("clone not independent")
	}
}

func TestUnionFindBasic(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatal("initial count")
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("fresh unions should merge")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeat union should not merge")
	}
	if uf.Find(0) != uf.Find(1) || uf.Find(0) == uf.Find(2) {
		t.Fatal("Find wrong")
	}
	uf.Union(1, 3)
	if uf.Find(0) != uf.Find(2) || uf.Count() != 2 {
		t.Fatalf("count=%d", uf.Count())
	}
}

// Property: union-find component count always matches BFS component count on
// random graphs.
func TestUnionFindMatchesComponents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := New(n)
		uf := NewUnionFind(n)
		for tries := 0; tries < 2*n; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.MustAddEdge(u, v)
			uf.Union(u, v)
		}
		return uf.Count() == len(g.Components())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances obey the triangle rule across every edge:
// |Dist[u]-Dist[v]| <= 1 for each edge {u,v} in the same component.
func TestBFSDistancesSmooth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := New(n)
		for tries := 0; tries < 3*n; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.MustAddEdge(u, v)
		}
		res := g.BFS(0)
		for _, e := range g.Edges() {
			du, dv := res.Dist[e.U], res.Dist[e.V]
			if (du < 0) != (dv < 0) {
				return false
			}
			if du >= 0 && (du-dv > 1 || dv-du > 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
