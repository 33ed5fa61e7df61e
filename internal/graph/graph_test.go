package graph

import (
	"fmt"
	"math/rand"
	"slices"
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
	if err := ind.Split([][]int{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	sub := ind.Induce(0)
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("N=%d M=%d, want 3,2", sub.N(), sub.M())
	}
	if ind.Local(1) != 0 || ind.Local(2) != 1 || ind.Local(3) != 2 || ind.Local(0) != -1 {
		t.Fatalf("local ids %d %d %d %d", ind.Local(0), ind.Local(1), ind.Local(2), ind.Local(3))
	}
	if err := ind.Split([][]int{{1, 1}}); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if err := ind.Split([][]int{{1}, {2, 1}}); err == nil {
		t.Fatal("vertex in two parts accepted")
	}
	if err := ind.Split([][]int{{99}}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

// sortedInduce is the reference Split and Induce are held to: the
// subgraph induced by vs built as Induce built it before Split, from the
// kept edges each counted once from its larger endpoint and sorted into
// ascending parent id.
func sortedInduce(g *Graph, vs []int) *Graph {
	local := make(map[int]int, len(vs))
	for i, v := range vs {
		local[v] = i
	}
	var kept []int
	for _, v := range vs {
		for _, id := range g.IncidentEdges(v) {
			if w := g.Other(int(id), v); w < v {
				if _, ok := local[w]; ok {
					kept = append(kept, int(id))
				}
			}
		}
	}
	slices.Sort(kept)
	sub := New(len(vs))
	for _, id := range kept {
		e := g.EdgeByID(id)
		sub.MustAddEdge(local[e.U], local[e.V])
	}
	return sub
}

// diffGraph describes the first difference between two graphs' edges,
// CSR and dart lists, or returns "".
func diffGraph(got, want *Graph) string {
	if got.N() != want.N() || got.M() != want.M() {
		return fmt.Sprintf("n, m = %d, %d, want %d, %d", got.N(), got.M(), want.N(), want.M())
	}
	for e := 0; e < want.M(); e++ {
		if got.EdgeByID(e) != want.EdgeByID(e) {
			return fmt.Sprintf("edge %d = %v, want %v", e, got.EdgeByID(e), want.EdgeByID(e))
		}
	}
	for v := 0; v < want.N(); v++ {
		if !slices.Equal(got.IncidentEdges(v), want.IncidentEdges(v)) {
			return fmt.Sprintf("incident edges of %d = %v, want %v", v, got.IncidentEdges(v), want.IncidentEdges(v))
		}
		if got.firstD[v] != want.firstD[v] || got.lastD[v] != want.lastD[v] {
			return fmt.Sprintf("dart list of %d differs", v)
		}
	}
	if !slices.Equal(got.nextD, want.nextD) {
		return "dart links differ"
	}
	return ""
}

// TestSplitMatchesSortedInduce splits random partial partitions of a
// random graph with one reused Inducer and holds every part's
// subgraph, built in the Inducer's reused storage in any order, to the
// sort-based reference; the index must map each part's vertices and
// edges, and nothing outside the parts.
func TestSplitMatchesSortedInduce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New(300)
	// A path with one random chord back from each vertex.
	for v := 1; v < g.N(); v++ {
		g.MustAddEdge(v-1, v)
		if w := rng.Intn(v); w < v-1 && !g.HasEdge(w, v) {
			g.MustAddEdge(w, v)
		}
	}
	x := NewInducer(g)
	for round := 0; round < 50; round++ {
		k := 1 + rng.Intn(12)
		parts := make([][]int, k)
		for _, v := range rng.Perm(g.N()) {
			if p := rng.Intn(k + 2); p < k {
				parts[p] = append(parts[p], v)
			}
		}
		if err := x.Split(parts); err != nil {
			t.Fatal(err)
		}
		for _, i := range rng.Perm(k) {
			if d := diffGraph(x.Induce(i), sortedInduce(g, parts[i])); d != "" {
				t.Fatalf("round %d, part %d of %d: %s", round, i, k, d)
			}
		}
		in := make([]int, g.N())
		for v := range in {
			in[v] = -1
		}
		for i, vs := range parts {
			for j, v := range vs {
				in[v] = i
				if x.PartOf(v) != i || x.Local(v) != j {
					t.Fatalf("round %d: vertex %d: part, local = %d, %d, want %d, %d", round, v, x.PartOf(v), x.Local(v), i, j)
				}
			}
		}
		for e := 0; e < g.M(); e++ {
			u, v := g.EndpointsOf(e)
			if kept := in[u] >= 0 && in[u] == in[v]; kept != (x.SubEdge(e) >= 0) {
				t.Fatalf("round %d: edge %d {%d,%d} has sub id %d", round, e, u, v, x.SubEdge(e))
			}
		}
	}
}

// TestInducerClearsIndex checks that one Inducer's index is clear over
// the whole graph after release, after an error and after a second
// Split, and that a reused Inducer builds what a fresh one does.
func TestInducerClearsIndex(t *testing.T) {
	g := cycleGraph(8)
	g.MustAddEdge(0, 4)
	x := NewInducer(g)
	cleared := func(when string) {
		t.Helper()
		for v := 0; v < g.N(); v++ {
			if x.Local(v) != -1 || x.PartOf(v) != -1 {
				t.Fatalf("%s: Local(%d), PartOf(%d) = %d, %d", when, v, v, x.Local(v), x.PartOf(v))
			}
		}
		for e := 0; e < g.M(); e++ {
			if x.SubEdge(e) != -1 {
				t.Fatalf("%s: SubEdge(%d) = %d", when, e, x.SubEdge(e))
			}
		}
	}
	same := func(parts ...[]int) {
		t.Helper()
		if err := x.Split(parts); err != nil {
			t.Fatal(err)
		}
		for i, vs := range parts {
			for j, v := range vs {
				if x.Local(v) != j {
					t.Fatalf("Local(%d) = %d, want %d", v, x.Local(v), j)
				}
			}
			fresh := NewInducer(g)
			if err := fresh.Split(parts); err != nil {
				t.Fatal(err)
			}
			if d := diffGraph(x.Induce(i), fresh.Induce(i)); d != "" {
				t.Fatalf("reused Induce of %v: %s", vs, d)
			}
		}
	}
	same([]int{4, 0, 1, 3})
	x.release()
	cleared("after release")
	for _, bad := range [][][]int{{{0, 1, 0}}, {{2, 3, 8}}, {{5, -1}}, {{1, 2}, {3, 2}}} {
		if err := x.Split(bad); err == nil {
			t.Fatalf("Split(%v) accepted", bad)
		}
		cleared(fmt.Sprintf("after Split(%v) failed", bad))
		same([]int{1, 0, 3, 2, 5}, []int{7, 6})
	}
	same([]int{7, 6})
	x.release()
	cleared("after a second Split and release")
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
