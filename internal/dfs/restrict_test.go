package dfs

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/planar"
)

// referenceRestriction builds the restriction of emb to vs around dart the
// way it was built before planar.Restricter: a map from parent to sub
// vertex, edges added in ascending parent edge id, neighbour orders
// resolved through FromNeighborOrders, and the outer dart found through
// the map.
func referenceRestriction(emb *planar.Embedding, vs []int, dart int) (*planar.Restriction, error) {
	g := emb.Graph()
	idx := make(map[int]int, len(vs))
	for i, v := range vs {
		if err := g.CheckVertex(v); err != nil {
			return nil, err
		}
		if _, dup := idx[v]; dup {
			return nil, fmt.Errorf("graph: duplicate vertex %d", v)
		}
		idx[v] = i
	}
	sub := graph.New(len(vs))
	for e := 0; e < g.M(); e++ {
		u, v := g.EndpointsOf(e)
		su, okU := idx[int(u)]
		sv, okV := idx[int(v)]
		if okU && okV {
			sub.MustAddEdge(su, sv)
		}
	}
	orders := make([][]int, len(vs))
	for i, v := range vs {
		orders[i] = []int{}
		for _, w := range emb.NeighborOrder(v) {
			if sw, ok := idx[w]; ok {
				orders[i] = append(orders[i], sw)
			}
		}
	}
	semb, err := planar.FromNeighborOrders(sub, orders)
	if err != nil {
		return nil, err
	}
	res := &planar.Restriction{G: sub, Emb: semb, Orig: append([]int(nil), vs...), OuterDart: -1}
	if sub.M() == 0 {
		return res, nil
	}
	if dart < 0 || dart >= 2*g.M() {
		return nil, fmt.Errorf("planar: outer dart %d out of range", dart)
	}
	su, ok := idx[emb.TailOf(dart)]
	if !ok {
		return nil, fmt.Errorf("planar: outer dart %d has tail %d outside the restriction", dart, emb.TailOf(dart))
	}
	for d := dart; ; {
		if sw, ok := idx[emb.HeadOf(d)]; ok {
			id, _ := sub.EdgeID(su, sw)
			res.OuterDart = planar.DartFrom(sub, id, su)
			return res, nil
		}
		if d = emb.NextCW(d); d == dart {
			break
		}
	}
	return nil, fmt.Errorf("planar: outer dart %d has tail %d with no edge in the restriction", dart, emb.TailOf(dart))
}

// diffRestriction describes the first difference between two
// restrictions, or returns "": edge endpoints, the flat rotation arrays
// (next, prev, pos, head and first, read through their accessors), Orig
// and OuterDart.
func diffRestriction(got, want *planar.Restriction) string {
	if got.G.N() != want.G.N() || got.G.M() != want.G.M() {
		return fmt.Sprintf("n, m = %d, %d, want %d, %d", got.G.N(), got.G.M(), want.G.N(), want.G.M())
	}
	for e := 0; e < want.G.M(); e++ {
		gu, gv := got.G.EndpointsOf(e)
		wu, wv := want.G.EndpointsOf(e)
		if gu != wu || gv != wv {
			return fmt.Sprintf("edge %d = {%d,%d}, want {%d,%d}", e, gu, gv, wu, wv)
		}
	}
	ge, we := got.Emb, want.Emb
	for d := 0; d < 2*want.G.M(); d++ {
		if ge.NextCW(d) != we.NextCW(d) || ge.NextCCW(d) != we.NextCCW(d) || ge.Pos(d) != we.Pos(d) || ge.HeadOf(d) != we.HeadOf(d) {
			return fmt.Sprintf("dart %d: next, prev, pos, head = %d, %d, %d, %d, want %d, %d, %d, %d", d,
				ge.NextCW(d), ge.NextCCW(d), ge.Pos(d), ge.HeadOf(d), we.NextCW(d), we.NextCCW(d), we.Pos(d), we.HeadOf(d))
		}
	}
	for v := 0; v < want.G.N(); v++ {
		if ge.FirstDart(v) != we.FirstDart(v) {
			return fmt.Sprintf("first dart of %d = %d, want %d", v, ge.FirstDart(v), we.FirstDart(v))
		}
	}
	if !slices.Equal(got.Orig, want.Orig) {
		return fmt.Sprintf("Orig = %v, want %v", got.Orig, want.Orig)
	}
	if got.OuterDart != want.OuterDart {
		return fmt.Sprintf("OuterDart = %d, want %d", got.OuterDart, want.OuterDart)
	}
	return ""
}

// checkRestrict compares rs.Restrict with the reference on one subset and
// dart, errors included.
func checkRestrict(t *testing.T, name string, rs *planar.Restricter, vs []int, dart int) {
	t.Helper()
	got, gerr := rs.Restrict(vs, dart)
	want, werr := referenceRestriction(rs.Embedding(), vs, dart)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: restricting %v around %d: error %v, reference %v", name, vs, dart, gerr, werr)
	}
	if gerr == nil {
		if d := diffRestriction(got, want); d != "" {
			t.Fatalf("%s: restricting %v around %d: %s", name, vs, dart, d)
		}
	}
}

// TestRestricterMatchesReference checks that one reused Restricter builds
// exactly the reference restriction: on every component of every phase
// of the build, on random connected and disconnected subsets in unsorted
// order, and on every error and edgeless case, each followed by calls
// over the same vertices in other orders to show the scratch was cleared.
// It lives here rather than in package planar because only the build's
// package can enumerate its phases' components.
func TestRestricterMatchesReference(t *testing.T) {
	components := 0
	for _, c := range phaseCases(t) {
		forEachPhaseComponent(t, c.name, c.in, c.root, nil, func(_ *PartialTree, comp []int, dart int, rs *planar.Restricter) {
			checkRestrict(t, c.name, rs, comp, dart)
			components++
		}, nil)
	}
	rng := rand.New(rand.NewSource(1))
	for _, family := range []string{"stacked", "grid", "cylinderish", "wheel"} {
		in, err := gen.ByName(family, 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		g, emb := in.G, in.Emb
		rs := planar.NewRestricter(emb)
		// dartAt returns a random dart with its tail in vs.
		dartAt := func(vs []int) int {
			v := vs[rng.Intn(len(vs))]
			d := emb.FirstDart(v)
			for k := rng.Intn(g.Degree(v)); k > 0; k-- {
				d = emb.NextCW(d)
			}
			return d
		}
		for i := 0; i < 300; i++ {
			k := 2 + rng.Intn(40)
			var vs []int
			if i%2 == 0 {
				// Connected: a BFS ball.
				order := g.BFS(rng.Intn(g.N())).Order
				vs = append(vs, order[:min(k, len(order))]...)
			} else {
				// Usually disconnected: scattered vertices.
				vs = rng.Perm(g.N())[:k]
			}
			rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
			checkRestrict(t, family, rs, vs, dartAt(vs))
		}
		// a-b and a-c are edges and b-c is not, so {b, c} is edgeless.
		a, b, c := -1, -1, -1
		for v := g.N() / 2; v < g.N() && c < 0; v++ {
			nb := g.Neighbors(v)
			for _, w := range nb[1:] {
				if !g.HasEdge(nb[0], w) {
					a, b, c = v, nb[0], w
					break
				}
			}
		}
		if c < 0 {
			t.Fatalf("%s: no vertex with two non-adjacent neighbours", family)
		}
		// far is adjacent to neither a nor b.
		far := -1
		for v := 0; v < g.N() && far < 0; v++ {
			if v != a && v != b && !g.HasEdge(v, a) && !g.HasEdge(v, b) {
				far = v
			}
		}
		ab := planar.DartFrom(g, mustEdge(t, g, a, b), a)
		ca := planar.DartFrom(g, mustEdge(t, g, c, a), c)
		outside := -1
		for d := 0; d < 2*g.M(); d++ {
			if u := emb.TailOf(d); u != a && u != b && u != c {
				outside = d
				break
			}
		}
		for _, e := range []struct {
			vs   []int
			dart int
		}{
			{[]int{a, b, a}, ab},                   // duplicate vertex
			{[]int{a, b, g.N()}, ab},               // vertex out of range
			{[]int{a, -1, b}, ab},                  // negative vertex
			{[]int{b, c}, ca},                      // edgeless: no outer dart, no error
			{[]int{a, b}, -1},                      // dart out of range
			{[]int{a, b}, 2 * g.M()},               // dart out of range
			{[]int{a, b}, outside},                 // tail outside the subset
			{[]int{a, b, far}, emb.FirstDart(far)}, // tail with no edge in the restriction
			{[]int{b, a, c}, ca},                   // kept dart
		} {
			checkRestrict(t, family, rs, e.vs, e.dart)
			for _, probe := range [][]int{{b, a}, {a, c}, {c, b, a}, {far, a, b}} {
				checkRestrict(t, family, rs, probe, dartAt(probe))
			}
		}
	}
	t.Logf("%d phase components match the reference", components)
}

// mustEdge returns the id of edge {u,v}.
func mustEdge(t *testing.T, g *graph.Graph, u, v int) int {
	t.Helper()
	id, ok := g.EdgeID(u, v)
	if !ok {
		t.Fatalf("{%d,%d} is not an edge", u, v)
	}
	return id
}

// TestConcurrentBuildsShareEmbedding runs two builds at once over one
// shared instance and checks that each returns the tree a lone build
// does. Each build owns its restriction and join scratch, so the shared
// graph and embedding are only read; run it with -race.
func TestConcurrentBuildsShareEmbedding(t *testing.T) {
	in, err := gen.StackedTriangulation(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	root := in.Emb.FaceRoot(in.OuterDart)
	want, _, err := Build(in.G, in.Emb, in.OuterDart, root)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pt, _, err := Build(in.G, in.Emb, in.OuterDart, root)
			if err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(pt.Parent, want.Parent) {
				t.Error("a concurrent build returned another tree")
			}
		}()
	}
	wg.Wait()
}
