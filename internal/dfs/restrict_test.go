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
	"planardfs/internal/separator"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// referenceRestriction builds the restriction of emb to vs around dart the
// way it was built before graph.Inducer.Split: a map from parent to sub
// vertex, the kept edges collected from each vertex's incidences and
// sorted into ascending parent edge id (the per-call sort Split replaced),
// neighbour orders resolved through FromNeighborOrders, and the outer
// dart found through the map.
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
	var kept []int
	for _, v := range vs {
		for _, id := range g.IncidentEdges(v) {
			if w := g.Other(int(id), v); w < v {
				if _, ok := idx[w]; ok {
					kept = append(kept, int(id))
				}
			}
		}
	}
	slices.Sort(kept)
	sub := graph.New(len(vs))
	for _, id := range kept {
		u, v := g.EndpointsOf(id)
		sub.MustAddEdge(idx[int(u)], idx[int(v)])
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
// restrictions, or returns "": edge endpoints, the CSR incidence lists,
// the flat rotation arrays
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
	for v := 0; v < want.G.N(); v++ {
		if !slices.Equal(got.G.IncidentEdges(v), want.G.IncidentEdges(v)) {
			return fmt.Sprintf("incident edges of %d = %v, want %v", v, got.G.IncidentEdges(v), want.G.IncidentEdges(v))
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

// checkRestrict compares part i of rs's last split, restricted around
// dart, with the reference restriction of its vertices vs in emb, the
// embedding rs restricts.
func checkRestrict(t *testing.T, name string, emb *planar.Embedding, rs *planar.Restricter, i int, vs []int, dart int) {
	t.Helper()
	got, gerr := rs.Restrict(i, dart)
	want, werr := referenceRestriction(emb, vs, dart)
	sameRestriction(t, name, vs, dart, got, gerr, want, werr)
}

// sameRestriction fails the test unless a restriction and its error
// equal the reference's.
func sameRestriction(t *testing.T, name string, vs []int, dart int, got *planar.Restriction, gerr error, want *planar.Restriction, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: restricting %v around %d: error %v, reference %v", name, vs, dart, gerr, werr)
	}
	if gerr == nil {
		if d := diffRestriction(got, want); d != "" {
			t.Fatalf("%s: restricting %v around %d: %s", name, vs, dart, d)
		}
	}
}

// referenceSplit returns the error a split over parts must fail with, or
// nil: the first vertex out of range or seen before, in any part.
func referenceSplit(g *graph.Graph, parts [][]int) error {
	seen := map[int]bool{}
	for _, vs := range parts {
		for _, v := range vs {
			if err := g.CheckVertex(v); err != nil {
				return err
			}
			if seen[v] {
				return fmt.Errorf("graph: duplicate vertex %d", v)
			}
			seen[v] = true
		}
	}
	return nil
}

// checkSplit splits rs over parts and holds every part, restricted in a
// random order around a dart dartAt names, to the reference; a split
// referenceSplit rejects must fail with its error.
func checkSplit(t *testing.T, name string, rng *rand.Rand, emb *planar.Embedding, rs *planar.Restricter, parts [][]int, dartAt func([]int) int) {
	t.Helper()
	err := rs.Split(parts)
	if werr := referenceSplit(emb.Graph(), parts); (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s: Split(%v): error %v, reference %v", name, parts, err, werr)
	}
	if err != nil {
		return
	}
	for _, i := range rng.Perm(len(parts)) {
		checkRestrict(t, name, emb, rs, i, parts[i], dartAt(parts[i]))
	}
}

// checkConfigure holds a component's workspace build to a fresh
// allocating one: the workspace's restriction to the reference
// restriction, its BFS tree to spanning.BFSTree on that reference, and
// its configuration to weights.NewConfig over both, in the PiL and PiR
// orders, the child CSR, the outer face and the root anchor.
func checkConfigure(t *testing.T, name string, pc phaseComponent, emb *planar.Embedding) {
	t.Helper()
	res, cfg, err := pc.ws.Configure(pc.i, pc.dart)
	want, werr := referenceRestriction(emb, pc.comp, pc.dart)
	sameRestriction(t, name, pc.comp, pc.dart, res, err, want, werr)
	if err != nil {
		return
	}
	tree, err := spanning.BFSTree(want.G, want.Emb.FaceRoot(want.OuterDart))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if cfg.Tree.Root != tree.Root || !slices.Equal(cfg.Tree.Parent, tree.Parent) || !slices.Equal(cfg.Tree.Depth, tree.Depth) {
		t.Fatalf("%s: component at %d: workspace BFS tree differs from a fresh one", name, pc.comp[0])
	}
	fresh, err := weights.NewConfig(want.G, want.Emb, want.OuterDart, tree)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(cfg.PiL, fresh.PiL) || !slices.Equal(cfg.PiR, fresh.PiR) {
		t.Fatalf("%s: component at %d: workspace DFS orders differ from a fresh configuration", name, pc.comp[0])
	}
	if cfg.Outer != fresh.Outer || cfg.RootAnchor() != fresh.RootAnchor() {
		t.Fatalf("%s: component at %d: outer face, anchor = %d, %d, fresh %d, %d", name, pc.comp[0], cfg.Outer, cfg.RootAnchor(), fresh.Outer, fresh.RootAnchor())
	}
	for v := 0; v < want.G.N(); v++ {
		if !slices.Equal(cfg.ChildOrder(v), fresh.ChildOrder(v)) {
			t.Fatalf("%s: component at %d: children of %d = %v, fresh %v", name, pc.comp[0], v, cfg.ChildOrder(v), fresh.ChildOrder(v))
		}
	}
}

// TestRestricterMatchesReference checks the restrictions the build runs
// on against references built without reuse. On every component of every
// phase of the phase cases and of every generator family, the build's
// workspace (separator.Workspace.Configure) must give the reference
// restriction with its sort-based induction, and the BFS tree and
// configuration a fresh allocating build gives, and a Restricter split
// the same way must give the reference restriction. One reused
// Restricter is then split over random partial partitions (BFS balls and
// scattered vertices, in unsorted order) and over every error and
// edgeless case, each followed by splits over the same vertices in other
// orders to show the index was cleared. It lives here rather than in
// package planar because only the build's package can enumerate its
// phases' components.
func TestRestricterMatchesReference(t *testing.T) {
	components := 0
	cases := phaseCases(t)
	for _, family := range gen.Families {
		in, err := gen.ByName(family, 300, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, phaseCase{family + "/n=300", in, in.Emb.FaceRoot(in.OuterDart)})
	}
	for _, c := range cases {
		forEachPhaseComponent(t, c.name, c.in, c.root, nil, func(pc phaseComponent) {
			checkRestrict(t, c.name, c.in.Emb, pc.rs, pc.i, pc.comp, pc.dart)
			if len(pc.comp) > 1 {
				checkConfigure(t, c.name, pc, c.in.Emb)
			}
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
			// Up to four disjoint parts: BFS balls around unused
			// vertices (connected) or scattered vertices (usually
			// disconnected).
			used := make([]bool, g.N())
			var parts [][]int
			for p := rng.Intn(4); p >= 0; p-- {
				k := 2 + rng.Intn(40)
				var vs []int
				if i%2 == 0 {
					for _, v := range g.BFS(rng.Intn(g.N())).Order {
						if len(vs) < k && !used[v] {
							vs = append(vs, v)
						}
					}
				} else {
					for _, v := range rng.Perm(g.N()) {
						if len(vs) < k && !used[v] {
							vs = append(vs, v)
						}
					}
				}
				for _, v := range vs {
					used[v] = true
				}
				if len(vs) > 0 {
					rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
					parts = append(parts, vs)
				}
			}
			checkSplit(t, family, rng, emb, rs, parts, dartAt)
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
			parts [][]int
			dart  int
		}{
			{[][]int{{a, b, a}}, ab},                   // duplicate vertex
			{[][]int{{a, b}, {c, a}}, ab},              // vertex in two parts
			{[][]int{{a, b, g.N()}}, ab},               // vertex out of range
			{[][]int{{a, -1, b}}, ab},                  // negative vertex
			{[][]int{{b, c}}, ca},                      // edgeless: no outer dart, no error
			{[][]int{{a, b}}, -1},                      // dart out of range
			{[][]int{{a, b}}, 2 * g.M()},               // dart out of range
			{[][]int{{a, b}}, outside},                 // tail outside the subset
			{[][]int{{a, b}, {c}}, ca},                 // tail in another part
			{[][]int{{a, b, far}}, emb.FirstDart(far)}, // tail with no edge in the restriction
			{[][]int{{b, a, c}}, ca},                   // kept dart
		} {
			checkSplit(t, family, rng, emb, rs, e.parts, func([]int) int { return e.dart })
			for _, probe := range [][][]int{{{b, a}}, {{a, c}}, {{c, b, a}}, {{far, a, b}}, {{far}, {b, a}}} {
				checkSplit(t, family, rng, emb, rs, probe, dartAt)
			}
		}
	}
	t.Logf("%d phase components match the reference", components)
}

// TestWorkspaceSeparatorsOutliveReuse checks that nothing ForSubset
// returns aliases the workspace: every separator of every phase case,
// kept until the whole build has reused the workspace for every later
// component, still equals the separator a fresh workspace computes for
// its component alone.
func TestWorkspaceSeparatorsOutliveReuse(t *testing.T) {
	for _, c := range phaseCases(t) {
		type kept struct {
			sep  *separator.Separator
			want separator.Separator
		}
		var all []kept
		var fresh *separator.Separator
		forEachPhaseComponent(t, c.name, c.in, c.root, nil, func(pc phaseComponent) {
			ws := separator.NewWorkspace(c.in.Emb)
			if err := ws.Split([][]int{pc.comp}); err != nil {
				t.Fatal(err)
			}
			var err error
			if fresh, err = separator.ForSubset(ws, 0, pc.dart, separator.Find); err != nil {
				t.Fatal(err)
			}
		}, func(sep *separator.Separator, _ *JoinStats) {
			all = append(all, kept{sep, *fresh})
		})
		for i, k := range all {
			if !slices.Equal(k.sep.Path, k.want.Path) || k.sep.EndA != k.want.EndA || k.sep.EndB != k.want.EndB || k.sep.Phase != k.want.Phase {
				t.Fatalf("%s: separator %d = %+v after the build went on, fresh workspace %+v", c.name, i, *k.sep, k.want)
			}
		}
	}
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
