package dfs

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/planar"
	"planardfs/internal/separator"
)

// phaseComponent is one component of one phase of a driven build, as
// forEachPhaseComponent hands it to its visit callback.
type phaseComponent struct {
	pt   *PartialTree
	comp []int
	// i is comp's part index in the phase's split, and dart the dart the
	// build restricts it around.
	i, dart int
	// ws is the build's workspace and rs a Restricter of the test's own,
	// both split over the phase's components as the build splits them.
	ws *separator.Workspace
	rs *planar.Restricter
}

// forEachPhaseComponent drives the phases and joins of the build from
// root. At the start of every phase it calls phase, when not nil, with the
// partial tree and the phase's component list; on every component it
// calls visit, when not nil, before the component's separator is joined,
// and joined, when not nil, with the separator ForSubset returned and the
// join's stats. Like Build, it takes the first phase's components from
// firstComponents and every later phase's from the pieces the previous
// phase's joins left, ordered by sortComponents, and it splits each
// phase's components once on one workspace. It fails the test if the
// driven phases do not end in Build's tree.
func forEachPhaseComponent(t *testing.T, name string, in *gen.Instance, root int, phase func(pt *PartialTree, comps [][]int), visit func(c phaseComponent), joined func(sep *separator.Separator, st *JoinStats)) {
	t.Helper()
	g, emb := in.G, in.Emb
	pt := NewPartialTree(g.N(), root)
	sc := newJoinScratch(g.N())
	ws := separator.NewWorkspace(emb)
	rs := planar.NewRestricter(emb)
	outerInTree := false
	for comps := firstComponents(g, pt, sc); len(comps) > 0; {
		if phase != nil {
			phase(pt, comps)
		}
		if !outerInTree {
			outerInTree = faceMeetsTree(emb, pt, in.OuterDart)
		}
		if err := ws.Split(comps); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := rs.Split(comps); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var next [][]int
		for i, comp := range comps {
			dart := outerRegionDart(emb, pt, comp, in.OuterDart, outerInTree)
			if visit != nil {
				visit(phaseComponent{pt: pt, comp: comp, i: i, dart: dart, ws: ws, rs: rs})
			}
			sep, err := separator.ForSubset(ws, i, dart, separator.Find)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			st, pieces, err := joinSeparator(g, pt, comp, sep.Path, sc)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if joined != nil {
				joined(sep, st)
			}
			next = append(next, pieces...)
		}
		comps = sortComponents(next)
	}
	if !pt.Complete() {
		t.Fatalf("%s: the driven phases ran out of components before the tree was complete", name)
	}
	want, _, err := Build(g, emb, in.OuterDart, root)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(pt.Parent, want.Parent) {
		t.Fatalf("%s: the driven phases diverge from Build", name)
	}
}

// remainingComponents is the reference the join-fed component lists are
// held to: the connected components of G minus the partial tree by a
// whole-graph mask walk, each sorted ascending, ordered by smallest
// vertex.
func remainingComponents(g *graph.Graph, pt *PartialTree) [][]int {
	removed := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if pt.Has(v) {
			removed[v] = true
		}
	}
	comps := g.ComponentsAvoidingMask(removed)
	for _, c := range comps {
		sort.Ints(c)
	}
	return comps
}

// TestPhaseComponentsMatchMaskWalk checks, on every phase of every phase
// case, that the component list the previous phase's joins handed back
// (or, in the first phase, the scratch walk of G − {root}) equals the
// whole-graph mask walk: the same components with the same vertices in
// the same order. Build visits the components in this order, so any
// difference would change the tree and the trace.
func TestPhaseComponentsMatchMaskWalk(t *testing.T) {
	phases, multi := 0, 0
	for _, c := range phaseCases(t) {
		phase := 0
		forEachPhaseComponent(t, c.name, c.in, c.root, func(pt *PartialTree, comps [][]int) {
			phase++
			want := remainingComponents(c.in.G, pt)
			if !slices.EqualFunc(comps, want, slices.Equal[[]int]) {
				t.Fatalf("%s: phase %d: joins left %d components, the mask walk finds %d (or their vertices or order differ)",
					c.name, phase, len(comps), len(want))
			}
			phases++
			if len(comps) > 1 {
				multi++
			}
		}, nil, nil)
	}
	// Order is only tested where a phase has several components.
	if multi == 0 {
		t.Fatal("no phase had more than one component")
	}
	t.Logf("%d phases agree (%d with several components)", phases, multi)
}

// TestJoinHalvingEveryPhase holds every JOIN of every phase case to
// Lemma 2's bound (checkHalving): the separators the build joins are
// simple G-paths, so each sub-phase leaves at most half of the missing
// run.
func TestJoinHalvingEveryPhase(t *testing.T) {
	joins, multi := 0, 0
	for _, c := range phaseCases(t) {
		g := c.in.G
		forEachPhaseComponent(t, c.name, c.in, c.root, nil, nil, func(s *separator.Separator, st *JoinStats) {
			sep := s.Path
			for i := 1; i < len(sep); i++ {
				if !g.HasEdge(sep[i-1], sep[i]) {
					t.Fatalf("%s: separator step {%d,%d} is not an edge", c.name, sep[i-1], sep[i])
				}
			}
			checkHalving(t, c.name, st, len(sep))
			joins++
			if st.SubPhases > 1 {
				multi++
			}
		})
	}
	if multi == 0 {
		t.Fatal("every join took one sub-phase")
	}
	t.Logf("%d joins within the bound (%d with several sub-phases)", joins, multi)
}

// phaseCase is one instance and root the phase-driven tests run.
type phaseCase struct {
	name string
	in   *gen.Instance
	root int
}

// phaseCases lists the phase-driven instances: roots on the outer face
// exercise the dart-into-T_d rule, and interior roots also the phases in
// which the outer face lies inside one component.
func phaseCases(t *testing.T) []phaseCase {
	t.Helper()
	type instance struct {
		family string
		n      int
		seed   int64
	}
	var cases []instance
	for seed := int64(1); seed <= 6; seed++ {
		cases = append(cases, instance{"stacked", 300, seed})
	}
	cases = append(cases, instance{"grid", 400, 1}, instance{"cylinderish", 400, 1}, instance{"wheel", 200, 1})
	var out []phaseCase
	for _, c := range cases {
		in, err := gen.ByName(c.family, c.n, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, root := range []int{in.Emb.FaceRoot(in.OuterDart), in.G.N() / 2} {
			out = append(out, phaseCase{fmt.Sprintf("%s/n=%d/seed=%d/root=%d", c.family, c.n, c.seed, root), in, root})
		}
	}
	return out
}

// TestOuterRegionDartMatchesUnionFind drives the phases and joins of the
// build and checks, for every remaining component, that the dart the
// build names locally (outerRegionDart) selects the same restricted outer
// face as the union–find over all parent faces (OuterRegionDart).
func TestOuterRegionDartMatchesUnionFind(t *testing.T) {
	checked, viaOuterDart := 0, 0
	for _, c := range phaseCases(t) {
		name, in := c.name, c.in
		emb := in.Emb
		forEachPhaseComponent(t, name, in, c.root, nil, func(pc phaseComponent) {
			comp, dart := pc.comp, pc.dart
			if dart == in.OuterDart && !pc.pt.Has(emb.HeadOf(dart)) {
				viaOuterDart++
			}
			ref, err := emb.OuterRegionDart(comp, in.OuterDart)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := pc.rs.Restrict(pc.i, dart)
			if err != nil {
				t.Fatalf("%s: restricting around the local dart: %v", name, err)
			}
			local := res.OuterDart
			// The restriction is rebuilt in place, the same
			// sub-embedding around another dart, so the two sub-darts
			// are comparable.
			res, err = pc.rs.Restrict(pc.i, ref)
			if err != nil {
				t.Fatalf("%s: restricting around the union–find dart: %v", name, err)
			}
			global := res.OuterDart
			if (local < 0) != (global < 0) {
				t.Fatalf("%s: component %v: outer darts %d vs %d", name, comp, local, global)
			}
			if local >= 0 {
				sfs := res.Emb.TraceFaces()
				if sfs.FaceOf[local] != sfs.FaceOf[global] {
					t.Fatalf("%s: component of %d vertices at %d: local dart %d and union–find dart %d select different outer faces",
						name, len(comp), comp[0], dart, ref)
				}
			}
			checked++
		}, nil)
	}
	if viaOuterDart == 0 {
		t.Fatal("no component held the whole outer face; the interior roots no longer cover that case")
	}
	t.Logf("%d restrictions agree (%d named by the outer dart itself)", checked, viaOuterDart)
}
