package dfs

import (
	"cmp"
	"fmt"
	"slices"

	"planardfs/internal/dist"
	"planardfs/internal/graph"
	"planardfs/internal/planar"
	"planardfs/internal/separator"
	"planardfs/internal/shortcut"
	"planardfs/internal/trace"
)

// Trace records the structure of a DFS-tree construction run, from which
// the round cost under any cost model is derived (see package dist).
type Trace struct {
	// Phases is the number of outer recursion phases (O(log n) by the 2/3
	// component shrink).
	Phases int
	// MaxComponent[i] is the largest remaining component at the start of
	// phase i.
	MaxComponent []int
	// Components[i] is the number of remaining components at the start of
	// phase i.
	Components []int
	// SeparatorCalls counts per-component separator computations (run in
	// parallel within a phase in the distributed model).
	SeparatorCalls int
	// JoinSubPhases is the total number of join sub-phases over all phases;
	// MaxJoinSubPhases is the largest single JOIN-PROBLEM's sub-phase count
	// (joins of distinct components run in parallel).
	JoinSubPhases    int
	MaxJoinSubPhases int
	// SeparatorPhases tallies which separator phases produced the cuts.
	SeparatorPhases map[separator.Phase]int
	// EngineFallbacks counts per-component separator calls on which a
	// non-default engine failed softly and the run fell back to the
	// Theorem 1 engine (always zero when building with the default).
	EngineFallbacks int
}

// Ops is the run's primitive tally under the Theorem 2 round account
// (dist.DFSBuildOps): per phase, one separator computation plus the
// deepest join's sub-phases. Its Rounds under a cost model is the charged
// round cost of the run on an n-vertex graph.
func (t *Trace) Ops(n int) dist.Ops {
	return dist.DFSBuildOps(n, t.Phases, t.MaxJoinSubPhases)
}

// Charge records the run's round account on tracer (nil or disabled
// records nothing): a dfs-layer dfs.build span holding one dfs.phase span
// per recursion phase, each charging the two parts of dist.DFSPhaseOps
// under cm — every component's separator in parallel, then the deepest
// join's sub-phases. The round clock therefore advances by exactly
// t.Ops(n).Rounds(cm, 1), the run's charged cost.
func (t *Trace) Charge(tracer trace.Tracer, n int, cm shortcut.CostModel) {
	m := dist.NewMeter(tracer, cm)
	if !m.On() {
		return
	}
	build := m.Start(trace.LayerDFS, "dfs.build")
	sepOps, joinOps := dist.DFSPhaseOps(n, t.MaxJoinSubPhases)
	for i, maxC := range t.MaxComponent {
		phase := m.Start(trace.LayerDFS, "dfs.phase")
		phase.SetAttr("phase", int64(i+1))
		phase.SetAttr("components", int64(t.Components[i]))
		phase.SetAttr("max_component", int64(maxC))
		tracer.SetGauge("dfs.max_component", int64(maxC))
		tracer.Sample("dfs.max_component", int64(maxC))
		m.Charge(trace.LayerSeparator, "separator.components", sepOps)
		m.Charge(trace.LayerDFS, "join.subphases", joinOps,
			trace.Attr{Key: "subphases", Val: int64(t.MaxJoinSubPhases)})
		phase.End()
	}
	tracer.Count("dfs.phases", int64(t.Phases))
	tracer.Count("dfs.separator_calls", int64(t.SeparatorCalls))
	tracer.Count("dfs.join_subphases", int64(t.JoinSubPhases))
	build.SetAttr("phases", int64(t.Phases))
	build.SetAttr("separator_calls", int64(t.SeparatorCalls))
	build.End()
}

// Build computes a DFS tree of the embedded planar graph rooted at root by
// the main algorithm of Section 3.2/6.2: per phase, a cycle separator of
// every remaining component is computed (Theorem 1) and joined to the
// partial DFS tree by the DFS-RULE (Lemma 2).
func Build(g *graph.Graph, emb *planar.Embedding, outerDart, root int) (*PartialTree, *Trace, error) {
	return BuildWithSeparator(g, emb, outerDart, root, nil, separator.Find)
}

// BuildWithSeparator is Build with the per-component separator computation
// swapped out: find runs on each remaining component's restricted
// configuration (see separator.ForSubset). Each restriction is built
// around a dart found inside its component (outerRegionDart). One
// separator.Workspace per build splits each phase's components once and
// rebuilds every component's restriction, BFS tree and configuration in
// place, and the join state is allocated once per build and reset over
// each component only, so a component costs its own size, not n. The
// caller keeps any engine-fallback policy inside find and may
// record its fallback count on the returned Trace.
//
// The build records nothing on a tracer: the returned Trace is the record,
// and the caller charges it under the cost model it prices the run with
// (Trace.Charge). The tracer argument is ignored; it remains for callers
// compiled against the earlier signature (the planardbench module).
func BuildWithSeparator(g *graph.Graph, emb *planar.Embedding, outerDart, root int, _ trace.Tracer, find separator.FindFunc) (*PartialTree, *Trace, error) {
	if err := g.CheckVertex(root); err != nil {
		return nil, nil, err
	}
	if !g.Connected() {
		return nil, nil, fmt.Errorf("dfs: graph is not connected")
	}
	if err := emb.CheckOuterDart(outerDart); err != nil {
		return nil, nil, err
	}
	outerInTree := false
	pt := NewPartialTree(g.N(), root)
	sc := newJoinScratch(g.N())
	ws := separator.NewWorkspace(emb)
	tr := &Trace{SeparatorPhases: map[separator.Phase]int{}}
	comps := firstComponents(g, pt, sc)
	for len(comps) > 0 {
		tr.Phases++
		if tr.Phases > g.N()+2 {
			return nil, nil, fmt.Errorf("dfs: did not converge")
		}
		if !outerInTree {
			outerInTree = faceMeetsTree(emb, pt, outerDart)
		}
		maxC := 0
		for _, c := range comps {
			if len(c) > maxC {
				maxC = len(c)
			}
		}
		tr.MaxComponent = append(tr.MaxComponent, maxC)
		tr.Components = append(tr.Components, len(comps))
		// The phase's components are fixed here and no join touches
		// another component's vertices, so one split serves the phase.
		if err := ws.Split(comps); err != nil {
			return nil, nil, fmt.Errorf("dfs: phase %d: %w", tr.Phases, err)
		}
		var next [][]int
		for i, comp := range comps {
			sep, err := separator.ForSubset(ws, i, outerRegionDart(emb, pt, comp, outerDart, outerInTree), find)
			if err != nil {
				return nil, nil, fmt.Errorf("dfs: phase %d: %w", tr.Phases, err)
			}
			tr.SeparatorCalls++
			tr.SeparatorPhases[sep.Phase]++
			st, pieces, err := joinSeparator(g, pt, comp, sep.Path, sc)
			if err != nil {
				return nil, nil, fmt.Errorf("dfs: phase %d join: %w", tr.Phases, err)
			}
			tr.JoinSubPhases += st.SubPhases
			if st.SubPhases > tr.MaxJoinSubPhases {
				tr.MaxJoinSubPhases = st.SubPhases
			}
			next = append(next, pieces...)
		}
		comps = sortComponents(next)
	}
	if err := IsDFSTree(g, root, pt.Parent); err != nil {
		return nil, nil, fmt.Errorf("dfs: output invalid: %w", err)
	}
	return pt, tr, nil
}

// outerRegionDart returns, in O(Σ deg(comp)), a dart with its tail in
// comp, a component of G − T_d, whose face lies in the parent's outer
// region once G is cut down to G[comp]: the dart comp's restriction is
// built around (planar.Restricter.Restrict; DESIGN.md §17 has the
// proof). V − comp is connected, since T_d is and every other component
// touches it, so every parent face touching V − comp merges into one
// region. That region holds the face of any dart into T_d, and it holds
// the outer face once one outer-face vertex lies outside comp.
// outerInTree reports that the outer face meets T_d. Until it does, the
// outer face's vertices all lie in one component, which gets outerDart
// itself.
func outerRegionDart(emb *planar.Embedding, pt *PartialTree, comp []int, outerDart int, outerInTree bool) int {
	if !outerInTree {
		if _, ok := slices.BinarySearch(comp, emb.TailOf(outerDart)); ok {
			return outerDart
		}
	}
	for _, u := range comp {
		d0 := emb.FirstDart(u)
		if d0 < 0 {
			continue
		}
		for d := d0; ; {
			if pt.Has(emb.HeadOf(d)) {
				return d
			}
			if d = emb.NextCW(d); d == d0 {
				break
			}
		}
	}
	return -1
}

// faceMeetsTree reports whether some vertex of d's face is in the
// partial tree, by one walk of the face.
func faceMeetsTree(emb *planar.Embedding, pt *PartialTree, d int) bool {
	for x := emb.FaceNext(d); ; x = emb.FaceNext(x) {
		if pt.Has(emb.TailOf(x)) {
			return true
		}
		if x == d {
			return false
		}
	}
}

// firstComponents splits G − {root}, the first phase's components, with
// the join's walk over every vertex, leaving sc clear.
func firstComponents(g *graph.Graph, pt *PartialTree, sc *joinScratch) [][]int {
	all := sc.flat[:g.N()]
	for v := range all {
		all[v] = v
		sc.inComp[v] = true
	}
	comps := componentsWithin(g, all, sc, pt, make([]int, 0, g.N()), nil)
	clear(sc.inComp)
	return comps
}

// sortComponents orders a phase's collected join pieces by smallest
// vertex, the order the next phase visits them in. The pieces are
// disjoint and each is sorted ascending, so the order is total.
func sortComponents(comps [][]int) [][]int {
	slices.SortFunc(comps, func(a, b []int) int { return cmp.Compare(a[0], b[0]) })
	return comps
}
