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
	"planardfs/internal/spanning"
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

// Build computes a DFS tree of the embedded planar graph rooted at root by
// the main algorithm of Section 3.2/6.2: per phase, a cycle separator of
// every remaining component is computed (Theorem 1) and joined to the
// partial DFS tree by the DFS-RULE (Lemma 2).
func Build(g *graph.Graph, emb *planar.Embedding, outerDart, root int) (*PartialTree, *Trace, error) {
	return BuildWithSeparator(g, emb, outerDart, root, nil, separator.Find)
}

// BuildWithSeparator is Build with the run recorded on tracer (nil
// disables tracing) and the per-component separator computation swapped
// out: find runs on each remaining component's restricted configuration
// (see separator.ForSubsetWith). Each restriction is built around a dart
// found inside its component (outerRegionDart), and the restriction index
// and the join state are allocated once per build and reset over each
// component only, so a component costs its own size, not n.
// Tracing records a dfs-layer span per recursion phase, the span
// structure of every per-component separator call, and a dfs-layer span
// per JOIN sub-phase, all stamped with the charged round clock under the
// paper cost model. The caller keeps any engine-fallback policy inside
// find and may record its fallback count on the returned Trace.
func BuildWithSeparator(g *graph.Graph, emb *planar.Embedding, outerDart, root int, tracer trace.Tracer, find separator.FindFunc) (*PartialTree, *Trace, error) {
	if err := g.CheckVertex(root); err != nil {
		return nil, nil, err
	}
	if !g.Connected() {
		return nil, nil, fmt.Errorf("dfs: graph is not connected")
	}
	if err := emb.CheckOuterDart(outerDart); err != nil {
		return nil, nil, err
	}
	tracer = trace.OrNop(tracer)
	var m *dist.Meter
	var buildSpan trace.Span
	if tracer.Enabled() {
		// The cost model charges the BFS depth from the root as the
		// diameter proxy (depth <= D <= 2·depth).
		depth := 0
		if bt, err := spanning.BFSTree(g, root); err == nil {
			depth = bt.MaxDepth()
		}
		m = dist.NewMeter(tracer, shortcut.PaperCost{D: depth, N: g.N()}, 1)
		buildSpan = tracer.StartSpan(trace.LayerDFS, "dfs.build")
		defer buildSpan.End()
	}
	fs := emb.TraceFaces()
	outerVerts := fs.FaceVertices(int(fs.FaceOf[outerDart]))
	outerInTree := false
	pt := NewPartialTree(g.N(), root)
	sc := newJoinScratch(g.N())
	rs := planar.NewRestricter(emb)
	tr := &Trace{SeparatorPhases: map[separator.Phase]int{}}
	comps := firstComponents(g, pt, sc)
	for len(comps) > 0 {
		tr.Phases++
		if tr.Phases > g.N()+2 {
			return nil, nil, fmt.Errorf("dfs: did not converge")
		}
		if !outerInTree {
			outerInTree = anyAdded(pt, outerVerts)
		}
		maxC := 0
		for _, c := range comps {
			if len(c) > maxC {
				maxC = len(c)
			}
		}
		tr.MaxComponent = append(tr.MaxComponent, maxC)
		phaseSpan := tracer.StartSpan(trace.LayerDFS, "dfs.phase")
		phaseSpan.SetAttr("phase", int64(tr.Phases))
		phaseSpan.SetAttr("components", int64(len(comps)))
		phaseSpan.SetAttr("max_component", int64(maxC))
		tracer.SetGauge("dfs.max_component", int64(maxC))
		tracer.Sample("dfs.max_component", int64(maxC))
		var next [][]int
		for _, comp := range comps {
			var septr trace.Tracer
			if tracer.Enabled() {
				septr = tracer
			}
			sep, err := separator.ForSubsetWith(rs, outerRegionDart(emb, pt, comp, outerDart, outerInTree), comp, septr, find)
			if err != nil {
				return nil, nil, fmt.Errorf("dfs: phase %d: %w", tr.Phases, err)
			}
			tr.SeparatorCalls++
			tr.SeparatorPhases[sep.Phase]++
			st, pieces, err := joinSeparator(g, pt, comp, sep.Path, m, sc)
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
		phaseSpan.End()
	}
	if tracer.Enabled() {
		tracer.Count("dfs.phases", int64(tr.Phases))
		tracer.Count("dfs.separator_calls", int64(tr.SeparatorCalls))
		tracer.Count("dfs.join_subphases", int64(tr.JoinSubPhases))
		buildSpan.SetAttr("phases", int64(tr.Phases))
		buildSpan.SetAttr("separator_calls", int64(tr.SeparatorCalls))
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

// anyAdded reports whether some vertex of vs is in the partial tree.
func anyAdded(pt *PartialTree, vs []int) bool {
	for _, v := range vs {
		if pt.Has(v) {
			return true
		}
	}
	return false
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
