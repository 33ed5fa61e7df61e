package dfs

import (
	"fmt"
	"sort"

	"planardfs/internal/dist"
	"planardfs/internal/graph"
	"planardfs/internal/trace"
)

// JoinStats reports the work of one JOIN-PROBLEM invocation (Lemma 2).
type JoinStats struct {
	// SubPhases counts the path-attachment rounds used until the whole
	// separator set was absorbed.
	SubPhases int
	// Remaining[i] is the number of separator vertices still missing after
	// sub-phase i (Remaining[0] is the initial count); the paper proves a
	// geometric decrease.
	Remaining []int
}

// joinScratch holds the flat per-vertex state of the JOIN-PROBLEMs of one
// build. The arrays are sized n and allocated once per build, so a join
// costs its component, not the graph: inComp and missing are set and
// cleared over the component's own vertices, and the epoch-stamped arrays
// (seen/vis/set) are reset in O(1) between sub-phases and components by
// bumping the epoch instead of clearing.
type joinScratch struct {
	inComp  []bool
	missing []bool
	seenEp  []int32 // componentsWithin visitation
	visEp   []int32 // dist/parent valid
	setEp   []int32 // settled in the 0/1 BFS
	parent  []int32
	dist    []int32
	cnt     []int32 // separator vertices on the root path
	epoch   int32
	flat    []int   // componentsWithin pieces of a sub-phase, reused
	pieces  [][]int // their headers, reused
	order   []int32 // 0/1 BFS settle order, reused
	deque   []int32 // 0/1 BFS deque buffer, reused across attachBestPath calls
}

func newJoinScratch(n int) *joinScratch {
	return &joinScratch{
		inComp:  make([]bool, n),
		missing: make([]bool, n),
		seenEp:  make([]int32, n),
		visEp:   make([]int32, n),
		setEp:   make([]int32, n),
		parent:  make([]int32, n),
		dist:    make([]int32, n),
		cnt:     make([]int32, n),
		flat:    make([]int, n),
	}
}

// JoinSeparator adds every vertex of the separator set (a subset of the
// component comp of G - T_d) to the partial tree following the DFS-RULE
// (Lemma 2). In each sub-phase, every remaining component that still holds
// separator vertices is entered at its vertex with the deepest T_d
// neighbour, a spanning tree preferring separator-separator edges is grown
// from there, and the root path holding the most separator vertices is
// attached.
func JoinSeparator(g *graph.Graph, pt *PartialTree, comp []int, sep []int) (*JoinStats, error) {
	sorted := append([]int(nil), comp...)
	sort.Ints(sorted)
	st, _, err := joinSeparator(g, pt, sorted, sep, nil, newJoinScratch(g.N()))
	return st, err
}

// joinSeparator is JoinSeparator on the build's scratch sc, for a comp
// sorted ascending, with per-sub-phase spans on m: each sub-phase charges
// the Lemma 2 budget (spanning forest, re-root, LCA, the two PA problems
// of the DFS-RULE, and marking the attached path) and records the
// remaining separator count. It also returns the pieces it leaves, the
// next phase's components inside comp (see componentsWithin). It leaves sc
// clear for the next component.
func joinSeparator(g *graph.Graph, pt *PartialTree, comp []int, sep []int, m *dist.Meter, sc *joinScratch) (*JoinStats, [][]int, error) {
	defer func() {
		for _, v := range comp {
			sc.inComp[v] = false
			sc.missing[v] = false
		}
	}()
	for _, v := range comp {
		if pt.Has(v) {
			return nil, nil, fmt.Errorf("dfs: component vertex %d already added", v)
		}
		sc.inComp[v] = true
	}
	missingCnt := 0
	for _, v := range sep {
		if !sc.inComp[v] {
			return nil, nil, fmt.Errorf("dfs: separator vertex %d outside component", v)
		}
		if !sc.missing[v] {
			sc.missing[v] = true
			missingCnt++
		}
	}
	st := &JoinStats{Remaining: []int{missingCnt}}
	var joinSpan trace.Span
	if m.On() {
		joinSpan = m.Start(trace.LayerDFS, "join.problem")
		joinSpan.SetAttr("component", int64(len(comp)))
		joinSpan.SetAttr("separator", int64(missingCnt))
		defer func() {
			joinSpan.SetAttr("subphases", int64(st.SubPhases))
			joinSpan.End()
		}()
	}
	for {
		// The pieces of comp − T_d live in the scratch until none holds a
		// separator vertex; then they get their own array.
		if missingCnt == 0 {
			return st, componentsWithin(g, comp, sc, pt, make([]int, 0, len(comp)), nil), nil
		}
		sc.pieces = componentsWithin(g, comp, sc, pt, sc.flat, sc.pieces)
		st.SubPhases++
		if st.SubPhases > g.N()+2 {
			return nil, nil, fmt.Errorf("dfs: join did not converge")
		}
		var subSpan trace.Span
		if m.On() {
			subSpan = m.Start(trace.LayerDFS, "join.subphase")
			subSpan.SetAttr("subphase", int64(st.SubPhases))
			subSpan.SetAttr("remaining", int64(missingCnt))
		}
		for _, x := range sc.pieces {
			holds := false
			for _, v := range x {
				if sc.missing[v] {
					holds = true
					break
				}
			}
			if !holds {
				continue
			}
			if err := attachBestPath(g, pt, x, sc); err != nil {
				return nil, nil, err
			}
		}
		cnt := 0
		for _, v := range comp {
			if !sc.missing[v] {
				continue
			}
			if pt.Has(v) {
				sc.missing[v] = false
			} else {
				cnt++
			}
		}
		missingCnt = cnt
		st.Remaining = append(st.Remaining, cnt)
		if m.On() {
			// The Lemma 2 sub-phase budget: every open component runs these
			// in parallel, so the set is charged once.
			n := g.N()
			m.Charge(trace.LayerLemma, "lemma9.spanning-forest", dist.SpanningForestOps(n))
			m.Charge(trace.LayerLemma, "lemma19.re-root", dist.ReRootOps(n))
			m.Charge(trace.LayerLemma, "lemma14.lca", dist.LCAOps(n))
			m.Charge(trace.LayerLemma, "dfs-rule.pa-problems", dist.PAProblemOps().Times(2))
			m.Charge(trace.LayerLemma, "lemma13.mark-path", dist.MarkPathOps(n))
			m.Tracer().Observe("join.remaining", int64(cnt))
			subSpan.SetAttr("absorbed", int64(st.Remaining[st.SubPhases-1]-cnt))
			subSpan.End()
		}
	}
}

// componentsWithin returns the connected components of the not-yet-added
// vertices of comp, each sorted ascending and capped at its length, laid
// out in flat[:0] with their headers in comps[:0]. comp is sorted, so the
// pieces come out ordered by smallest vertex.
func componentsWithin(g *graph.Graph, comp []int, sc *joinScratch, pt *PartialTree, flat []int, comps [][]int) [][]int {
	sc.epoch++
	ep := sc.epoch
	flat, comps = flat[:0], comps[:0]
	for _, v := range comp {
		if sc.seenEp[v] == ep || pt.Has(v) {
			continue
		}
		start := len(flat) // the piece doubles as its BFS queue
		flat = append(flat, v)
		sc.seenEp[v] = ep
		for qi := start; qi < len(flat); qi++ {
			x := flat[qi]
			for _, id := range g.IncidentEdges(x) {
				w := g.Other(int(id), x)
				if sc.inComp[w] && sc.seenEp[w] != ep && !pt.Has(w) {
					sc.seenEp[w] = ep
					flat = append(flat, w)
				}
			}
		}
		piece := flat[start:len(flat):len(flat)]
		sort.Ints(piece)
		comps = append(comps, piece)
	}
	return comps
}

// attachBestPath grows a spanning tree of the component x from its
// DFS-RULE entry vertex, preferring separator-separator edges (the 0/1
// shortest-path tree standing in for the paper's 0/1-weight MST), finds the
// separator vertex whose root path carries the most separator vertices
// (an ANCESTOR-SUM in the distributed accounting), and attaches that path.
func attachBestPath(g *graph.Graph, pt *PartialTree, x []int, sc *joinScratch) error {
	entry, anchor := pt.DeepestNeighborIn(g, x)
	if entry < 0 {
		return fmt.Errorf("dfs: component has no neighbour in the partial tree")
	}
	sc.epoch++
	ep := sc.epoch
	// seenEp doubles as x-membership here (it is idle between
	// componentsWithin calls, and each call takes a fresh epoch).
	for _, v := range x {
		sc.seenEp[v] = ep
	}
	// 0/1 BFS from entry: separator-separator edges cost 0. The deque lives
	// in a scratch buffer with front/back cursors; each relaxation pushes
	// once, so relaxCap slots on each side suffice. The buffer and the
	// settle-order slice are (re)grown here, outside the noalloc core.
	relaxCap := 1
	for _, v := range x {
		relaxCap += g.Degree(v)
	}
	if cap(sc.deque) < 2*relaxCap {
		sc.deque = make([]int32, 2*relaxCap)
	}
	if cap(sc.order) < len(x) {
		sc.order = make([]int32, 0, len(x))
	}
	sc.run01BFS(g, entry, relaxCap, ep)
	return pickAndAttach(g, pt, x, sc, anchor, ep)
}

// run01BFS is the steady-state core of the attachment: the 0/1 BFS over
// the component, settling vertices into sc.order. attachBestPath presizes
// sc.deque (2·relaxCap slots) and sc.order (component size) before the
// call, so the loop itself touches the allocator not at all — this is the
// deque the join phase spins on for every sub-phase of every component.
//
//planarvet:noalloc TestJoinDequeZeroAlloc
func (sc *joinScratch) run01BFS(g *graph.Graph, entry, relaxCap int, ep int32) {
	buf := sc.deque[:cap(sc.deque)]
	f, b := relaxCap, relaxCap // [f, b) is the live deque
	//planarvet:narrowok entry is a vertex id, < n and graph.New bounds n to MaxInt32
	buf[b] = int32(entry)
	b++
	sc.visEp[entry] = ep
	sc.parent[entry] = -1
	sc.dist[entry] = 0
	sc.order = sc.order[:0]
	for f < b {
		v := int(buf[f])
		f++
		if sc.setEp[v] == ep {
			continue
		}
		sc.setEp[v] = ep
		//planarvet:narrowok v came out of the int32 deque, so it fits by construction
		sc.order = append(sc.order, int32(v)) //planarvet:allocok order is presized to the component size by attachBestPath, append stays in capacity
		for _, id := range g.IncidentEdges(v) {
			w := g.Other(int(id), v)
			if sc.seenEp[w] != ep || sc.setEp[w] == ep {
				continue
			}
			cost := int32(1)
			if sc.missing[v] && sc.missing[w] {
				cost = 0
			}
			d := sc.dist[v] + cost
			if sc.visEp[w] != ep || d < sc.dist[w] {
				sc.visEp[w] = ep
				sc.dist[w] = d
				//planarvet:narrowok v came out of the int32 deque, so it fits by construction
				sc.parent[w] = int32(v)
				if cost == 0 {
					f--
					//planarvet:narrowok w is a vertex id, < n and graph.New bounds n to MaxInt32
					buf[f] = int32(w)
				} else {
					//planarvet:narrowok w is a vertex id, < n and graph.New bounds n to MaxInt32
					buf[b] = int32(w)
					b++
				}
			}
		}
	}
}

// pickAndAttach finishes the DFS-RULE after the BFS: the ancestor sum over
// the settle order, the best-path selection, and the attachment.
func pickAndAttach(g *graph.Graph, pt *PartialTree, x []int, sc *joinScratch, anchor int, ep int32) error {
	// Count separator vertices on each root path (an ancestor sum): in the
	// 0/1 BFS, parent[w] is always settled before w, so the settle order is
	// a valid top-down sweep.
	for _, v32 := range sc.order {
		v := int(v32)
		var c int32
		if p := sc.parent[v]; p != -1 {
			c = sc.cnt[p]
		}
		if sc.missing[v] {
			c++
		}
		sc.cnt[v] = c
	}
	best, bestCnt := -1, int32(0)
	for _, v := range x {
		if !sc.missing[v] || sc.setEp[v] != ep {
			continue
		}
		if c := sc.cnt[v]; c > bestCnt || (c == bestCnt && (best < 0 || v < best)) {
			best, bestCnt = v, c
		}
	}
	if best < 0 {
		return fmt.Errorf("dfs: component lost its separator vertices")
	}
	// The path entry..best, in attach order.
	var path []int
	for v := best; v != -1; v = int(sc.parent[v]) {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return pt.AttachPath(g, anchor, path)
}
