package dfs

import (
	"cmp"
	"fmt"
	"slices"

	"planardfs/internal/graph"
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
// costs its component, not the graph: inComp, missing and pos are set and
// cleared over the component's own vertices, and the epoch-stamped arrays
// (seen/vis) are reset in O(1) between sub-phases and components by
// bumping the epoch instead of clearing.
type joinScratch struct {
	inComp  []bool
	missing []bool
	pos     []int32 // 1-based position on the separator path, 0 off it
	seenEp  []int32 // componentsWithin visitation; piece membership in attachWalk
	visEp   []int32 // reached by the entry BFS (parent valid)
	parent  []int32
	epoch   int32
	flat    []int   // componentsWithin pieces of a sub-phase, reused
	pieces  [][]int // their headers, reused
	pieceOf []int32 // componentsWithin: the piece of each vertex it reached
	place   []int   // componentsWithin: where each piece's next vertex goes, reused
	queue   []int32 // entry BFS queue, reused
	cands   []int32 // the separator vertices the entry BFS stopped at, reused
	path    []int   // the attached path, reused
}

func newJoinScratch(n int) *joinScratch {
	return &joinScratch{
		inComp:  make([]bool, n),
		missing: make([]bool, n),
		pos:     make([]int32, n),
		seenEp:  make([]int32, n),
		visEp:   make([]int32, n),
		parent:  make([]int32, n),
		flat:    make([]int, n),
		pieceOf: make([]int32, n),
	}
}

// joinSeparator adds every vertex of the separator path sep (a subset of
// the component comp of G - T_d, sorted ascending) to the partial tree
// following the DFS-RULE (Lemma 2). In each sub-phase, every remaining
// component that still holds separator vertices is entered below its
// deepest T_d neighbour, a BFS from the entry finds the nearest separator
// vertices, and the path to one of them is attached, continued along sep
// over the longer run of separator vertices still missing. When sep is a
// simple G-path, each sub-phase leaves at most half of the run, so the
// join takes at most ⌈log₂(|sep|+1)⌉ sub-phases.
//
// It runs on the build's scratch sc and also returns the pieces it leaves,
// the next phase's components inside comp (see componentsWithin). It
// leaves sc clear for the next component.
func joinSeparator(g *graph.Graph, pt *PartialTree, comp []int, sep []int, sc *joinScratch) (*JoinStats, [][]int, error) {
	defer func() {
		for _, v := range comp {
			sc.inComp[v] = false
			sc.missing[v] = false
			sc.pos[v] = 0
		}
	}()
	for _, v := range comp {
		if pt.Has(v) {
			return nil, nil, fmt.Errorf("dfs: component vertex %d already added", v)
		}
		sc.inComp[v] = true
	}
	if len(sep) > len(comp) {
		return nil, nil, fmt.Errorf("dfs: separator of %d vertices in a component of %d", len(sep), len(comp))
	}
	missingCnt := 0
	for i, v := range sep {
		if !sc.inComp[v] {
			return nil, nil, fmt.Errorf("dfs: separator vertex %d outside component", v)
		}
		if !sc.missing[v] {
			sc.missing[v] = true
			//planarvet:narrowok i < len(sep) <= len(comp) <= n, and graph.New bounds n to MaxInt32
			sc.pos[v] = int32(i + 1)
			missingCnt++
		}
	}
	st := &JoinStats{Remaining: []int{missingCnt}}
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
			if err := attachWalk(g, pt, x, sep, sc); err != nil {
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
	}
}

// componentsWithin returns the connected components of the not-yet-added
// vertices of comp, each sorted ascending and capped at its length, laid
// out in flat[:0] with their headers in comps[:0]. comp is sorted, so the
// pieces come out ordered by smallest vertex. A BFS per piece labels its
// vertices in sc.pieceOf, using the piece's own range of flat as its
// queue; one ascending sweep of comp then rewrites each range in order.
func componentsWithin(g *graph.Graph, comp []int, sc *joinScratch, pt *PartialTree, flat []int, comps [][]int) [][]int {
	sc.epoch++
	ep := sc.epoch
	flat, comps = flat[:0], comps[:0]
	place := sc.place[:0]
	for _, v := range comp {
		if sc.seenEp[v] == ep || pt.Has(v) {
			continue
		}
		start := len(flat)
		//planarvet:narrowok a piece id is below the piece count, at most n, and graph.New bounds n to MaxInt32
		k := int32(len(comps))
		flat = append(flat, v)
		sc.seenEp[v], sc.pieceOf[v] = ep, k
		for qi := start; qi < len(flat); qi++ {
			x := flat[qi]
			for _, id := range g.IncidentEdges(x) {
				w := g.Other(int(id), x)
				if sc.inComp[w] && sc.seenEp[w] != ep && !pt.Has(w) {
					sc.seenEp[w], sc.pieceOf[w] = ep, k
					flat = append(flat, w)
				}
			}
		}
		comps = append(comps, flat[start:len(flat):len(flat)])
		place = append(place, start)
	}
	for _, v := range comp {
		if sc.seenEp[v] == ep {
			k := sc.pieceOf[v]
			flat[place[k]] = v
			place[k]++
		}
	}
	sc.place = place
	return comps
}

// attachWalk runs the DFS-RULE of one sub-phase on the piece x, which
// still holds separator vertices. The anchor is the deepest T_d neighbour
// of x; the entry is the anchor's smallest neighbour in x that is not a
// missing separator vertex, or its smallest missing one if it has no
// other. A BFS from the entry that stops at missing separator vertices
// reaches the candidates p, each by a path holding no other separator
// vertex. The candidate whose longer run along sep (see runAround) is
// longest, smaller id first, wins: the path entry→p, then p to the end of
// that run, is attached below the anchor.
func attachWalk(g *graph.Graph, pt *PartialTree, x, sep []int, sc *joinScratch) error {
	anchor := pt.DeepestNeighborIn(g, x)
	if anchor < 0 {
		return fmt.Errorf("dfs: component has no neighbour in the partial tree")
	}
	sc.epoch++
	ep := sc.epoch
	// seenEp doubles as x-membership here (it is idle between
	// componentsWithin calls, and each call takes a fresh epoch).
	for _, v := range x {
		sc.seenEp[v] = ep
	}
	entry := -1
	for _, id := range g.IncidentEdges(anchor) {
		w := g.Other(int(id), anchor)
		if sc.seenEp[w] != ep {
			continue
		}
		if entry < 0 || (sc.missing[entry] && !sc.missing[w]) || (sc.missing[entry] == sc.missing[w] && w < entry) {
			entry = w
		}
	}
	// Every vertex of x enters the queue at most once, and so does every
	// candidate; both buffers are (re)grown here, outside the noalloc core.
	if cap(sc.queue) < len(x) {
		sc.queue = make([]int32, len(x))
		sc.cands = make([]int32, 0, len(x))
	}
	sc.nearestSeparatorBFS(g, entry, ep)
	if len(sc.cands) == 0 {
		return fmt.Errorf("dfs: component lost its separator vertices")
	}
	// In path order, the candidates of one run are adjacent, so each run
	// is walked once.
	slices.SortFunc(sc.cands, func(a, b int32) int { return cmp.Compare(sc.pos[a], sc.pos[b]) })
	best, bestScore, bestI, bestLo, bestHi := -1, 0, 0, 0, 0
	lo, hi := 0, -1
	for _, c := range sc.cands {
		i := int(sc.pos[c]) - 1
		if i > hi {
			lo, hi = sc.runAround(g, sep, i, ep)
		}
		score := 1 + max(i-lo, hi-i)
		if score > bestScore || (score == bestScore && int(c) < best) {
			best, bestScore, bestI, bestLo, bestHi = int(c), score, i, lo, hi
		}
	}
	// The path entry..best, in attach order, then the longer run.
	path := sc.path[:0]
	for v := best; v != -1; v = int(sc.parent[v]) {
		path = append(path, v)
	}
	slices.Reverse(path)
	if bestHi-bestI >= bestI-bestLo {
		path = append(path, sep[bestI+1:bestHi+1]...)
	} else {
		for j := bestI - 1; j >= bestLo; j-- {
			path = append(path, sep[j])
		}
	}
	sc.path = path
	return pt.AttachPath(g, anchor, path)
}

// nearestSeparatorBFS is the steady-state core of the attachment: a BFS
// over the piece stamped ep from entry that does not expand past missing
// separator vertices, collecting the ones it reaches into sc.cands and
// the BFS tree into sc.parent. attachWalk presizes sc.queue and sc.cands
// to the piece size before the call, so the loop itself touches the
// allocator not at all; this is the BFS the join phase runs for every
// sub-phase of every component.
//
//planarvet:noalloc TestJoinDequeZeroAlloc
func (sc *joinScratch) nearestSeparatorBFS(g *graph.Graph, entry int, ep int32) {
	q := sc.queue[:cap(sc.queue)]
	cands := sc.cands[:cap(sc.cands)]
	//planarvet:narrowok entry is a vertex id, < n and graph.New bounds n to MaxInt32
	q[0] = int32(entry)
	tail, nc := 1, 0
	sc.visEp[entry] = ep
	sc.parent[entry] = -1
	for head := 0; head < tail; head++ {
		v := q[head]
		if sc.missing[v] {
			cands[nc] = v
			nc++
			continue
		}
		for _, id := range g.IncidentEdges(int(v)) {
			w := g.Other(int(id), int(v))
			if sc.seenEp[w] != ep || sc.visEp[w] == ep {
				continue
			}
			sc.visEp[w] = ep
			sc.parent[w] = v
			//planarvet:narrowok w is a vertex id, < n and graph.New bounds n to MaxInt32
			q[tail] = int32(w)
			tail++
		}
	}
	sc.cands = cands[:nc]
}

// runAround returns the run of sep around index i, whose vertex is a
// missing separator vertex of the piece stamped ep: the largest lo..hi
// holding i in which every vertex is a missing vertex of the piece at its
// first position in sep and consecutive vertices are joined by a G-edge.
// When sep is a simple G-path, the missing vertices of a join always form
// one such run (DESIGN §5).
func (sc *joinScratch) runAround(g *graph.Graph, sep []int, i int, ep int32) (lo, hi int) {
	on := func(j int) bool {
		v := sep[j]
		return sc.seenEp[v] == ep && sc.missing[v] && int(sc.pos[v]) == j+1
	}
	lo, hi = i, i
	for lo > 0 && on(lo-1) && g.HasEdge(sep[lo-1], sep[lo]) {
		lo--
	}
	for hi+1 < len(sep) && on(hi+1) && g.HasEdge(sep[hi], sep[hi+1]) {
		hi++
	}
	return lo, hi
}
