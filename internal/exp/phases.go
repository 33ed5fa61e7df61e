package exp

import (
	"planardfs/internal/dist"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
)

// The phase counters of E5 and E6. Both run centrally and send no
// messages: they replay the phase structure of Lemma 11 and Lemma 13 on
// the whole tree to count the phases the lemmas bound. The Theorem 1 and
// Theorem 2 drivers price these lemmas by dist.DFSOrderOps and
// dist.MarkPathOps and never call the counters.

// dfsOrderPhases is the output of countDFSOrderPhases.
type dfsOrderPhases struct {
	PiL, PiR []int
	// Phases is the number of fragment-merge phases; Lemma 11 proves
	// O(log n) phases, each costing O(1) PA rounds.
	Phases int
	Ops    dist.Ops
}

// countDFSOrderPhases replays the fragment merging of Lemma 11 on a tree
// with embedding-ordered children: every vertex starts as its own
// fragment knowing only its subtree size; fragments at odd depth of the
// fragment tree merge into their parent fragment each phase, with the host
// assigning the joining fragment its base position from sibling subtree
// sizes; after O(log depth(T)) phases a single fragment remains and every
// vertex holds its LEFT and RIGHT order positions.
//
// E5 checks the orders against the centralized ones and reports the
// phase count.
func countDFSOrderPhases(t *spanning.Tree, childOrder [][]int) *dfsOrderPhases {
	n := t.N()
	res := &dfsOrderPhases{
		PiL: make([]int, n),
		PiR: make([]int, n),
	}
	if n == 1 {
		res.Ops = dist.Ops{TreeAgg: 1}
		return res
	}

	// Subtree sizes are known from one descendant-sum (Prop. 5).
	res.Ops = res.Ops.Plus(dist.Ops{TreeAgg: 1})

	// offsetX[v] is v's position relative to its fragment root in the
	// respective order (final positions once the root fragment absorbs
	// everything).
	fragOf := make([]int, n) // fragment root of each vertex
	members := make([][]int, n)
	for v := 0; v < n; v++ {
		fragOf[v] = v
		members[v] = []int{v}
	}
	offL := make([]int, n)
	offR := make([]int, n)

	// base positions of a child c among its siblings: 1 + sum of subtree
	// sizes of siblings visited earlier.
	baseL := make([]int, n)
	baseR := make([]int, n)
	for v := 0; v < n; v++ {
		cs := childOrder[v]
		// RIGHT order visits ascending rotation position.
		acc := 1
		for _, c := range cs {
			baseR[c] = acc
			acc += t.SubtreeSize(c)
		}
		// LEFT order visits descending rotation position.
		acc = 1
		for i := len(cs) - 1; i >= 0; i-- {
			baseL[cs[i]] = acc
			acc += t.SubtreeSize(cs[i])
		}
	}

	for {
		roots := []int{}
		for v := 0; v < n; v++ {
			if fragOf[v] == v && len(members[v]) > 0 {
				roots = append(roots, v)
			}
		}
		if len(roots) == 1 {
			break
		}
		res.Phases++
		res.Ops = res.Ops.Plus(dist.Ops{PA: 2, Local: 1}) // per-phase broadcasts

		// Fragment-tree depth via the parents of fragment roots.
		fragDepth := make(map[int]int, len(roots))
		var depthOf func(r int) int
		depthOf = func(r int) int {
			if d, ok := fragDepth[r]; ok {
				return d
			}
			if r == t.Root {
				fragDepth[r] = 0
				return 0
			}
			d := depthOf(fragOf[t.Parent[r]]) + 1
			fragDepth[r] = d
			return d
		}
		for _, r := range roots {
			depthOf(r)
		}

		// Odd-depth fragments merge into their parent fragment.
		for _, r := range roots {
			if fragDepth[r]%2 == 0 {
				continue
			}
			host := fragOf[t.Parent[r]]
			// The joining root's base within the host: its parent's offset
			// plus its sibling base.
			dL := offL[t.Parent[r]] + baseL[r]
			dR := offR[t.Parent[r]] + baseR[r]
			for _, v := range members[r] {
				offL[v] += dL
				offR[v] += dR
				fragOf[v] = host
			}
			members[host] = append(members[host], members[r]...)
			members[r] = nil
		}
	}
	copy(res.PiL, offL)
	copy(res.PiR, offR)
	return res
}

// markPathPhases is the output of countMarkPathPhases.
type markPathPhases struct {
	// Marked[v] reports membership of v in the T-path between the inputs.
	Marked []bool
	// Phases is the number of recursive halving phases; Iterations is the
	// total number of fragment-merge iterations across all phases (each
	// iteration costs O(1) PA rounds). Lemma 13 proves O(log n) phases of
	// O(log n) iterations.
	Phases     int
	Iterations int
}

// countMarkPathPhases replays the phase structure of Lemma 13: each phase
// locates, for every active path segment in parallel, the edge at the
// middle of the segment by fragment merging over the tree (halving the
// maximum fragment depth per iteration); the two halves recurse in
// parallel until every path edge is marked.
//
// E6 reports the phase and iteration counts.
func countMarkPathPhases(t *spanning.Tree, u, v int) *markPathPhases {
	res := &markPathPhases{Marked: make([]bool, t.N())}
	path := t.TPath(u, v)
	for _, x := range path {
		res.Marked[x] = true
	}
	// Phase structure: segments of vertex-length L are split at their
	// middle edge; a segment of length <= 2 is fully marked by its
	// endpoints. Each phase runs one fragment-merging search whose
	// iteration count is bounded by ceil(log2(maxDepth+1)) — the merging
	// halves fragment depths exactly as in Lemma 11.
	iterPerPhase := shortcut.Log2Ceil(t.MaxDepth() + 2)
	segs := [][2]int{{0, len(path) - 1}}
	for len(segs) > 0 {
		var next [][2]int
		active := false
		for _, s := range segs {
			if s[1]-s[0] <= 1 {
				continue
			}
			active = true
			mid := (s[0] + s[1]) / 2
			next = append(next, [2]int{s[0], mid}, [2]int{mid, s[1]})
		}
		if !active {
			break
		}
		res.Phases++
		res.Iterations += iterPerPhase
		segs = next
	}
	return res
}
