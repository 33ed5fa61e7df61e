package cert

import (
	"fmt"
	"sort"

	"planardfs/internal/dist"
	"planardfs/internal/graph"
	"planardfs/internal/separator"
)

// The cycle-separator scheme. Label layout (11 words), field indices below:
//
//	[root, parent, depth, pos, side, L, nA, nB, sS, sA, sB]
//
// The first three fields certify a global spanning tree (the scheme reuses
// spanningJudge). pos is the vertex's position on the separator path S
// (-1 off the path), side its class (0 = on S, 1 = side A, 2 = side B),
// L/nA/nB the claimed global sizes of the three classes, and sS/sA/sB the
// per-class counts over the vertex's certified-tree subtree.
//
// Local predicate: the class constants are edge-uniform (hence global by
// connectivity) and locally plausible (L >= 1, L+nA+nB = n, both sides at
// most 2n/3); a path vertex at pos p has neighbours at pos p-1 and p+1
// (unless at an end); no edge joins side A to side B; the subtree counts
// sum correctly from the children's, and at the tree root they equal the
// claimed totals.
//
// Soundness: the certified counts force exactly L vertices onto S; the
// pos-chain conditions make the occupied positions downward- and
// upward-closed in [0, L), so each position is hit exactly once and S is a
// simple path with consecutive vertices adjacent in G. Every component of
// G - S is monochromatic (no A-B edge), so each has at most
// max(nA, nB) <= 2n/3 vertices — the separator balance guarantee of
// Theorem 1. What stays uncertified is the cycle closure through a virtual
// edge (an embedding-compatibility property with no local witness); the
// centralized oracle shares this scope.
const (
	sepFRoot = iota
	sepFParent
	sepFDepth
	sepFPos
	sepFSide
	sepFLen
	sepFCountA
	sepFCountB
	sepFSumS
	sepFSumA
	sepFSumB
	sepWords
)

// SeparatorSides 2-colors the components of g minus the path: components
// are assigned greedily in descending size to the lighter side (1 = A,
// 2 = B; path vertices stay 0). Both sides end at most 2n/3 exactly when
// every component is at most 2n/3, so a balanced separator always admits
// this assignment. It also returns the size of the largest component.
func SeparatorSides(g *graph.Graph, path []int) (side []int, maxComp int, err error) {
	n := g.N()
	removed := make([]bool, n)
	for _, v := range path {
		if v < 0 || v >= n {
			return nil, 0, fmt.Errorf("cert: separator vertex %d out of range", v)
		}
		removed[v] = true
	}
	comps := g.ComponentsAvoidingMask(removed)
	sort.SliceStable(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	side = make([]int, n)
	cntA, cntB := 0, 0
	for _, comp := range comps {
		maxComp = max(maxComp, len(comp))
		s := 1
		if cntA > cntB {
			s = 2
		}
		for _, v := range comp {
			side[v] = s
		}
		if s == 1 {
			cntA += len(comp)
		} else {
			cntB += len(comp)
		}
	}
	if 3*cntA > 2*n || 3*cntB > 2*n {
		return nil, 0, fmt.Errorf("cert: separator is unbalanced (sides %d/%d of %d)", cntA, cntB, n)
	}
	return side, maxComp, nil
}

// ProveSeparator assigns the separator labels: the BFS spanning tree from
// vertex 0, the path positions, the greedy side assignment, and the
// per-subtree class counts.
func (vf *Verifier) ProveSeparator(sep *separator.Separator) ([][]int, error) {
	if sep == nil {
		return nil, fmt.Errorf("cert: nil separator")
	}
	g := vf.g
	n := g.N()
	if len(sep.Path) == 0 {
		return nil, fmt.Errorf("cert: empty separator path")
	}
	pos := make([]int, n)
	for v := range pos {
		pos[v] = -1
	}
	for i, v := range sep.Path {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("cert: separator vertex %d out of range", v)
		}
		if pos[v] != -1 {
			return nil, fmt.Errorf("cert: separator path revisits vertex %d", v)
		}
		pos[v] = i
	}
	side, _, err := SeparatorSides(g, sep.Path)
	if err != nil {
		return nil, err
	}
	tree, err := vf.bfsTree()
	if err != nil {
		return nil, err
	}
	// Subtree class counts, children before parents: every subtree follows
	// its root in preorder, so reverse preorder visits it first.
	order := make([]int, n)
	for v := range order {
		tin, _ := tree.Interval(v)
		order[tin] = v
	}
	sS := make([]int, n)
	sA := make([]int, n)
	sB := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		sS[v] += boolToInt(side[v] == 0)
		sA[v] += boolToInt(side[v] == 1)
		sB[v] += boolToInt(side[v] == 2)
		if p := tree.Parent[v]; p >= 0 {
			sS[p] += sS[v]
			sA[p] += sA[v]
			sB[p] += sB[v]
		}
	}
	L := len(sep.Path)
	cntA, cntB := 0, 0
	for _, s := range side {
		switch s {
		case 1:
			cntA++
		case 2:
			cntB++
		}
	}
	labels := labelRows(n, sepWords)
	for v, l := range labels {
		copy(l, []int{tree.Root, tree.Parent[v], tree.Depth[v],
			pos[v], side[v], L, cntA, cntB, sS[v], sA[v], sB[v]})
	}
	return labels, nil
}

// sepJudge is the local separator predicate at v.
func sepJudge(v, n int, nb []int, own []int, got [][]int) bool {
	if !spanningJudge(v, n, nb, own, got, sepWords) {
		return false
	}
	pos, side := own[sepFPos], own[sepFSide]
	L, cA, cB := own[sepFLen], own[sepFCountA], own[sepFCountB]
	if side < 0 || side > 2 {
		return false
	}
	if (side == 0) != (pos >= 0) {
		return false
	}
	if side == 0 && pos >= L {
		return false
	}
	if L < 1 || cA < 0 || cB < 0 || L+cA+cB != n {
		return false
	}
	if 3*cA > 2*n || 3*cB > 2*n {
		return false
	}
	needPrev := side == 0 && pos > 0
	needNext := side == 0 && pos < L-1
	sS := boolToInt(side == 0)
	sA := boolToInt(side == 1)
	sB := boolToInt(side == 2)
	for p := range nb {
		o := got[p] // length already checked by spanningJudge
		if o[sepFLen] != L || o[sepFCountA] != cA || o[sepFCountB] != cB {
			return false
		}
		oside, opos := o[sepFSide], o[sepFPos]
		if (side == 1 && oside == 2) || (side == 2 && oside == 1) {
			return false
		}
		if oside == 0 && opos == pos-1 {
			needPrev = false
		}
		if oside == 0 && opos == pos+1 {
			needNext = false
		}
		if o[sepFParent] == v {
			sS += o[sepFSumS]
			sA += o[sepFSumA]
			sB += o[sepFSumB]
		}
	}
	if needPrev || needNext {
		return false
	}
	if own[sepFSumS] != sS || own[sepFSumA] != sA || own[sepFSumB] != sB {
		return false
	}
	if own[sepFParent] == -1 && (sS != L || sA != cA || sB != cB) {
		return false
	}
	return true
}

// VerifySeparator runs the separator verifier on an arbitrary (possibly
// adversarial) label assignment.
func (vf *Verifier) VerifySeparator(labels [][]int) (*Verdict, error) {
	n := vf.g.N()
	judge := func(v int, nb []int, got [][]int) bool {
		return sepJudge(v, n, nb, labels[v], got)
	}
	return vf.certifyOne(Scheme{name: "separator", labels: labels, words: sepWords, judge: judge,
		prover: dist.SpanningForestOps(n).Plus(dist.Ops{PA: 2, TreeAgg: 3})})
}

// CertifySeparator proves and verifies the separator property of sep: its
// path is simple with consecutive vertices adjacent in the Verifier's
// graph, and removing it leaves components of at most 2n/3 vertices.
func (vf *Verifier) CertifySeparator(sep *separator.Separator) (*Verdict, error) {
	labels, err := vf.ProveSeparator(sep)
	if err != nil {
		return nil, err
	}
	return vf.VerifySeparator(labels)
}

// CertifySeparator proves and verifies the separator property of sep on a
// fresh Verifier of g.
func CertifySeparator(g *graph.Graph, sep *separator.Separator, opt Options) (*Verdict, error) {
	return NewVerifier(g, opt).CertifySeparator(sep)
}

// CheckSeparator is the centralized oracle for the certified separator
// property: simple path, G-adjacent consecutive vertices, endpoints
// matching the path ends, and balance at most 2n/3.
func CheckSeparator(g *graph.Graph, sep *separator.Separator) error {
	n := g.N()
	if len(sep.Path) == 0 {
		return fmt.Errorf("cert: empty separator path")
	}
	seen := make([]bool, n)
	for _, v := range sep.Path {
		if v < 0 || v >= n {
			return fmt.Errorf("cert: separator vertex %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("cert: separator path revisits vertex %d", v)
		}
		seen[v] = true
	}
	for i := 0; i+1 < len(sep.Path); i++ {
		if !g.HasEdge(sep.Path[i], sep.Path[i+1]) {
			return fmt.Errorf("cert: separator step {%d,%d} is not a graph edge",
				sep.Path[i], sep.Path[i+1])
		}
	}
	if sep.EndA != sep.Path[0] || sep.EndB != sep.Path[len(sep.Path)-1] {
		return fmt.Errorf("cert: endpoints (%d,%d) do not match path ends (%d,%d)",
			sep.EndA, sep.EndB, sep.Path[0], sep.Path[len(sep.Path)-1])
	}
	if maxComp := separator.VerifyBalance(g, sep.Path); 3*maxComp > 2*n {
		return fmt.Errorf("cert: largest component after removal is %d > 2n/3 (n=%d)", maxComp, n)
	}
	return nil
}

// CheckSeparatorSides is the centralized oracle for a side assignment:
// class 0 exactly on the path, no A-B edge, both sides at most 2n/3.
func CheckSeparatorSides(g *graph.Graph, path []int, side []int) error {
	n := g.N()
	if len(side) != n {
		return fmt.Errorf("cert: side assignment over %d vertices for a graph of %d", len(side), n)
	}
	onPath := make([]bool, n)
	for _, v := range path {
		if v < 0 || v >= n {
			return fmt.Errorf("cert: separator vertex %d out of range", v)
		}
		onPath[v] = true
	}
	cntA, cntB := 0, 0
	for v, s := range side {
		switch {
		case s < 0 || s > 2:
			return fmt.Errorf("cert: vertex %d has invalid side %d", v, s)
		case (s == 0) != onPath[v]:
			return fmt.Errorf("cert: vertex %d has side %d but onPath=%v", v, s, onPath[v])
		case s == 1:
			cntA++
		case s == 2:
			cntB++
		}
	}
	if 3*cntA > 2*n || 3*cntB > 2*n {
		return fmt.Errorf("cert: sides %d/%d exceed 2n/3 (n=%d)", cntA, cntB, n)
	}
	for _, e := range g.Edges() {
		if (side[e.U] == 1 && side[e.V] == 2) || (side[e.U] == 2 && side[e.V] == 1) {
			return fmt.Errorf("cert: edge {%d,%d} crosses the separator sides", e.U, e.V)
		}
	}
	return nil
}
