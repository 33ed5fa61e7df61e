package cert

import (
	"cmp"
	"slices"

	"planardfs/internal/dist"
	"planardfs/internal/graph"
	"planardfs/internal/spanning"
)

// The DFS-tree scheme. Label layout (3 words):
//
//	[parent, tin, tout]
//
// [tin, tout) is the vertex's preorder interval. The local predicate at v:
// the interval is well-formed, the root (parent -1) claims exactly [0, n),
// the parent is a neighbour whose interval strictly contains v's, the
// children's intervals (neighbours claiming v as parent) exactly tile
// [tin+1, tout), and every non-tree edge joins nested intervals (the back
// edge / ancestry condition that characterises DFS trees).
//
// Soundness: exact tiling forces, by induction on interval length, each
// parent-subtree to hold exactly tout-tin vertices, so the root's tree
// holds all n vertices — the labels describe one spanning tree whose
// preorder is the intervals, and the nestedness check on the remaining
// edges is then precisely the DFS-tree property.
const dfsWords = 3

// ProveDFSTree assigns the DFS-tree labels of the parent array: the
// preorder intervals of the tree with children visited in ascending vertex
// order.
func ProveDFSTree(g *graph.Graph, root int, parent []int) ([][]int, error) {
	// The spanning constructor validates the tree shape (reachability,
	// cycles, root convention) and numbers the preorder with children in
	// ascending vertex id.
	t, err := spanning.NewFromParents(root, parent)
	if err != nil {
		return nil, err
	}
	return DFSTreeLabels(t), nil
}

// DFSTreeLabels assigns the DFS-tree labels of a tree view already built
// from a claimed parent array (spanning.NewFromParents validates its
// shape), so a caller that keeps the view builds it once: ProveDFSTree on
// that parent array gives the same labels.
func DFSTreeLabels(t *spanning.Tree) [][]int {
	labels := labelRows(t.N(), dfsWords)
	for v, l := range labels {
		tin, tout := t.Interval(v)
		l[0], l[1], l[2] = t.Parent[v], tin, tout
	}
	return labels
}

// interval is a child's claimed preorder interval [lo, hi).
type interval struct{ lo, hi int }

// dfsJudge is the local DFS-tree predicate at v.
func dfsJudge(v, n int, nb []int, own []int, got [][]int) bool {
	par, tin, tout := own[0], own[1], own[2]
	if tin < 0 || tout > n || tin >= tout {
		return false
	}
	if par == -1 && (tin != 0 || tout != n) {
		return false
	}
	parSeen := par == -1
	var kids []interval
	for p := range nb {
		o := got[p]
		if len(o) != dfsWords {
			return false
		}
		olo, ohi := o[1], o[2]
		treeEdge := false
		if nb[p] == par {
			parSeen = true
			treeEdge = true
			if !(olo < tin && tout <= ohi) {
				return false
			}
		}
		if o[0] == v {
			treeEdge = true
			kids = append(kids, interval{olo, ohi})
		}
		if !treeEdge {
			// Non-tree edge: one endpoint must be an ancestor of the other.
			if !((tin <= olo && ohi <= tout) || (olo <= tin && tout <= ohi)) {
				return false
			}
		}
	}
	if !parSeen {
		return false
	}
	slices.SortFunc(kids, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	cursor := tin + 1
	for _, k := range kids {
		if k.lo != cursor || k.hi <= k.lo {
			return false
		}
		cursor = k.hi
	}
	return cursor == tout
}

// VerifyDFSTree runs the DFS-tree verifier on an arbitrary (possibly
// adversarial) label assignment.
func (vf *Verifier) VerifyDFSTree(labels [][]int) (*Verdict, error) {
	n := vf.g.N()
	judge := func(v int, nb []int, got [][]int) bool {
		return dfsJudge(v, n, nb, labels[v], got)
	}
	return vf.certifyOne(Scheme{name: "dfs", labels: labels, words: dfsWords, judge: judge,
		prover: dist.DFSOrderOps(n).Plus(dist.Ops{TreeAgg: 1})})
}

// CertifyDFSTree proves and verifies that the parent array is a DFS tree of
// the Verifier's graph rooted at root.
func (vf *Verifier) CertifyDFSTree(root int, parent []int) (*Verdict, error) {
	labels, err := ProveDFSTree(vf.g, root, parent)
	if err != nil {
		return nil, err
	}
	return vf.VerifyDFSTree(labels)
}

// CertifyDFSTree proves and verifies that the parent array is a DFS tree of
// g rooted at root, on a fresh Verifier.
func CertifyDFSTree(g *graph.Graph, root int, parent []int, opt Options) (*Verdict, error) {
	return NewVerifier(g, opt).CertifyDFSTree(root, parent)
}
