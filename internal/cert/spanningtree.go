package cert

import (
	"fmt"

	"planardfs/internal/dist"
	"planardfs/internal/graph"
	"planardfs/internal/spanning"
)

// The rooted-spanning-tree scheme. Label layout (3 words):
//
//	[root, parent, depth]
//
// parent is -1 at the root. The local predicate at v: the root identifier
// is uniform across every incident edge, the parent is a neighbour whose
// claimed depth is exactly depth-1, and a vertex claiming parent -1 must be
// the uniform root itself with depth 0. Soundness: depths strictly decrease
// along parent pointers, so every parent chain is acyclic and ends at a
// depth-0 vertex, which must be the (edge-uniform, hence by connectivity
// globally unique) root; the parent pointers therefore form one spanning
// tree rooted there.
const spanningWords = 3

// ProveSpanningTree assigns the spanning-tree labels of t.
func ProveSpanningTree(t *spanning.Tree) [][]int {
	labels := labelRows(t.N(), spanningWords)
	for v, l := range labels {
		l[0], l[1], l[2] = t.Root, t.Parent[v], t.Depth[v]
	}
	return labels
}

// spanningJudge is the local spanning-tree predicate at v. The separator
// scheme reuses it: its labels carry the same three fields first, so words
// parameterizes the expected label width.
func spanningJudge(v, n int, nb []int, own []int, got [][]int, words int) bool {
	root, par, depth := own[0], own[1], own[2]
	if root < 0 || root >= n || depth < 0 || depth >= n {
		return false
	}
	if par == -1 {
		if root != v || depth != 0 {
			return false
		}
	} else if depth < 1 {
		return false
	}
	parSeen := par == -1
	for p := range nb {
		o := got[p]
		if len(o) != words {
			return false
		}
		if o[0] != root {
			return false
		}
		if nb[p] == par {
			parSeen = true
			if o[2] != depth-1 {
				return false
			}
		}
	}
	return parSeen
}

// VerifySpanningTree runs the spanning-tree verifier on an arbitrary
// (possibly adversarial) label assignment.
func (vf *Verifier) VerifySpanningTree(labels [][]int) (*Verdict, error) {
	n := vf.g.N()
	judge := func(v int, nb []int, got [][]int) bool {
		return spanningJudge(v, n, nb, labels[v], got, spanningWords)
	}
	return vf.certifyOne(Scheme{name: "spanning", labels: labels, words: spanningWords, judge: judge, prover: dist.Ops{PA: 1, TreeAgg: 1}})
}

// CertifySpanningTree proves and verifies that t is a rooted spanning tree
// of the Verifier's graph.
func (vf *Verifier) CertifySpanningTree(t *spanning.Tree) (*Verdict, error) {
	if t == nil {
		return nil, fmt.Errorf("cert: nil spanning tree")
	}
	if t.N() != vf.g.N() {
		return nil, fmt.Errorf("cert: tree over %d vertices for a graph of %d", t.N(), vf.g.N())
	}
	return vf.VerifySpanningTree(ProveSpanningTree(t))
}

// CertifySpanningTree proves and verifies that t is a rooted spanning tree
// of g on a fresh Verifier.
func CertifySpanningTree(g *graph.Graph, t *spanning.Tree, opt Options) (*Verdict, error) {
	return NewVerifier(g, opt).CertifySpanningTree(t)
}

// CheckSpanningTree is the centralized oracle: t is a spanning tree of g
// exactly when every tree edge is a graph edge (the tree-shape invariants
// are enforced by the spanning package's constructors).
func CheckSpanningTree(g *graph.Graph, t *spanning.Tree) error {
	if t.N() != g.N() {
		return fmt.Errorf("cert: tree over %d vertices for a graph of %d", t.N(), g.N())
	}
	for v, p := range t.Parent {
		if v == t.Root {
			if p != -1 {
				return fmt.Errorf("cert: root %d has parent %d", v, p)
			}
			continue
		}
		if !g.HasEdge(v, p) {
			return fmt.Errorf("cert: tree edge {%d,%d} is not a graph edge", v, p)
		}
	}
	return nil
}
