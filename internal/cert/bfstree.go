package cert

import (
	"fmt"

	"planardfs/internal/dist"
	"planardfs/internal/graph"
	"planardfs/internal/spanning"
)

// The BFS-tree scheme. Label layout (3 words, same as the spanning scheme):
//
//	[root, parent, dist]
//
// The local predicate at v is the spanning-tree predicate plus the BFS gap
// condition: every incident neighbour's claimed dist differs from v's by at
// most one. Soundness: the spanning predicate makes dist a valid parent
// chain length, so dist(v) ≥ d(root, v); the gap condition gives
// dist(v) ≤ dist(u) + 1 across every edge, so induction along a shortest
// root-v path gives dist(v) ≤ d(root, v). Hence dist is exactly the BFS
// distance and every tree edge joins consecutive levels: the parent
// pointers form a BFS tree. A plain spanning-tree certificate cannot see
// the difference — after a dropped or corrupted announce message, a faulted
// distributed BFS can terminate with a spanning tree that is not breadth-
// first, which this scheme's gap judge rejects at the offending edge.
const bfsWords = 3

// ProveBFSTree transcribes the claimed (parent, dist) arrays into labels.
// The arrays are untrusted run output, not validated here: a malformed
// claim yields labels some local verifier rejects (the judge is a total
// function), which is the point of certifying instead of trusting.
func ProveBFSTree(root int, parent, dist []int) [][]int {
	labels := labelRows(len(parent), bfsWords)
	for v, l := range labels {
		l[0], l[1], l[2] = root, parent[v], dist[v]
	}
	return labels
}

// bfsJudge is the local BFS-tree predicate at v.
func bfsJudge(v, n int, nb []int, own []int, got [][]int) bool {
	if !spanningJudge(v, n, nb, own, got, bfsWords) {
		return false
	}
	d := own[2]
	for p := range nb {
		gap := got[p][2] - d
		if gap < -1 || gap > 1 {
			return false
		}
	}
	return true
}

// VerifyBFSTree runs the BFS-tree verifier on an arbitrary (possibly
// adversarial) label assignment.
func (vf *Verifier) VerifyBFSTree(labels [][]int) (*Verdict, error) {
	n := vf.g.N()
	judge := func(v int, nb []int, got [][]int) bool {
		return bfsJudge(v, n, nb, labels[v], got)
	}
	return vf.certifyOne(Scheme{name: "bfs", labels: labels, words: bfsWords, judge: judge, prover: dist.Ops{PA: 1, TreeAgg: 1}})
}

// CertifyBFSTree proves and verifies that the claimed (parent, dist)
// arrays describe a BFS tree of the Verifier's graph rooted at root.
func (vf *Verifier) CertifyBFSTree(root int, parent, distArr []int) (*Verdict, error) {
	if n := vf.g.N(); len(parent) != n || len(distArr) != n {
		return nil, fmt.Errorf("cert: %d parents and %d dists for a graph of %d vertices",
			len(parent), len(distArr), n)
	}
	return vf.VerifyBFSTree(ProveBFSTree(root, parent, distArr))
}

// CheckBFSTree is the centralized oracle: the claim matches an actual BFS
// from root exactly when every dist equals the true distance and every
// non-root parent is a neighbour one level up.
func CheckBFSTree(g *graph.Graph, root int, parent, distArr []int) error {
	t, err := spanning.BFSTree(g, root)
	if err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if distArr[v] != t.Depth[v] {
			return fmt.Errorf("cert: vertex %d claims dist %d, true distance is %d", v, distArr[v], t.Depth[v])
		}
		if v == root {
			if parent[v] != -1 {
				return fmt.Errorf("cert: root %d claims parent %d", v, parent[v])
			}
			continue
		}
		if parent[v] < 0 || parent[v] >= g.N() || !g.HasEdge(v, parent[v]) || distArr[parent[v]] != distArr[v]-1 {
			return fmt.Errorf("cert: vertex %d claims parent %d, not a neighbour one level up", v, parent[v])
		}
	}
	return nil
}
