package cert

import (
	"fmt"

	"planardfs/internal/dist"
	"planardfs/internal/planar"
)

// The embedding-sanity scheme. Label layout (2 words):
//
//	[deg, fLed]
//
// deg is the vertex's claimed degree, fLed the number of faces it leads — a
// vertex leads a face when it is the tail of the face's minimum dart, so
// every face has exactly one leader and a vertex leads at most deg faces.
//
// The local predicate checks degree honesty (the verifier compares the
// claim against its own port count) and the leader bound; the global check
// sums the per-vertex Euler contributions 2 - deg + 2*fLed in the fold that
// also combines the accept bits: the total is 2V - 2E + 2F, which equals 4
// exactly when the claimed face count satisfies Euler's formula
// V - E + F = 2 — a genus-0 (planar) rotation system. The fold hands the
// sum to every vertex, so on mismatch every vertex rejects.
const embWords = 2

// ProveEmbedding assigns the embedding labels: actual degrees and
// face-leader counts from the traced faces of emb.
func ProveEmbedding(emb *planar.Embedding) [][]int {
	g := emb.Graph()
	fs := emb.TraceFaces()
	fLed := make([]int, g.N())
	for f := 0; f < fs.Count(); f++ {
		cyc := fs.Cycle(f)
		min := cyc[0]
		for _, d := range cyc {
			if d < min {
				min = d
			}
		}
		fLed[planar.Tail(g, int(min))]++
	}
	labels := labelRows(g.N(), embWords)
	for v, l := range labels {
		l[0], l[1] = g.Degree(v), fLed[v]
	}
	return labels
}

// EmbeddingScheme is the embedding scheme on an arbitrary (possibly
// adversarial) label assignment: the local checks, plus the Euler
// contributions as a second fold lane. The graph must have at least one
// edge (dart-traced faces are undefined on an edgeless graph).
func (vf *Verifier) EmbeddingScheme(labels [][]int) Scheme {
	s := Scheme{name: "embedding", labels: labels, words: embWords, prover: dist.Ops{PA: 1, TreeAgg: 3},
		contrib: func(l []int) int { return 2 - l[0] + 2*l[1] }, sumWant: 4}
	if vf.g.M() == 0 {
		s.err = fmt.Errorf("cert: embedding certification needs at least one edge")
		return s
	}
	s.judge = func(v int, nb []int, got [][]int) bool {
		deg, fl := labels[v][0], labels[v][1]
		if deg != len(nb) {
			return false
		}
		if fl < 0 || fl > deg {
			return false
		}
		for p := range got {
			if len(got[p]) != embWords {
				return false
			}
		}
		return true
	}
	return s
}

// VerifyEmbedding runs the embedding verifier on an arbitrary (possibly
// adversarial) label assignment: one label exchange, then one fold of the
// accept bits and the Euler contributions.
func (vf *Verifier) VerifyEmbedding(labels [][]int) (*Verdict, error) {
	return vf.certifyOne(vf.EmbeddingScheme(labels))
}

// CertifyEmbedding proves and verifies the Euler sanity of emb, an
// embedding of the Verifier's graph.
func (vf *Verifier) CertifyEmbedding(emb *planar.Embedding) (*Verdict, error) {
	if emb == nil {
		return nil, fmt.Errorf("cert: nil embedding")
	}
	if emb.Graph() != vf.g {
		return nil, fmt.Errorf("cert: embedding of another graph")
	}
	return vf.VerifyEmbedding(ProveEmbedding(emb))
}
