package cert

import (
	"fmt"

	"planardfs/internal/congest"
	"planardfs/internal/dist"
	"planardfs/internal/planar"
	"planardfs/internal/trace"
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
// aggregates the per-vertex Euler contributions 2 - deg + 2*fLed with one
// part-wise sum: the total is 2V - 2E + 2F, which equals 4 exactly when the
// claimed face count satisfies Euler's formula V - E + F = 2 — a genus-0
// (planar) rotation system. The sum is broadcast by the aggregation, so on
// mismatch every vertex rejects.
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
	labels := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		labels[v] = []int{g.Degree(v), fLed[v]}
	}
	return labels
}

// VerifyEmbedding runs the embedding verifier on an arbitrary (possibly
// adversarial) label assignment. The graph must have at least one edge
// (dart-traced faces are undefined on an edgeless graph). The label
// exchange, the Euler-sum aggregation and the verdict aggregation all run
// on the Verifier's network.
func (vf *Verifier) VerifyEmbedding(labels [][]int) (*Verdict, error) {
	g := vf.g
	n := g.N()
	if g.M() == 0 {
		return nil, fmt.Errorf("cert: embedding certification needs at least one edge")
	}
	if err := validateLabels(n, labels, embWords); err != nil {
		return nil, err
	}
	tr := trace.OrNop(vf.tracer)
	sp := tr.StartSpan(trace.LayerCert, "cert.embedding")
	defer sp.End()
	tree, err := vf.bfsTree()
	if err != nil {
		return nil, err
	}
	proverRounds := chargeProver(g, tree, tr, dist.Ops{PA: 1, TreeAgg: 3}, embWords)
	judge := func(v int, nb []int, got [][]int) bool {
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
	vsp := tr.StartSpan(trace.LayerCert, "cert.verify")
	accepts, vrounds, stats, err := vf.runExchange(labels, embWords, judge)
	if err != nil {
		vsp.End()
		return nil, err
	}
	vsp.SetAttr("rounds", int64(vrounds))
	vsp.End()

	// Aggregate the Euler contributions; the part-wise sum delivers the
	// total to every vertex, which folds it into its accept bit.
	contrib := make([]int, n)
	for v := 0; v < n; v++ {
		contrib[v] = 2 - labels[v][0] + 2*labels[v][1]
	}
	esp := tr.StartSpan(trace.LayerCert, "cert.euler-sum")
	eulerSum, srounds, err := vf.Aggregate(contrib, congest.OpSum)
	if err != nil {
		esp.End()
		return nil, err
	}
	esp.SetAttr("rounds", int64(srounds))
	esp.SetAttr("sum", int64(eulerSum))
	esp.End()
	if eulerSum != 4 {
		clear(accepts)
	}
	verdict, err := vf.finishVerdict("embedding", accepts, tr)
	if err != nil {
		return nil, err
	}
	verdict.LabelWords = embWords
	verdict.ProverRounds = proverRounds
	verdict.VerifierRounds = vrounds
	verdict.AggRounds += srounds
	verdict.EulerSum = eulerSum
	verdict.Stats = stats
	sp.SetAttr("ok", boolAttr(verdict.OK))
	sp.SetAttr("rejectors", int64(len(verdict.Rejectors)))
	return verdict, nil
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
