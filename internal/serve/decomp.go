package serve

import (
	"planardfs/internal/cert"
	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/separator"
	"planardfs/internal/spanning"
)

// Decomp is the cached decomposition of one content-addressed instance:
// everything the Theorem 2 pipeline (internal/pipeline) produces that
// repeat queries want —
// the certified BFS spanning tree, the DFS tree with its preorder
// intervals and LCA tables, the cycle separator with its greedy side
// assignment, and the certification verdicts. Once built it is immutable;
// query handlers read it without locks and without ever re-running the
// pipeline.
type Decomp struct {
	// Hash is the content address (gen.ContentHash) the store keys on.
	Hash string
	// In is the embedded instance the decomposition was computed over.
	In *gen.Instance
	// BFS is the BFS spanning tree rooted on the outer face.
	BFS *spanning.Tree
	// DFSParent is the Theorem 2 DFS parent array (-1 at the root).
	DFSParent []int
	// DFS is the tree view of DFSParent: preorder intervals, binary-lifted
	// LCA, subtree sizes.
	DFS *spanning.Tree
	// Root is the common root of both trees (on the outer face).
	Root int
	// Engine is the separator backend that produced Sep (sepengine
	// registry name).
	Engine string
	// Sep is the cycle separator of the whole instance.
	Sep *separator.Separator
	// SepSide is the greedy 2-coloring of G minus the separator:
	// 0 = separator vertex, 1 = side A, 2 = side B.
	SepSide []int
	// Verdicts are the proof-labeling certification results, in the fixed
	// order spanning, dfs, separator.
	Verdicts []VerdictSummary
	// Outcome is the supervised-recovery outcome of the DFS stage.
	Outcome string
	// Attempts is the number of supervised attempts the DFS stage took.
	Attempts int
	// Rounds is the total charged paper-model round cost of the build
	// (pipeline.Result.Rounds: the DFS stage plus every certification's
	// prover, verifier and aggregation rounds).
	Rounds int
	// BuildNanos is the wall-clock build duration (cold path).
	BuildNanos int64
	// bytes is the store accounting estimate for LRU eviction.
	bytes int64
}

// VerdictSummary is the JSON-stable projection of a cert.Verdict.
type VerdictSummary struct {
	Scheme         string `json:"scheme"`
	OK             bool   `json:"ok"`
	Rejectors      int    `json:"rejectors"`
	LabelWords     int    `json:"labelWords"`
	ProverRounds   int    `json:"proverRounds"`
	VerifierRounds int    `json:"verifierRounds"`
}

// newDecomp projects a completed pipeline run over in into the cached
// decomposition, keyed by hash.
func newDecomp(hash string, in *gen.Instance, res *pipeline.Result) *Decomp {
	d := &Decomp{
		Hash:      hash,
		In:        in,
		BFS:       res.BFS,
		DFSParent: res.Parent,
		DFS:       res.DFS,
		Root:      res.Root,
		Engine:    res.Separator.Engine,
		Sep:       res.Separator.Sep,
		SepSide:   res.Separator.Side,
		Outcome:   res.Recovery.Outcome.String(),
		Attempts:  len(res.Recovery.Attempts),
		Rounds:    res.Rounds(),
	}
	for _, v := range res.Verdicts {
		d.Verdicts = append(d.Verdicts, summarize(v))
	}
	d.bytes = estimateBytes(d)
	return d
}

// summarize projects a verdict into its JSON-stable summary.
func summarize(v *cert.Verdict) VerdictSummary {
	return VerdictSummary{
		Scheme:         v.Scheme,
		OK:             v.OK,
		Rejectors:      len(v.Rejectors),
		LabelWords:     v.LabelWords,
		ProverRounds:   v.ProverRounds,
		VerifierRounds: v.VerifierRounds,
	}
}

// estimateBytes sizes a decomposition for the store's byte budget: the
// dominant arrays are counted exactly (8 bytes per int), the trees'
// binary-lifting tables at their asymptotic n·log n footprint.
func estimateBytes(d *Decomp) int64 {
	n := int64(d.In.G.N())
	m := int64(d.In.G.M())
	logn := int64(1)
	for x := n; x > 1; x >>= 1 {
		logn++
	}
	perTree := 8 * (6*n + n*logn) // parent/depth/size/tin/tout/children + lifting
	return 2*perTree + 8*(2*m+2*n) + 8*int64(len(d.Sep.Path)) + 1024
}
