// Package cert implements distributed certification (proof-labeling
// schemes) for the structures the paper's algorithms produce: rooted
// spanning trees, DFS trees, cycle separators and planar embeddings.
//
// Each scheme is a prover/verifier pair executed on the CONGEST simulator
// itself. The prover is a centralized routine standing in for the
// distributed labelling phase (its round cost is charged explicitly under
// the paper cost model); it assigns every vertex an O(log n)-bit label — a
// constant number of words. The verifier is a genuine CONGEST program: in
// one round every vertex broadcasts its label to all neighbours, in the
// next it inspects the received labels and accepts or rejects. The
// per-vertex verdicts are then combined into a global verdict with one
// part-wise aggregation (a single-part OpMin) over the existing shortcut
// machinery, so a run certifies itself with O(1) verification rounds after
// the prover phase plus one PA call.
//
// Soundness is local by design: if the labelled structure violates its
// predicate, at least one vertex rejects, no matter which single label
// field an adversary corrupted. The judges are total functions — malformed
// label values make a vertex reject, never crash. Completeness: labels
// produced by the package's own provers on correct structures make every
// vertex accept.
//
// Every scheme also ships a centralized oracle (Check*) asserting the same
// property from global data; the test suite cross-validates verifier and
// oracle against adversarial mutations.
package cert

import (
	"fmt"
	"sort"

	"planardfs/internal/congest"
	"planardfs/internal/dist"
	"planardfs/internal/graph"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
)

// msgCertLabel tags the single message kind of the verifier phase: a
// vertex's full label, broadcast to every neighbour in the first round.
const msgCertLabel = 1

// Verdict is the outcome of one certification run.
type Verdict struct {
	// Scheme names the certified predicate ("spanning", "dfs", "separator",
	// "embedding").
	Scheme string
	// OK reports global acceptance: every vertex accepted.
	OK bool
	// Rejectors lists the vertices whose local verifier rejected, in
	// ascending order (nil when OK).
	Rejectors []int
	// LabelWords is the per-vertex label size in words (1 word =
	// ceil(log2 n) bits); the verifier message adds one kind word.
	LabelWords int
	// ProverRounds is the round cost charged for the prover phase under the
	// paper cost model (shortcut.PaperCost).
	ProverRounds int
	// VerifierRounds is the measured CONGEST round count of the label
	// exchange — O(1) by construction, independent of n.
	VerifierRounds int
	// AggRounds is the measured round count of the verdict aggregation
	// (and, for the embedding scheme, the Euler-sum aggregation).
	AggRounds int
	// EulerSum is the aggregated Euler characteristic sum
	// (2V - 2E + 2F, accepting iff 4); set by the embedding scheme only.
	EulerSum int
	// Stats is the label-exchange network instrumentation.
	Stats congest.Stats
}

// Options configure a certification run. The zero value runs untraced.
type Options struct {
	// Tracer records cert-layer spans (prove/verify/aggregate) and the
	// underlying network rounds; nil disables tracing.
	Tracer trace.Tracer
}

// network builds the CONGEST network one certification runs its label
// exchange and its aggregations on, so they share one round engine. Each
// program sets the word budget it needs before it runs.
func (o Options) network(g *graph.Graph) *congest.Network {
	nw := congest.New(g)
	nw.Tracer = o.Tracer
	return nw
}

// aggWords is the word budget of the verdict and sum aggregations, the
// default CONGEST budget; the label exchange raises it to fit its label.
const aggWords = 4

// validateLabels checks the structural shape of a label assignment; field
// values stay adversarial and are judged by the verifier nodes.
func validateLabels(n int, labels [][]int, words int) error {
	if len(labels) != n {
		return fmt.Errorf("cert: %d labels for %d vertices", len(labels), n)
	}
	for v, l := range labels {
		if len(l) != words {
			return fmt.Errorf("cert: label of vertex %d has %d words, want %d", v, len(l), words)
		}
	}
	return nil
}

// judgeFunc decides vertex v's verdict from the labels it received, got[p]
// on port p (nil where nothing arrived). One judge serves every vertex of a
// run.
type judgeFunc func(v int, got [][]int) bool

// certNode is the verifier program of every scheme: broadcast the label,
// collect the neighbours' labels, judge once, halt.
type certNode struct {
	v      int
	judge  judgeFunc
	got    [][]int            // got[port]: the label received on port
	out    []congest.Outgoing // the round-0 broadcast, one message per port
	accept bool
	judged bool
}

// Round implements congest.Node.
func (cn *certNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	if round == 0 && len(cn.out) > 0 {
		return cn.out, false
	}
	if !cn.judged {
		for _, in := range recv {
			if in.Msg.Kind == msgCertLabel && in.Port >= 0 && in.Port < len(cn.got) {
				cn.got[in.Port] = in.Msg.Args
			}
		}
		// The received label slices are the senders' labels, which no step
		// mutates; judging here (not later) respects the engine's
		// recv-recycling contract.
		cn.accept = cn.judge(cn.v, cn.got)
		cn.judged = true
	}
	return nil, true
}

// runExchange executes the two-round label exchange on nw, with room for
// the label and its kind word, and returns the per-vertex accept bits (1
// accept, 0 reject). The nodes, their receive tables and their round-0
// broadcasts are carved from three flat arrays.
func runExchange(nw *congest.Network, labels [][]int, words int, judge judgeFunc) (accepts []int, rounds int, stats congest.Stats, err error) {
	g := nw.G
	n := g.N()
	nw.MaxWords = max(aggWords, words+1)
	cns := make([]certNode, n)
	nodes := make([]congest.Node, n)
	got := make([][]int, 2*g.M())
	out := make([]congest.Outgoing, 2*g.M())
	base := 0
	for v := range cns {
		end := base + g.Degree(v)
		cns[v] = certNode{v: v, judge: judge, got: got[base:end:end], out: out[base:end:end]}
		for p := range cns[v].out {
			cns[v].out[p] = congest.Outgoing{Port: p, Msg: congest.Message{Kind: msgCertLabel, Args: labels[v]}}
		}
		nodes[v] = &cns[v]
		base = end
	}
	rounds, err = nw.Run(nodes, 8)
	if err != nil {
		return nil, 0, congest.Stats{}, err
	}
	accepts = make([]int, n)
	for v := range cns {
		if cns[v].accept {
			accepts[v] = 1
		}
	}
	return accepts, rounds, nw.Stats(), nil
}

// aggregate runs one single-part part-wise aggregation of value under op
// over tree on nw, returning the aggregate and its measured round count.
func aggregate(nw *congest.Network, tree *spanning.Tree, value []int, op congest.AggOp) (int, int, error) {
	part, err := shortcut.NewPartition(make([]int, nw.G.N()))
	if err != nil {
		return 0, 0, err
	}
	nw.MaxWords = aggWords
	res, err := shortcut.RunPAOn(nw, tree, part, value, op)
	if err != nil {
		return 0, 0, err
	}
	return res.Values[0], res.Rounds, nil
}

// chargeProver charges the prover phase's documented op budget under the
// paper cost model (the BFS tree's depth standing in for the diameter) and
// advances the trace clock accordingly.
func chargeProver(g *graph.Graph, tree *spanning.Tree, tr trace.Tracer, ops dist.Ops, words int) int {
	rounds := ops.Rounds(shortcut.PaperCost{D: tree.MaxDepth(), N: g.N()}, 1)
	sp := tr.StartSpan(trace.LayerCert, "cert.prove")
	sp.SetAttr("rounds", int64(rounds))
	sp.SetAttr("label_words", int64(words))
	tr.Advance(int64(rounds))
	sp.End()
	return rounds
}

// certify drives the common scheme pipeline: validate label shape, charge
// the prover, run the label exchange, aggregate the verdicts. One BFS tree
// from vertex 0 serves both the prover charge and the aggregation, and one
// network runs both the exchange and the aggregation.
func certify(g *graph.Graph, scheme string, labels [][]int, words int, judge judgeFunc, prover dist.Ops, opt Options) (*Verdict, error) {
	if err := validateLabels(g.N(), labels, words); err != nil {
		return nil, err
	}
	tr := trace.OrNop(opt.Tracer)
	sp := tr.StartSpan(trace.LayerCert, "cert."+scheme)
	defer sp.End()
	tree, err := spanning.BFSTree(g, 0)
	if err != nil {
		return nil, err
	}
	proverRounds := chargeProver(g, tree, tr, prover, words)
	vsp := tr.StartSpan(trace.LayerCert, "cert.verify")
	nw := opt.network(g)
	accepts, vrounds, stats, err := runExchange(nw, labels, words, judge)
	if err != nil {
		vsp.End()
		return nil, err
	}
	vsp.SetAttr("rounds", int64(vrounds))
	vsp.End()
	verdict, err := finishVerdict(nw, tree, scheme, accepts, tr)
	if err != nil {
		return nil, err
	}
	verdict.LabelWords = words
	verdict.ProverRounds = proverRounds
	verdict.VerifierRounds = vrounds
	verdict.Stats = stats
	sp.SetAttr("ok", boolAttr(verdict.OK))
	sp.SetAttr("rejectors", int64(len(verdict.Rejectors)))
	return verdict, nil
}

// finishVerdict aggregates the accept bits on nw into the global verdict.
func finishVerdict(nw *congest.Network, tree *spanning.Tree, scheme string, accepts []int, tr trace.Tracer) (*Verdict, error) {
	asp := tr.StartSpan(trace.LayerCert, "cert.aggregate")
	min, arounds, err := aggregate(nw, tree, accepts, congest.OpMin)
	if err != nil {
		asp.End()
		return nil, err
	}
	asp.SetAttr("rounds", int64(arounds))
	asp.End()
	var rejectors []int
	for v, a := range accepts {
		if a == 0 {
			rejectors = append(rejectors, v)
		}
	}
	sort.Ints(rejectors)
	ok := min == 1
	if ok != (len(rejectors) == 0) {
		return nil, fmt.Errorf("cert: aggregated verdict disagrees with local verdicts")
	}
	if tr.Enabled() {
		tr.Count("cert.runs", 1)
		tr.Count("cert.rejections", int64(len(rejectors)))
	}
	return &Verdict{
		Scheme:    scheme,
		OK:        ok,
		Rejectors: rejectors,
		AggRounds: arounds,
	}, nil
}

func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
