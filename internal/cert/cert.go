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
// fold (congest.FoldProgram): an OpMin convergecast up a BFS tree and a
// broadcast of the result down it, 2·depth+1 rounds, so a run certifies
// itself with O(1) verification rounds after the prover phase plus one
// fold. Verifier.Certify is the one path every scheme runs through; it
// folds a caller's extra lanes with the verdict, as the admission guard
// folds its degree sum with the embedding scheme's.
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
	"sync/atomic"

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
	// AggRounds is the measured round count of the fold that combined the
	// verdict (and, for the embedding scheme, the Euler sum).
	AggRounds int
	// EulerSum is the aggregated Euler characteristic sum
	// (2V - 2E + 2F, accepting iff 4); set by the embedding scheme only.
	EulerSum int
	// Stats is the label-exchange network instrumentation.
	Stats congest.Stats
}

// Options configure a certification run. The zero value runs untraced.
type Options struct {
	// Tracer records cert-layer spans (prove/verify/fold) and the
	// underlying network rounds; nil disables tracing.
	Tracer trace.Tracer
}

// Verifier is the certification context of one graph: every scheme it
// runs shares one CONGEST network (and so one round engine), one BFS
// spanning tree from vertex 0 — the tree the prover charge is priced on and
// the verdict folds run over — one fold program over that tree, one
// neighbour table and one set of label-exchange node programs. Each is
// built on first use and reset in place by every later run, so certifying
// several structures of the same graph, or the attempts of a supervised
// stage, pays the setup once. Verdicts, rounds, statistics
// and traces are exactly those of the one-shot Certify*/Verify*/Prove*
// functions, which each run on a fresh Verifier.
//
// One Verifier serves a whole guarded build: the admission guard runs its
// Euler exchange, its one fold and its ball probes on it
// (guard.ValidateInstance), its accepting verdict hands it over, and
// pipeline.Run certifies the DFS attempts, the spanning tree and the
// separator on it after SetTracer points it at the build's tracer.
//
// A Verifier keeps no reference to a run's labels once the run returns. It
// is not safe for concurrent use.
type Verifier struct {
	g      *graph.Graph
	tracer trace.Tracer

	nw   *congest.Network
	tree *spanning.Tree // BFS tree from vertex 0
	fold *congest.FoldProgram

	// nbr holds every vertex's neighbours in port order, vertex v's at
	// nbr[off[v]:off[v+1]]. The exchange's nodes share one receive row of
	// the largest degree: the engine steps one node at a time, and each
	// judges inside its step, so a row serves every vertex in turn.
	off     []int
	nbr     []int
	cns     []certNode
	nodes   []congest.Node
	row     [][]int
	accepts []int
}

// builds counts the Verifiers made and the BFS trees and label-exchange
// program sets they built, for the test that holds a guarded build to one
// certification context.
var builds struct{ verifiers, trees, exchanges atomic.Int64 }

// runs counts the label exchanges and folds Verifiers run, for the test
// that holds a build to one of each per certification boundary.
var runs struct{ exchanges, folds atomic.Int64 }

// NewVerifier returns the certification context of g, traced per opt. It
// builds nothing until a run needs it.
func NewVerifier(g *graph.Graph, opt Options) *Verifier {
	builds.verifiers.Add(1)
	return &Verifier{g: g, tracer: opt.Tracer}
}

// SetTracer points the Verifier, and its network once built, at tr, so the
// runs that follow trace into tr: a context handed from one caller to the
// next traces into the new owner's tracer.
func (vf *Verifier) SetTracer(tr trace.Tracer) {
	vf.tracer = tr
	if vf.nw != nil {
		vf.nw.Tracer = tr
	}
}

// Graph returns the graph the Verifier certifies structures of.
func (vf *Verifier) Graph() *graph.Graph { return vf.g }

// Options returns the options the Verifier was built with.
func (vf *Verifier) Options() Options { return Options{Tracer: vf.tracer} }

// Network returns the network every run of the Verifier executes on,
// traced per its options. A caller may run its own node programs on it
// between certifications; each certification sets the word budget it
// needs.
func (vf *Verifier) Network() *congest.Network {
	if vf.nw == nil {
		vf.nw = congest.New(vf.g)
		vf.nw.Tracer = vf.tracer
	}
	return vf.nw
}

// Neighbors returns v's neighbours in port order as a row of the
// Verifier's neighbour table; the slice must not be modified.
func (vf *Verifier) Neighbors(v int) []int {
	vf.neighborTable()
	return vf.nbr[vf.off[v]:vf.off[v+1]:vf.off[v+1]]
}

// neighborTable fills off and nbr from the graph's incidence lists on
// first use.
func (vf *Verifier) neighborTable() {
	if vf.nbr != nil {
		return
	}
	g := vf.g
	vf.off = make([]int, g.N()+1)
	vf.nbr = make([]int, 0, 2*g.M())
	for u := 0; u < g.N(); u++ {
		for _, id := range g.IncidentEdges(u) {
			vf.nbr = append(vf.nbr, g.Other(int(id), u))
		}
		vf.off[u+1] = len(vf.nbr)
	}
}

// bfsTree returns the BFS spanning tree from vertex 0, building it on
// first use.
func (vf *Verifier) bfsTree() (*spanning.Tree, error) {
	if vf.tree == nil {
		tree, err := spanning.BFSTree(vf.g, 0)
		if err != nil {
			return nil, err
		}
		builds.trees.Add(1)
		vf.tree = tree
	}
	return vf.tree, nil
}

// Fold folds lanes, one to congest.MaxFoldLanes of them, over the BFS
// tree from vertex 0 on the Verifier's network at the default 4-word
// budget: a convergecast up the tree, then a broadcast of the results down
// it. It returns every lane's aggregate, as every vertex holds it, with the
// measured round count; Network().Stats() holds the run's statistics. The
// aggregates are overwritten by the next fold. The fold program is built
// on the first call and reset in place by later ones.
func (vf *Verifier) Fold(lanes ...congest.FoldLane) (aggs []int, rounds int, err error) {
	n := vf.g.N()
	if len(lanes) < 1 || len(lanes) > congest.MaxFoldLanes {
		return nil, 0, fmt.Errorf("cert: fold of %d lanes, want 1 to %d", len(lanes), congest.MaxFoldLanes)
	}
	for i, l := range lanes {
		if len(l.Values) != n {
			return nil, 0, fmt.Errorf("cert: fold lane %d has %d values for %d vertices", i, len(l.Values), n)
		}
	}
	tree, err := vf.bfsTree()
	if err != nil {
		return nil, 0, err
	}
	nw := vf.Network()
	if vf.fold == nil {
		vf.fold = congest.NewFoldProgram(nw, tree.Parent, tree.Root)
	}
	nw.MaxWords = aggWords
	runs.folds.Add(1)
	rounds, err = nw.Run(vf.fold.Reset(lanes), 4*tree.MaxDepth()+8)
	if err != nil {
		return nil, 0, err
	}
	for v := 0; v < n; v++ {
		if vf.fold.Result(v) == nil {
			return nil, 0, fmt.Errorf("cert: vertex %d missing its fold result", v)
		}
	}
	return vf.fold.Result(tree.Root), rounds, nil
}

// aggWords is the word budget of the folds, the default CONGEST budget;
// the label exchange raises it to fit its label.
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

// judgeFunc decides vertex v's verdict from its neighbours nb and the
// labels it received, got[p] on port p (nil where nothing arrived). One
// judge serves every vertex of a run.
type judgeFunc func(v int, nb []int, got [][]int) bool

// Scheme is one proof-labeling scheme applied to a label assignment, ready
// for Verifier.Certify: the scheme's name, the labels and their width, the
// local judge and the prover's op budget. EmbeddingScheme builds the one a
// caller folds extra lanes with; every Verify* method builds its own. The
// labels stay adversarial, and Certify checks only their shape.
type Scheme struct {
	name   string
	labels [][]int
	words  int
	judge  judgeFunc
	prover dist.Ops
	// contrib, when set, maps a vertex's label to a contribution the fold
	// sums next to the accept bits; every vertex rejects unless the total
	// is sumWant (the embedding scheme's Euler count).
	contrib func(label []int) int
	sumWant int
	err     error // a scheme that cannot run on the Verifier's graph
}

// lanes is the number of fold lanes the scheme takes.
func (s *Scheme) lanes() int {
	if s.contrib != nil {
		return 2
	}
	return 1
}

// certNode is the verifier program of every scheme: broadcast the label,
// collect the neighbours' labels, judge once, halt.
type certNode struct {
	v      int
	judge  judgeFunc
	nb     []int               // nb[port]: the neighbour on port
	got    [][]int             // got[port]: the label received on port, a prefix of the shared row
	out    [1]congest.Outgoing // the round-0 broadcast: the label on every port
	accept bool
	judged bool
}

// Round implements congest.Node. The receive row is shared by every node,
// so it is cleared before the judge, which leaves nil where nothing
// arrived.
//
//planarvet:noalloc TestExchangeReuseAllocs
func (cn *certNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	if round == 0 && len(cn.nb) > 0 {
		return cn.out[:], false
	}
	if !cn.judged {
		got := cn.got
		clear(got)
		for _, in := range recv {
			if in.Msg.Kind == msgCertLabel && in.Port >= 0 && in.Port < len(got) {
				got[in.Port] = in.Msg.Args
			}
		}
		// The received label slices are the senders' labels, which no step
		// mutates; judging here (not later) respects the engine's
		// recv-recycling contract.
		cn.accept = cn.judge(cn.v, cn.nb, got)
		cn.judged = true
	}
	return nil, true
}

// exchangeNodes returns the label-exchange programs, carving the nodes and
// their views of the shared receive row on first use.
func (vf *Verifier) exchangeNodes() []certNode {
	if vf.cns == nil {
		builds.exchanges.Add(1)
		n := vf.g.N()
		vf.neighborTable()
		vf.cns = make([]certNode, n)
		vf.nodes = make([]congest.Node, n)
		vf.accepts = make([]int, n)
		maxDeg := 0
		for v := 0; v < n; v++ {
			maxDeg = max(maxDeg, vf.off[v+1]-vf.off[v])
		}
		vf.row = make([][]int, maxDeg)
		for v := range vf.cns {
			lo, hi := vf.off[v], vf.off[v+1]
			vf.cns[v] = certNode{v: v, nb: vf.nbr[lo:hi:hi], got: vf.row[: hi-lo : hi-lo]}
			vf.cns[v].out[0] = congest.Outgoing{Port: congest.EveryPort, Msg: congest.Message{Kind: msgCertLabel}}
			vf.nodes[v] = &vf.cns[v]
		}
	}
	return vf.cns
}

// exchange executes the two-round label exchange on the Verifier's
// network, with room for the label and its kind word, and fills the
// per-vertex accept bits (1 accept, 0 reject), which live in the Verifier
// and are overwritten by its next exchange; Network().Stats() then holds
// the exchange's statistics. Each vertex sends its label as one EveryPort
// message, so arming the exchange costs a store per vertex, not per port.
//
//planarvet:noalloc TestExchangeReuseAllocs
func (vf *Verifier) exchange(labels [][]int, words int, judge judgeFunc) (rounds int, err error) {
	nw := vf.Network()
	nw.MaxWords = max(aggWords, words+1)
	cns := vf.exchangeNodes()
	for v := range cns {
		cn := &cns[v]
		cn.judge, cn.judged = judge, false
		cn.out[0].Msg.Args = labels[v]
	}
	runs.exchanges.Add(1)
	rounds, err = nw.Run(vf.nodes, 8)
	// Drop the run's labels and judge, so an idle Verifier pins neither.
	clear(vf.row)
	for v := range cns {
		cns[v].judge, cns[v].out[0].Msg.Args = nil, nil
		vf.accepts[v] = boolToInt(cns[v].accept)
	}
	return rounds, err
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

// Certify verifies one scheme: its prover charge, one label exchange, and
// one fold of its accept bits together with the caller's extra lanes — at
// most congest.MaxFoldLanes lanes in all; a scheme takes one lane, the
// embedding scheme two. The BFS tree from vertex 0 prices the prover
// charge and carries the fold. Certify returns the verdict and the extra
// lanes' aggregates; Network().Stats() then holds the fold's statistics.
func (vf *Verifier) Certify(extra []congest.FoldLane, s Scheme) (*Verdict, []int, error) {
	g := vf.g
	if s.err != nil {
		return nil, nil, s.err
	}
	if err := validateLabels(g.N(), s.labels, s.words); err != nil {
		return nil, nil, err
	}
	lanes := s.lanes() + len(extra)
	if lanes > congest.MaxFoldLanes {
		return nil, nil, fmt.Errorf("cert: the %s scheme and %d extra lanes do not fit one fold of %d lanes",
			s.name, len(extra), congest.MaxFoldLanes)
	}
	tr := trace.OrNop(vf.tracer)
	sp := tr.StartSpan(trace.LayerCert, "cert."+s.name)
	defer sp.End()
	tree, err := vf.bfsTree()
	if err != nil {
		return nil, nil, err
	}
	proverRounds := chargeProver(g, tree, tr, s.prover, s.words)
	vsp := tr.StartSpan(trace.LayerCert, "cert.verify")
	vrounds, err := vf.exchange(s.labels, s.words, s.judge)
	if err != nil {
		vsp.End()
		return nil, nil, err
	}
	accepts, stats := vf.accepts, vf.nw.Stats()
	vsp.SetAttr("rounds", int64(vrounds))
	vsp.End()

	fsp := tr.StartSpan(trace.LayerCert, "cert.fold")
	fold := make([]congest.FoldLane, 1, lanes)
	fold[0] = congest.FoldLane{Values: accepts, Op: congest.OpMin}
	if s.contrib != nil {
		sum := make([]int, g.N())
		for v, l := range s.labels {
			sum[v] = s.contrib(l)
		}
		fold = append(fold, congest.FoldLane{Values: sum, Op: congest.OpSum})
	}
	aggs, frounds, err := vf.Fold(append(fold, extra...)...)
	if err != nil {
		fsp.End()
		return nil, nil, err
	}
	fsp.SetAttr("rounds", int64(frounds))
	fsp.SetAttr("lanes", int64(lanes))
	fsp.End()

	v := &Verdict{
		Scheme:         s.name,
		OK:             aggs[0] == 1,
		LabelWords:     s.words,
		ProverRounds:   proverRounds,
		VerifierRounds: vrounds,
		AggRounds:      frounds,
		Stats:          stats,
	}
	if s.contrib != nil {
		// Every vertex holds the total, and folds it into its verdict.
		v.EulerSum = aggs[1]
		if v.EulerSum != s.sumWant {
			v.OK = false
			clear(accepts)
		}
	}
	// Ascending by construction.
	for u, a := range accepts {
		if a == 0 {
			v.Rejectors = append(v.Rejectors, u)
		}
	}
	if v.OK != (len(v.Rejectors) == 0) {
		return nil, nil, fmt.Errorf("cert: aggregated verdict disagrees with local verdicts")
	}
	if tr.Enabled() {
		tr.Count("cert.runs", 1)
		tr.Count("cert.rejections", int64(len(v.Rejectors)))
	}
	sp.SetAttr("ok", boolAttr(v.OK))
	sp.SetAttr("rejectors", int64(len(v.Rejectors)))
	return v, append([]int(nil), aggs[s.lanes():]...), nil
}

// certifyOne certifies s with no extra lanes.
func (vf *Verifier) certifyOne(s Scheme) (*Verdict, error) {
	v, _, err := vf.Certify(nil, s)
	return v, err
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

// labelRows returns n labels of words each for a prover to fill: views
// into one flat array, each capped at its own words, so a labelling costs
// two allocations, not one per vertex, and a label grown by append (a
// corrupted one) cannot run into its neighbour's.
func labelRows(n, words int) [][]int {
	flat := make([]int, n*words)
	rows := make([][]int, n)
	for v := range rows {
		rows[v] = flat[v*words : (v+1)*words : (v+1)*words]
	}
	return rows
}
