package guard

import (
	"fmt"

	"planardfs/internal/cert"
	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/trace"
)

// ValidateInstance validates an embedded instance end to end: the shape
// precheck (a graph with an edge, an embedding of in.G itself and an outer
// dart of that embedding), the connectivity precheck, the planarity
// property tester, and the Euler-count certification of in.Emb as it is.
// Stages run in order and stop at the first rejection; the Euler labels
// are exchanged ahead of the one fold that the edge-count and Euler
// stages share, and the verdicts are read in stage order. Every
// distributed stage runs on one cert.Verifier of in.G, and an accepting
// verdict keeps it for the build that follows (Verdict.TakeVerifier).
// The returned error reports infrastructure failures only; a bad input is
// an accepting=false verdict, and verdict.Err() converts it to a typed
// RejectionError.
func ValidateInstance(in *gen.Instance, opt Options) (*Verdict, error) {
	tr := trace.OrNop(opt.Tracer)
	sp := tr.StartSpan(trace.LayerCert, "guard.validate")
	defer sp.End()
	v := &Verdict{OK: true}

	if !shapeStage(v, in.G, in) {
		return v, nil
	}
	if !connectivityStage(v, in.G) {
		return v, nil
	}

	// One certification context serves every distributed stage below:
	// one network, one BFS tree and one fold program.
	vf := cert.NewVerifier(in.G, cert.Options{Tracer: opt.Tracer})

	// Euler count: the internal/cert embedding scheme as a first-class
	// guard stage. The shape stage admitted only an embedding of in.G, and
	// the planar.Embedding constructors make each of its rotations a
	// permutation of the vertex's darts, so the genus is all that is left
	// to check. Its labels are exchanged first, so that the degree sum of
	// the edge-count stage, the Euler sum and the Euler accept bits travel
	// as the three lanes of one fold; the verdicts are then read in stage
	// order, so the first failing stage still names the rejection.
	ev, sums, err := vf.Certify([]congest.FoldLane{degreeLane(in.G)}, vf.EmbeddingScheme(cert.ProveEmbedding(in.Emb)))
	if err != nil {
		return nil, fmt.Errorf("guard: euler certification: %w", err)
	}
	sum := degreeSum{m2: sums[0], rounds: ev.AggRounds, messages: vf.Network().Stats().Messages}

	// Planarity property tester (graph-level, one-sided error).
	ok, err := testerStages(v, vf.Network(), sum, opt)
	if err != nil {
		return nil, err
	}
	// The Euler stage's prover charge and exchange ran ahead of the fold:
	// the Euler check reports them, or the totals alone after an earlier
	// rejection.
	eulerRounds := ev.ProverRounds + ev.VerifierRounds
	if !ok {
		v.Rounds += eulerRounds
		v.Messages += ev.Stats.Messages
		return v, nil
	}
	v.addCheck("euler", ev.OK, eulerRounds, ev.Stats.Messages)
	if !ev.OK {
		return v.reject(Witness{
			Reason:    ReasonEuler,
			Detail:    fmt.Sprintf("claimed rotation system has Euler sum %d (want 4): genus %d, not a planar embedding", ev.EulerSum, (4-ev.EulerSum)/4),
			Rejectors: len(ev.Rejectors),
			EulerSum:  ev.EulerSum,
		}), nil
	}
	sp.SetAttr("ok", 1)
	v.vf = vf
	return v, nil
}

// ValidateGraph validates a bare graph (no embedding claims): shape and
// connectivity prechecks plus the planarity property tester. One-sided
// error applies: a connected planar graph is always accepted, a
// non-planar graph is rejected when an edge-count or dense-region witness
// is found.
func ValidateGraph(g *graph.Graph, opt Options) (*Verdict, error) {
	v := &Verdict{OK: true}
	if !shapeStage(v, g, nil) {
		return v, nil
	}
	if !connectivityStage(v, g) {
		return v, nil
	}
	vf := cert.NewVerifier(g, cert.Options{Tracer: opt.Tracer})
	sums, rounds, err := vf.Fold(degreeLane(g))
	if err != nil {
		return nil, fmt.Errorf("guard: degree aggregation: %w", err)
	}
	sum := degreeSum{m2: sums[0], rounds: rounds, messages: vf.Network().Stats().Messages}
	if _, err := testerStages(v, vf.Network(), sum, opt); err != nil {
		return nil, err
	}
	return v, nil
}

// shapeStage applies the structural admission checks to g and, unless in
// is nil, to the instance's embedding and outer dart. It returns false
// when validation must stop (the verdict already carries the witness).
func shapeStage(v *Verdict, g *graph.Graph, in *gen.Instance) bool {
	detail := ""
	switch {
	case g == nil:
		detail = "no graph"
	case g.N() < 1 || g.M() < 1:
		detail = fmt.Sprintf("need n >= 1 and m >= 1, got n=%d m=%d", g.N(), g.M())
	case in == nil:
	case in.Emb == nil:
		detail = "instance has no embedding"
	case in.Emb.Graph() != g:
		detail = "embedding is over a different graph"
	default:
		if err := in.Emb.CheckOuterDart(in.OuterDart); err != nil {
			detail = err.Error()
		}
	}
	v.addCheck("shape", detail == "", 0, 0)
	if detail == "" {
		return true
	}
	v.reject(Witness{Reason: ReasonShape, Detail: detail})
	return false
}

// connectivityStage applies the centralized connectivity precheck (the
// distributed stages and Euler's formula all assume one component).
func connectivityStage(v *Verdict, g *graph.Graph) bool {
	ok := g.Connected()
	v.addCheck("connectivity", ok, 0, 0)
	if ok {
		return true
	}
	v.reject(Witness{Reason: ReasonDisconnected, Detail: "graph is not connected"})
	return false
}

// testerStages runs the edge-count stage on the folded degree sum and
// then the distributed ball-density stage on nw. It reports whether
// validation goes on; an error is an infrastructure failure.
func testerStages(v *Verdict, nw *congest.Network, sum degreeSum, opt Options) (bool, error) {
	w := edgeCountCheck(nw.G.N(), sum.m2, opt)
	v.addCheck("edge-count", w == nil, sum.rounds, sum.messages)
	if w != nil {
		v.reject(*w)
		return false, nil
	}
	w, rounds, msgs, err := runDensityCheck(nw, opt)
	if err != nil {
		return false, err
	}
	v.addCheck("density", w == nil, rounds, msgs)
	if w != nil {
		v.reject(*w)
		return false, nil
	}
	return true, nil
}
