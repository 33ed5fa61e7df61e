package guard

import (
	"fmt"

	"planardfs/internal/cert"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/planar"
	"planardfs/internal/trace"
)

// ValidateInstance validates an embedded instance end to end: shape and
// connectivity prechecks, the distributed rotation/endpoint consistency
// check, the planarity property tester, and the Euler-count certification
// of the claimed rotation system. Every distributed stage runs on one
// cert.Verifier of in.G, and an accepting verdict keeps it for the build
// that follows (Verdict.TakeVerifier). The returned error reports
// infrastructure failures only; a bad input is an accepting=false verdict,
// and verdict.Err() converts it to a typed RejectionError. in.Emb's
// rotations of in.G's vertices are read in place; the Euler stage
// certifies in.Emb as it is when it embeds in.G itself, as every gen
// constructor and Wire.Build make it, and otherwise rebuilds those
// rotations on in.G.
func ValidateInstance(in *gen.Instance, opt Options) (*Verdict, error) {
	return validate(in.G, &claim{emb: in.Emb, n: in.G.N()}, opt)
}

// ValidateRotations validates a graph together with a claimed rotation
// system in wire form (per-vertex clockwise neighbour lists, exactly what
// an untrusted submission carries). Stages run in order and stop at the
// first rejection. An accepting verdict keeps the certification context
// the stages ran on (Verdict.TakeVerifier).
func ValidateRotations(g *graph.Graph, rot [][]int, opt Options) (*Verdict, error) {
	return validate(g, &claim{rows: rot, n: len(rot)}, opt)
}

// claim is the rotation system under validation: n wire rows, or the
// rotations of an embedding of the graph, read one vertex at a time into
// a reused row.
type claim struct {
	rows [][]int
	emb  *planar.Embedding // nil for wire rows
	n    int
	buf  []int
}

// row returns v's claimed clockwise neighbour list (nil past the last
// row). An embedding's row is only valid until the next call.
func (c *claim) row(v int) []int {
	switch {
	case v >= c.n:
		return nil
	case c.emb == nil:
		return c.rows[v]
	}
	c.buf = c.emb.AppendNeighborOrder(c.buf[:0], v)
	return c.buf
}

// embedding returns the claimed rotation system as an embedding of g, for
// the Euler stage; it runs after the rotation stage accepted every row as
// a permutation of the vertex's neighbours. An embedding of g itself is
// certified as it is. Wire rows, and the rows of an embedding of another
// graph (a copy, more vertices, other edge ids), are built into one.
func (c *claim) embedding(g *graph.Graph) (*planar.Embedding, error) {
	if c.emb != nil && c.emb.Graph() == g {
		return c.emb, nil
	}
	rows := c.rows
	if c.emb != nil {
		rows = make([][]int, c.n)
		for v := range rows {
			rows[v] = c.emb.NeighborOrder(v)
		}
	}
	return planar.FromNeighborOrders(g, rows)
}

// validate runs the stages of ValidateRotations on a claim.
func validate(g *graph.Graph, rot *claim, opt Options) (*Verdict, error) {
	tr := trace.OrNop(opt.Tracer)
	sp := tr.StartSpan(trace.LayerCert, "guard.validate")
	defer sp.End()
	v := &Verdict{OK: true}

	if !shapeStage(v, g, rot.n) {
		return v, nil
	}
	if !connectivityStage(v, g) {
		return v, nil
	}

	// One certification context serves every distributed stage below:
	// one network, one BFS tree and one aggregation program.
	vf := cert.NewVerifier(g, cert.Options{Tracer: opt.Tracer})

	// Distributed rotation/endpoint consistency.
	rejectors, rounds, msgs, err := runRotationCheck(vf, rot, opt)
	if err != nil {
		return nil, err
	}
	v.addCheck("rotation", len(rejectors) == 0, rounds, msgs)
	if len(rejectors) > 0 {
		reason, detail := diagnoseRotation(g, rot, rejectors[0])
		return v.reject(Witness{
			Reason: reason, Detail: detail,
			Vertex: rejectors[0], Rejectors: len(rejectors),
		}), nil
	}

	// Planarity property tester (graph-level, one-sided error).
	if !testerStages(v, vf, opt) {
		return v, nil
	}
	if err := v.testerErr; err != nil {
		return nil, err
	}

	// Euler count: the internal/cert embedding scheme as a first-class
	// guard stage. The rotation stage guaranteed a valid permutation
	// system, so the embedding constructor cannot fail here.
	emb, err := rot.embedding(g)
	if err != nil {
		return nil, fmt.Errorf("guard: rotation stage accepted an unbuildable rotation system: %w", err)
	}
	ev, err := vf.VerifyEmbedding(cert.ProveEmbedding(emb))
	if err != nil {
		return nil, fmt.Errorf("guard: euler certification: %w", err)
	}
	v.addCheck("euler", ev.OK, ev.ProverRounds+ev.VerifierRounds+ev.AggRounds, ev.Stats.Messages)
	if !ev.OK {
		return v.reject(Witness{
			Reason:    ReasonEuler,
			Detail:    fmt.Sprintf("claimed rotation system has Euler sum %d (want 4): genus %d, not a planar embedding", ev.EulerSum, (4-ev.EulerSum)/4),
			Vertex:    -1,
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
	if !shapeStage(v, g, g.N()) {
		return v, nil
	}
	if !connectivityStage(v, g) {
		return v, nil
	}
	if !testerStages(v, cert.NewVerifier(g, cert.Options{Tracer: opt.Tracer}), opt) {
		return v, nil
	}
	if err := v.testerErr; err != nil {
		return nil, err
	}
	return v, nil
}

// shapeStage applies the structural admission checks. It returns false
// when validation must stop (the verdict already carries the witness).
func shapeStage(v *Verdict, g *graph.Graph, rotLen int) bool {
	ok := g.N() >= 1 && g.M() >= 1 && rotLen == g.N()
	v.addCheck("shape", ok, 0, 0)
	if ok {
		return true
	}
	detail := fmt.Sprintf("need n >= 1 and m >= 1, got n=%d m=%d", g.N(), g.M())
	if g.N() >= 1 && g.M() >= 1 {
		detail = fmt.Sprintf("rotation table has %d rows for %d vertices", rotLen, g.N())
	}
	v.reject(Witness{Reason: ReasonShape, Detail: detail, Vertex: -1})
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
	v.reject(Witness{Reason: ReasonDisconnected, Detail: "graph is not connected", Vertex: -1})
	return false
}

// testerStages runs the distributed edge-count and ball-density stages on
// vf's network, aggregating over its BFS tree. It returns false when
// validation must stop; infrastructure errors are parked on the verdict
// for the caller to surface.
func testerStages(v *Verdict, vf *cert.Verifier, opt Options) bool {
	w, rounds, msgs, err := runEdgeCountCheck(vf, opt)
	if err != nil {
		v.testerErr = err
		return false
	}
	v.addCheck("edge-count", w == nil, rounds, msgs)
	if w != nil {
		v.reject(*w)
		return false
	}
	w, rounds, msgs, err = runDensityCheck(vf.Network(), opt)
	if err != nil {
		v.testerErr = err
		return false
	}
	v.addCheck("density", w == nil, rounds, msgs)
	if w != nil {
		v.reject(*w)
		return false
	}
	return true
}
