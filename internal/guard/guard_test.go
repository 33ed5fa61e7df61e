package guard

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/planar"
	"planardfs/internal/trace"
)

// sweepSizes is the small-n sweep of the acceptance property tests.
var sweepSizes = []int{4, 10, 17}

// TestGuardAcceptsFamilies pins the one-sided-error contract: every
// generator family instance is accepted by the full validation, and the
// centralized oracle agrees.
func TestGuardAcceptsFamilies(t *testing.T) {
	for _, fam := range gen.Families {
		for _, n := range sweepSizes {
			in, err := gen.ByName(fam, n, 3)
			if err != nil || in.G.M() == 0 {
				continue
			}
			v, err := ValidateInstance(in, Options{Seed: 11, Exhaustive: true})
			if err != nil {
				t.Fatalf("%s: %v", in.Name, err)
			}
			if !v.OK {
				t.Fatalf("%s: planar instance rejected: %+v", in.Name, v.Witness)
			}
			if v.Err() != nil {
				t.Fatalf("%s: accepting verdict has error", in.Name)
			}
			if w := OracleTest(in.G, Options{Seed: 11, Exhaustive: true}); w != nil {
				t.Fatalf("%s: oracle rejected a planar instance: %+v", in.Name, w)
			}
		}
	}
}

// corruptRotations returns the wire rotations of in corrupted by the
// given primitive, or nil when the primitive found nothing to corrupt.
func corruptRotations(in *gen.Instance, seed int64, apply func(*chaos.Plan, [][]int) int) [][]int {
	w := gen.WireOf(in)
	p := chaos.NewPlan(seed, chaos.Spec{Structural: 4})
	if apply(p, w.Rotations) == 0 {
		return nil
	}
	return w.Rotations
}

// embedRotations returns in with its embedding replaced by rot, built on
// in.G.
func embedRotations(t *testing.T, in *gen.Instance, rot [][]int) *gen.Instance {
	t.Helper()
	emb, err := planar.FromNeighborOrders(in.G, rot)
	if err != nil {
		t.Fatalf("%s: corrupted rotation is not a permutation: %v", in.Name, err)
	}
	return &gen.Instance{Name: in.Name, G: in.G, Emb: emb, OuterDart: in.OuterDart}
}

// wantFieldError fails unless err is a *gen.FieldError on field.
func wantFieldError(t *testing.T, name string, err error, field string) {
	t.Helper()
	var fe *gen.FieldError
	if !errors.As(err, &fe) || fe.Field != field {
		t.Fatalf("%s: wire check gave %v, want a FieldError on %q", name, err, field)
	}
}

// TestGuardRejectsRetargetedDarts pins that dart retargeting is rejected
// before the guard runs: Wire.Check reports the rotation that is no longer
// a permutation of its vertex's neighbours, and Build cannot embed it.
func TestGuardRejectsRetargetedDarts(t *testing.T) {
	for _, fam := range []string{"grid", "wheel", "polygon", "stacked", "tree"} {
		in, err := gen.ByName(fam, 12, 3)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		w := gen.WireOf(in)
		if chaos.NewPlan(41, chaos.Spec{Structural: 4}).RetargetDarts(1, in.G.N(), w.Rotations) == 0 {
			t.Fatalf("%s: retarget applied nothing", fam)
		}
		wantFieldError(t, fam, w.Check(), "rotations")
		if _, err := w.Build(); err == nil {
			t.Fatalf("%s: retargeted rotations built an embedding", fam)
		}
	}
}

// TestGuardGenusOracle pins the Euler stage against the centralized genus:
// permutation-preserving rotation corruptions (splice swaps, face
// splices) are rejected exactly when they change the genus.
func TestGuardGenusOracle(t *testing.T) {
	prims := []struct {
		name  string
		apply func(*chaos.Plan, [][]int) int
	}{
		{"splice-rotations", func(p *chaos.Plan, r [][]int) int { return p.SpliceRotations(1, r) }},
		{"splice-faces", func(p *chaos.Plan, r [][]int) int { return p.SpliceFaces(1, r) }},
	}
	rejected := 0
	for _, fam := range []string{"grid", "wheel", "polygon", "stacked", "cylinderish", "tree"} {
		in, err := gen.ByName(fam, 14, 3)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for _, pr := range prims {
			for seed := int64(1); seed <= 3; seed++ {
				rot := corruptRotations(in, seed, pr.apply)
				if rot == nil {
					continue
				}
				spliced := embedRotations(t, in, rot)
				wantReject := spliced.Emb.Genus() != 0
				v, err := ValidateInstance(spliced, Options{Seed: 11, Exhaustive: true})
				if err != nil {
					t.Fatalf("%s/%s: %v", fam, pr.name, err)
				}
				if v.OK == wantReject {
					t.Fatalf("%s/%s seed %d: guard OK=%v, centralized genus %d", fam, pr.name, seed, v.OK, spliced.Emb.Genus())
				}
				if wantReject {
					rejected++
					if v.Witness.Reason != ReasonEuler {
						t.Fatalf("%s/%s: reason %q, want euler", fam, pr.name, v.Witness.Reason)
					}
					if v.Witness.EulerSum == 4 {
						t.Fatalf("%s/%s: euler witness carries accepting sum", fam, pr.name)
					}
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no corruption changed the genus: the sweep exercised nothing")
	}
}

// TestGuardRejectsInjectedEdges pins the rejection of injected edges: a
// triangulation plus any edge trips the guard's edge-count bound, and its
// wire form the same bound in Wire.Check. On a grid, which has room for
// the edges, Wire.Check rejects the stale rotation table instead.
func TestGuardRejectsInjectedEdges(t *testing.T) {
	in, err := gen.ByName("stacked", 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := gen.WireOf(in)
	if len(w.Edges) != 3*w.N-6 {
		t.Fatalf("stacked-%d is not a triangulation: m=%d", w.N, len(w.Edges))
	}
	p := chaos.NewPlan(5, chaos.Spec{Structural: 2})
	edges, added := p.InjectEdges(1, w.N, w.Edges)
	if added == 0 {
		t.Fatal("injection applied nothing")
	}
	g := graph.New(w.N)
	for _, e := range edges {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	v, err := ValidateGraph(g, Options{Seed: 11, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Witness.Reason != ReasonEdgeCount {
		t.Fatalf("injected triangulation: verdict OK=%v reason=%v, want edge-count rejection", v.OK, v.Witness)
	}
	w.Edges = edges
	wantFieldError(t, "injected triangulation", w.Check(), "edges")

	grid, err := gen.ByName("grid", 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	w = gen.WireOf(grid)
	if w.Edges, added = p.InjectEdges(1, w.N, w.Edges); added == 0 {
		t.Fatal("injection applied nothing")
	}
	// The old rotation table no longer covers the new incidences.
	wantFieldError(t, "injected grid", w.Check(), "rotations")
}

// denseTestGraph plants a clique on the first k vertices of a path of
// length n: non-planar for k >= 5, with a radius-1 dense-region witness
// for k >= 6 while the global edge count stays under the planar bound.
func denseTestGraph(t *testing.T, n, k int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		if _, err := g.AddEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < k; u++ {
		for v := u + 2; v < k; v++ {
			if _, err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestGuardDenseRegion pins the ball tester: a K7 planted on a long path
// keeps m <= 3n-6 globally but violates the density bound inside a
// radius-1 ball, so only the dense-region stage can catch it.
func TestGuardDenseRegion(t *testing.T) {
	g := denseTestGraph(t, 64, 7)
	if g.M() > 3*g.N()-6 {
		t.Fatalf("plant is globally dense: m=%d, the edge-count stage would mask the ball test", g.M())
	}
	v, err := ValidateGraph(g, Options{Seed: 11, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Witness.Reason != ReasonDenseRegion {
		t.Fatalf("K7 plant verdict OK=%v reason=%v, want dense-region", v.OK, v.Witness)
	}
	if v.Witness.M <= v.Witness.Bound {
		t.Fatalf("witness numbers do not violate the bound: %+v", v.Witness)
	}
}

// TestGuardEdgeCountK5 pins the global stage: K5 exceeds 3n-6 outright.
func TestGuardEdgeCountK5(t *testing.T) {
	g := graph.New(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if _, err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	v, err := ValidateGraph(g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Witness.Reason != ReasonEdgeCount {
		t.Fatalf("K5 verdict OK=%v reason=%v, want edge-count", v.OK, v.Witness)
	}
}

// TestGuardShapeAndConnectivity pins the centralized prechecks.
func TestGuardShapeAndConnectivity(t *testing.T) {
	v, err := ValidateInstance(&gen.Instance{}, Options{})
	if err != nil || v.OK || v.Witness.Reason != ReasonShape {
		t.Fatalf("instance without a graph: verdict %+v, err %v, want shape", v, err)
	}
	v, err = ValidateGraph(graph.New(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Witness.Reason != ReasonShape {
		t.Fatalf("edgeless graph: verdict OK=%v reason=%v, want shape", v.OK, v.Witness)
	}
	g := graph.New(4)
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	v, err = ValidateGraph(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Witness.Reason != ReasonDisconnected {
		t.Fatalf("two components: verdict OK=%v reason=%v, want disconnected", v.OK, v.Witness)
	}
}

// TestGuardOracleAgreement pins the distributed tester against its
// centralized oracle on accepted and rejected inputs: same centers, same
// decision, same reason.
func TestGuardOracleAgreement(t *testing.T) {
	cases := []*graph.Graph{
		denseTestGraph(t, 64, 7),
		denseTestGraph(t, 40, 6),
		denseTestGraph(t, 40, 1), // plain path: accepted
	}
	if in, err := gen.ByName("grid", 25, 3); err == nil {
		cases = append(cases, in.G)
	}
	for i, g := range cases {
		for _, opt := range []Options{{Seed: 11, Exhaustive: true}, {Seed: 7}} {
			want := OracleTest(g, opt)
			v, err := ValidateGraph(g, opt)
			if err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			if (want == nil) != v.OK {
				t.Fatalf("case %d: oracle witness %+v, distributed OK=%v", i, want, v.OK)
			}
			if want != nil {
				got := v.Witness
				if got.Reason != want.Reason || got.Center != want.Center || got.N != want.N || got.M != want.M {
					t.Fatalf("case %d: oracle %+v, distributed %+v", i, want, got)
				}
			}
		}
	}
}

// TestGuardVerdictChecks pins the stage accounting: an accepting run
// records every stage with cost, a rejecting run ends at the failing one.
func TestGuardVerdictChecks(t *testing.T) {
	in, err := gen.ByName("wheel", 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ValidateInstance(in, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{"shape", "connectivity", "edge-count", "density", "euler"}
	if len(v.Checks) != len(wantStages) {
		t.Fatalf("accepting verdict has %d checks, want %d: %+v", len(v.Checks), len(wantStages), v.Checks)
	}
	distributed := 0
	for i, c := range v.Checks {
		if c.Name != wantStages[i] || !c.OK {
			t.Fatalf("check %d = %+v, want OK %q", i, c, wantStages[i])
		}
		if c.Messages > 0 {
			distributed++
		}
	}
	if distributed < 3 {
		t.Fatalf("only %d stages report message cost; edge-count, density and euler should all be distributed", distributed)
	}
	if v.Rounds <= 0 || v.Messages <= 0 {
		t.Fatalf("verdict totals empty: rounds=%d messages=%d", v.Rounds, v.Messages)
	}
}

// TestGuardRoundsMatchTraceClock pins Verdict.Rounds to the trace clock: a
// traced validation advances it by exactly the verdict's rounds, the Euler
// stage's prover charge included, whether the input is accepted or
// rejected at the Euler stage. The first input is the first of the
// stacked triangulations the cold-stacked benchmark draws from its seed 1,
// on which the clock advanced 2,536 rounds while Rounds reported 136
// before the prover charge was counted.
func TestGuardRoundsMatchTraceClock(t *testing.T) {
	first, err := gen.ByName("stacked", 1000, rand.New(rand.NewSource(1)).Int63())
	if err != nil {
		t.Fatal(err)
	}
	ins := []*gen.Instance{first}
	for _, fam := range []string{"grid", "wheel", "cylinderish", "tree"} {
		in, err := gen.ByName(fam, 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	for _, in := range ins {
		rec := trace.NewRecorder()
		v, err := ValidateInstance(in, Options{Seed: 1, Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		if !v.OK {
			t.Fatalf("%s: planar instance rejected: %+v", in.Name, v.Witness)
		}
		if rec.Now() != int64(v.Rounds) {
			t.Errorf("%s: clock %d, want Verdict.Rounds %d", in.Name, rec.Now(), v.Rounds)
		}
	}
	grid := ins[1]
	rot := corruptRotations(grid, 2, func(p *chaos.Plan, r [][]int) int { return p.SpliceFaces(1, r) })
	rec := trace.NewRecorder()
	v, err := ValidateInstance(embedRotations(t, grid, rot), Options{Seed: 1, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Witness.Reason != ReasonEuler {
		t.Fatalf("face splice: OK=%v witness=%+v, want an euler rejection", v.OK, v.Witness)
	}
	if rec.Now() != int64(v.Rounds) {
		t.Errorf("euler rejection: clock %d, want Verdict.Rounds %d", rec.Now(), v.Rounds)
	}
}

// TestVerdictHandsOverItsVerifier pins the handoff: an accepting
// validation hands over the context of its graph once, with the BFS tree
// and programs it built; rejecting and graph-only verdicts hand over
// nothing.
func TestVerdictHandsOverItsVerifier(t *testing.T) {
	in, err := gen.ByName("grid", 36, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ValidateInstance(in, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vf := v.TakeVerifier()
	if vf == nil || vf.Graph() != in.G {
		t.Fatalf("accepting verdict handed over %v, want the context of the instance's graph", vf)
	}
	if v.TakeVerifier() != nil {
		t.Fatal("a verdict handed its context over twice")
	}
	rot := corruptRotations(in, 2, func(p *chaos.Plan, r [][]int) int { return p.SpliceFaces(1, r) })
	if v, err = ValidateInstance(embedRotations(t, in, rot), Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if v.OK || v.TakeVerifier() != nil {
		t.Fatalf("rejecting verdict (OK=%v) handed over a context", v.OK)
	}
	if v, err = ValidateGraph(in.G, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !v.OK || v.TakeVerifier() != nil {
		t.Fatalf("graph-only verdict (OK=%v) handed over a context", v.OK)
	}
}

// TestBallResetClearsEveryField pins the lazy reset a vertex takes at its
// first step in a probe to the fresh state literal: after a probe has
// dirtied the pool, every vertex's state in the next probe must be the
// fresh one, with only its degree and its center flag set, and must keep
// its slot for the rest of the probe.
func TestBallResetClearsEveryField(t *testing.T) {
	in, err := gen.ByName("stacked", 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	nw := congest.New(in.G)
	bp := newBallProgram(nw)
	if _, _, _, _, err := bp.run(nw, 7); err != nil {
		t.Fatal(err)
	}
	if len(bp.states) == 0 || len(bp.states) == in.G.N() {
		t.Fatalf("the probe at 7 took %d of %d pool slots, want its ball's", len(bp.states), in.G.N())
	}
	bp.begin(5)
	for v := range bp.verts {
		if bp.stateOf(v) != nil {
			t.Fatalf("vertex %d has a state before the probe stepped it", v)
		}
		bn := bp.verts[v].state()
		want := ballNode{deg: in.G.Degree(v), center: v == 5, dist: -1, parentPort: -1}
		if !reflect.DeepEqual(*bn, want) {
			t.Fatalf("vertex %d: reset gives %+v, want %+v", v, *bn, want)
		}
		if bp.stateOf(v) != bn || bp.verts[v].state() != bn {
			t.Fatalf("vertex %d: a second lookup in the probe moved its state", v)
		}
	}
}
