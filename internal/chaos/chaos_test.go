package chaos

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
)

func grid(t testing.TB, n int) *graph.Graph {
	t.Helper()
	in, err := gen.ByName("grid", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in.G
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("drops=2, corruptions=1,linkdowns=3,crashes=1,stalls=4,structural=5,horizon=77,stalllen=2")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Drops: 2, Corruptions: 1, LinkDowns: 3, Crashes: 1, Stalls: 4, Structural: 5, Horizon: 77, StallLen: 2}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if s, err := ParseSpec(""); err != nil || !s.zero() {
		t.Fatalf("empty spec = %+v, %v", s, err)
	}
	for _, bad := range []string{"drops", "drops=-1", "drops=x", "bogus=1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestPlanFor(t *testing.T) {
	if p, err := PlanFor("", 3, 0); p != nil || err != nil {
		t.Fatalf("PlanFor(\"\") = %v, %v; want a nil plan", p, err)
	}
	if _, err := PlanFor("bogus=1", 3, 0); err == nil {
		t.Fatal("PlanFor accepted a bogus spec")
	}
	const root = 7
	p, err := PlanFor("crashes=35", 3, root)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 3 || p.Spec.Crashes != 35 || !reflect.DeepEqual(p.Spec.Protect, []int{root}) {
		t.Fatalf("plan = %+v, want seed 3, 35 crashes, root %d protected", p, root)
	}
	// Even a crash count that could stop every other vertex spares the root.
	g := grid(t, 36)
	crashed := map[int]bool{}
	for _, f := range p.faultsFor(g, 1) {
		if f.Kind == Crash {
			crashed[f.Node] = true
		}
	}
	if crashed[root] || len(crashed) == 0 {
		t.Fatalf("crashes %v: root %d must survive", crashed, root)
	}
}

// A nil plan must leave the network untouched: Arm returns nil and the run
// is byte-identical to an uninjected one.
func TestNilPlanUnchanged(t *testing.T) {
	g := grid(t, 36)
	run := func(plan *Plan) ([]int, congest.Stats) {
		nw := congest.New(g)
		if inj := plan.Arm(nw, 1); inj != nil {
			t.Fatal("nil plan armed an injector")
		}
		if nw.Injector != nil {
			t.Fatal("nil plan installed a network injector")
		}
		nodes := congest.NewBFSNodes(nw, 0)
		if _, err := nw.Run(nodes, 10*g.N()); err != nil {
			t.Fatal(err)
		}
		dist := make([]int, g.N())
		for v := range dist {
			dist[v] = nodes[v].(*congest.BFSNode).Dist
		}
		return dist, nw.Stats()
	}
	d1, s1 := run(nil)
	d2, s2 := run(&Plan{Seed: 7}) // no spec, no explicit faults
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("empty plan perturbed the run")
	}
}

// Explicit fault semantics on small graphs.

func bfsRun(t *testing.T, g *graph.Graph, plan *Plan) (BFSOutput, *Injector, int, error) {
	t.Helper()
	nw := congest.New(g)
	inj := plan.Arm(nw, 1)
	nodes := congest.NewBFSNodes(nw, 0)
	rounds, err := nw.Run(nodes, 10*g.N()+20)
	out := BFSOutput{Parent: make([]int, g.N()), Dist: make([]int, g.N())}
	for v := range out.Parent {
		bn := nodes[v].(*congest.BFSNode)
		out.Parent[v], out.Dist[v] = bn.ParentID, bn.Dist
	}
	return out, inj, rounds, err
}

func TestExplicitCrashPartitionsRun(t *testing.T) {
	in, err := gen.ByName("path", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := in.G
	plan := &Plan{Faults: []Fault{{Kind: Crash, Node: 2, Round: 0}}}
	out, inj, _, err := bfsRun(t, g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.Counts(); got.Crashes != 1 {
		t.Fatalf("crash count = %d, want 1", got.Crashes)
	}
	// Vertices behind the crash never learn a distance; the certifier must
	// reject the claim.
	if out.Dist[4] != -1 {
		t.Fatalf("dist[4] = %d, want unreached (-1)", out.Dist[4])
	}
	v, err := cert.CertifyBFSTree(g, 0, out.Parent, out.Dist, cert.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("certifier accepted a partitioned BFS claim")
	}
}

func TestExplicitStallDelaysButStaysCorrect(t *testing.T) {
	in, err := gen.ByName("path", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := in.G
	// Stall the only frontier message: the run must wait, then finish
	// correctly — stalled messages block termination via Pending.
	e := int(g.IncidentEdges(0)[0])
	plan := &Plan{Faults: []Fault{{Kind: Stall, Edge: e, IntoV: g.EdgeByID(e).V != 0, Round: 0, Len: 4}}}
	out, inj, rounds, err := bfsRun(t, g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.Counts(); got.Stalls != 1 {
		t.Fatalf("stall count = %d, want 1", got.Stalls)
	}
	base, _, baseRounds, err := bfsRun(t, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rounds <= baseRounds {
		t.Fatalf("stalled run took %d rounds, fault-free %d; want slower", rounds, baseRounds)
	}
	if !reflect.DeepEqual(out, base) {
		t.Fatal("stalled run changed the BFS result")
	}
	if err := cert.CheckBFSTree(g, 0, out.Parent, out.Dist); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitLinkDownNeverSilentlyWrong(t *testing.T) {
	in, err := gen.ByName("cycle", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := in.G
	// Silence the cycle edge {0,5} from round 0: BFS routes the long way,
	// so node 5 claims dist 5 while its neighbour 0 claims 0 — the gap
	// judge must reject.
	var e = -1
	for _, id := range g.IncidentEdges(0) {
		if g.EdgeByID(int(id)).Other(0) == 5 {
			e = int(id)
		}
	}
	if e < 0 {
		t.Fatal("cycle edge {0,5} not found")
	}
	plan := &Plan{Faults: []Fault{{Kind: LinkDown, Edge: e, Round: 0}}}
	out, inj, _, err := bfsRun(t, g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Counts().LinkDownDrops == 0 {
		t.Fatal("link-down dropped nothing")
	}
	v, err := cert.CertifyBFSTree(g, 0, out.Parent, out.Dist, cert.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("certifier accepted distances computed without the downed link")
	}
}

func TestCorruptParentsDecays(t *testing.T) {
	plan := NewPlan(5, Spec{Structural: 4})
	base := make([]int, 20)
	for v := range base {
		base[v] = 0
	}
	base[0] = -1
	prev := -1
	for attempt := 1; attempt <= 4; attempt++ {
		p := append([]int(nil), base...)
		applied := plan.CorruptParents(attempt, 0, p)
		burst := 4 >> (attempt - 1)
		if applied != burst {
			t.Fatalf("attempt %d applied %d, want %d", attempt, applied, burst)
		}
		if applied == 0 && !reflect.DeepEqual(p, base) {
			t.Fatal("zero burst still mutated the array")
		}
		if p[0] != -1 {
			t.Fatal("root parent corrupted despite protection")
		}
		_ = prev
		prev = applied
	}
	// Determinism: same (seed, attempt) twice gives the same corruption.
	a := append([]int(nil), base...)
	b := append([]int(nil), base...)
	plan.CorruptParents(1, 0, a)
	plan.CorruptParents(1, 0, b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("CorruptParents is not deterministic")
	}
}

// Supervisor outcome classification on synthetic stages.

func syntheticStage(name string, acceptAt int, runErrAt map[int]error) Stage[int] {
	return Stage[int]{
		Name:          name,
		DefaultBudget: 100,
		Run: func(attempt, budget int) (int, int, error) {
			if err := runErrAt[attempt]; err != nil {
				return 0, budget, err
			}
			return attempt, 10 * attempt, nil
		},
		Certify: func(res int) (Certification, error) {
			if acceptAt > 0 && res >= acceptAt {
				return Certification{OK: true}, nil
			}
			return Certification{Rejectors: 2, Detail: "synthetic reject"}, nil
		},
	}
}

func TestRecoveryOutcomeCertified(t *testing.T) {
	res, rep, err := RunWithRecovery(syntheticStage("p", 1, nil), nil, Policy{})
	if err != nil || res != 1 {
		t.Fatalf("res = %d, err = %v", res, err)
	}
	if rep.Outcome != OutcomeCertified || len(rep.Attempts) != 1 || !rep.Attempts[0].Accepted {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRecoveryOutcomeCertifiedRetryWithBackoff(t *testing.T) {
	rec := trace.NewRecorder()
	res, rep, err := RunWithRecovery(syntheticStage("p", 3, nil), nil,
		Policy{MaxAttempts: 3, Tracer: rec})
	if err != nil || res != 3 {
		t.Fatalf("res = %d, err = %v", res, err)
	}
	if rep.Outcome != OutcomeCertifiedRetry {
		t.Fatalf("outcome = %v, want certified-after-retry", rep.Outcome)
	}
	budgets := []int{}
	for _, a := range rep.Attempts {
		budgets = append(budgets, a.Budget)
	}
	if !reflect.DeepEqual(budgets, []int{100, 200, 400}) {
		t.Fatalf("budgets = %v, want exponential backoff 100,200,400", budgets)
	}
	if rep.Attempts[0].Err != "synthetic reject" || rep.Attempts[0].Rejectors != 2 {
		t.Fatalf("rejected attempt = %+v", rep.Attempts[0])
	}
	if rec.Counter("chaos.attempts") != 3 || rec.Counter("chaos.rejections") != 2 {
		t.Fatalf("counters: attempts=%d rejections=%d",
			rec.Counter("chaos.attempts"), rec.Counter("chaos.rejections"))
	}
	if rec.Counter("chaos.outcome.certified-after-retry") != 1 {
		t.Fatal("outcome counter missing")
	}
}

func TestRecoveryOutcomeDegraded(t *testing.T) {
	rec := trace.NewRecorder()
	fb := syntheticStage("fb", 1, nil)
	res, rep, err := RunWithRecovery(syntheticStage("p", 0, nil), &fb,
		Policy{MaxAttempts: 2, Tracer: rec})
	if err != nil || res != 1 {
		t.Fatalf("res = %d, err = %v", res, err)
	}
	if rep.Outcome != OutcomeDegraded {
		t.Fatalf("outcome = %v, want degraded", rep.Outcome)
	}
	if len(rep.Attempts) != 3 || rep.Attempts[2].Stage != "fb" {
		t.Fatalf("attempts = %+v", rep.Attempts)
	}
	if rec.Counter("chaos.fallbacks") != 1 || rec.Counter("chaos.outcome.degraded") != 1 {
		t.Fatal("fallback counters missing")
	}
}

func TestRecoveryOutcomeFailed(t *testing.T) {
	boom := errors.New("budget exhausted")
	fb := syntheticStage("fb", 0, nil)
	_, rep, err := RunWithRecovery(
		syntheticStage("p", 0, map[int]error{1: boom, 2: boom, 3: boom}), &fb, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeFailed {
		t.Fatalf("outcome = %v, want failed", rep.Outcome)
	}
	if len(rep.Attempts) != 6 {
		t.Fatalf("attempts = %d, want 3 primary + 3 fallback", len(rep.Attempts))
	}
	if rep.Attempts[0].Err != "budget exhausted" {
		t.Fatalf("attempt err = %q", rep.Attempts[0].Err)
	}
}

func TestRecoveryInfrastructureError(t *testing.T) {
	infra := errors.New("infra down")
	st := Stage[int]{
		Name:          "p",
		DefaultBudget: 1,
		Run:           func(attempt, budget int) (int, int, error) { return 0, 0, nil },
		Certify:       func(int) (Certification, error) { return Certification{}, infra },
	}
	if _, _, err := RunWithRecovery(st, nil, Policy{}); !errors.Is(err, infra) {
		t.Fatalf("err = %v, want the infrastructure error", err)
	}
}

// End-to-end: Awerbuch under injected token loss recovers via retry (the
// re-rolled transient faults miss) or is explicitly rejected — never a
// silently wrong certified tree.
func TestAwerbuchStageRecovers(t *testing.T) {
	g := grid(t, 25)
	plan := NewPlan(9, Spec{Drops: 2, Protect: []int{0}})
	st := AwerbuchDFS(g, 0, plan, cert.Options{})
	parent, rep, err := RunWithRecovery(st, nil, Policy{MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	switch rep.Outcome {
	case OutcomeCertified, OutcomeCertifiedRetry:
		if verr := cert.CheckSpanningTree(g, mustTree(t, 0, parent)); verr != nil {
			t.Fatalf("certified tree is wrong: %v", verr)
		}
	case OutcomeFailed:
		// Explicit failure is a sound outcome.
	default:
		t.Fatalf("unexpected outcome %v", rep.Outcome)
	}
	if rep.Faults.Total() == 0 && len(rep.Attempts) == 1 {
		t.Log("no fault hit a live message; run certified clean")
	}
}

func mustTree(t *testing.T, root int, parent []int) *spanning.Tree {
	t.Helper()
	tr, err := spanning.NewFromParents(root, parent)
	if err != nil {
		t.Fatalf("certified parent array is not a tree: %v", err)
	}
	return tr
}

// Cancellation: the supervisor must stop retrying mid-flight the moment the
// context dies, report OutcomeFailed, and surface ctx.Err().
func TestRecoveryContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	runs := 0
	st := Stage[int]{
		Name:          "p",
		DefaultBudget: 1,
		Run: func(attempt, budget int) (int, int, error) {
			runs++
			if attempt == 2 {
				cancel() // cancelled while "in flight"
			}
			return attempt, 1, nil
		},
		Certify: func(int) (Certification, error) {
			return Certification{Detail: "synthetic reject"}, nil
		},
	}
	fb := syntheticStage("fb", 1, nil)
	rec := trace.NewRecorder()
	_, rep, err := RunWithRecoveryContext(ctx, st, &fb, Policy{MaxAttempts: 5, Tracer: rec})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Outcome != OutcomeFailed {
		t.Fatalf("outcome = %v, want failed", rep.Outcome)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2 (no retries after cancellation, no fallback)", runs)
	}
	if rec.Counter("chaos.cancellations") != 1 {
		t.Fatal("cancellation counter missing")
	}
}

// A context cancelled before the first attempt never runs the stage at all.
func TestRecoveryContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs := 0
	st := Stage[int]{
		Name:          "p",
		DefaultBudget: 1,
		Run: func(attempt, budget int) (int, int, error) {
			runs++
			return attempt, 1, nil
		},
		Certify: func(int) (Certification, error) { return Certification{OK: true}, nil },
	}
	if _, _, err := RunWithRecoveryContext(ctx, st, nil, Policy{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if runs != 0 {
		t.Fatalf("runs = %d, want 0", runs)
	}
}
