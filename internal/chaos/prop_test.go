package chaos

import (
	"context"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
)

// The soundness property of the fault model: a fault may slow a run down,
// make it fail explicitly, or be rejected by the certifier — but it can
// never produce a silently wrong certified result. These tests enumerate
// EVERY single-message fault position of real runs and check the property
// exhaustively, then sweep randomized multi-fault plans across seeds.

// delivery is one observed message delivery position.
type delivery struct {
	round int
	edge  int
	intoV bool
}

// observer records every delivery position without perturbing the run.
type observer struct {
	g          *graph.Graph
	deliveries []delivery
}

func (o *observer) Schedule(func(v, round int)) {}

func (o *observer) Crashed(round, v int) bool { return false }

func (o *observer) Deliver(round, src, srcPort, dst, dstPort int, msg congest.Message) (congest.Message, congest.DeliveryFate) {
	e := int(o.g.IncidentEdges(src)[srcPort])
	o.deliveries = append(o.deliveries, delivery{round: round, edge: e, intoV: o.g.EdgeByID(e).V == dst})
	return msg, congest.FateDeliver
}

func (o *observer) Released(round, dst int, inbox []congest.Incoming) []congest.Incoming {
	return inbox
}

func (o *observer) Pending() bool { return false }

// observeBFS enumerates the delivery positions of a fault-free BFS run.
func observeBFS(t *testing.T, g *graph.Graph, root int) []delivery {
	t.Helper()
	nw := congest.New(g)
	obs := &observer{g: g}
	nw.Injector = obs
	if _, err := nw.Run(congest.NewBFSNodes(nw, root), 10*g.N()+20); err != nil {
		t.Fatal(err)
	}
	return obs.deliveries
}

// TestBFSEverySingleFaultIsSoundOnGrids is the exhaustive property test:
// for every delivery position of a BFS run on small grids, and for both a
// drop and a payload corruption at that position, the outcome is either a
// cert-accepted result that the centralized oracle confirms correct, or an
// explicit certifier rejection. A cert-accepted wrong tree fails the test.
func TestBFSEverySingleFaultIsSoundOnGrids(t *testing.T) {
	for _, n := range []int{9, 12} {
		in, err := gen.ByName("grid", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := in.G
		positions := observeBFS(t, g, 0)
		if len(positions) == 0 {
			t.Fatal("observed no deliveries")
		}
		var accepted, rejected int
		for _, mk := range []func(delivery) Fault{
			func(d delivery) Fault {
				return Fault{Kind: Drop, Round: d.round, Edge: d.edge, IntoV: d.intoV}
			},
			func(d delivery) Fault {
				return Fault{Kind: Corrupt, Round: d.round, Edge: d.edge, IntoV: d.intoV, Word: 0, XOR: 1}
			},
		} {
			for _, pos := range positions {
				f := mk(pos)
				plan := &Plan{Faults: []Fault{f}}
				out, inj, _, err := bfsRun(t, g, plan)
				if err != nil {
					t.Fatalf("n=%d fault %+v: BFS errored: %v", n, f, err)
				}
				if inj.Counts().Total() == 0 {
					t.Fatalf("n=%d fault %+v missed its observed delivery", n, f)
				}
				v, err := cert.NewVerifier(g, cert.Options{}).CertifyBFSTree(0, out.Parent, out.Dist)
				if err != nil {
					t.Fatal(err)
				}
				oracle := cert.CheckBFSTree(g, 0, out.Parent, out.Dist)
				if v.OK {
					accepted++
					if oracle != nil {
						t.Fatalf("n=%d fault %+v: SILENT WRONG RESULT accepted by certifier: %v", n, f, oracle)
					}
				} else {
					rejected++
					if oracle == nil && f.Kind == Drop {
						// One-sided error is allowed (a correct result may be
						// rejected), but log it: it costs a retry.
						t.Logf("n=%d fault %+v: correct result rejected (one-sided error)", n, f)
					}
				}
			}
		}
		if rejected == 0 {
			t.Fatalf("n=%d: no fault position was ever rejected; the property test is vacuous", n)
		}
		t.Logf("n=%d: %d positions x2 faults: %d accepted-correct, %d explicitly rejected",
			n, len(positions), accepted, rejected)
	}
}

// TestPAEverySingleDropIsSound drops every delivery position of a
// part-wise aggregation run and checks each faulted run classifies as
// oracle-correct, oracle-rejected, or an explicit run error — never a
// silently wrong aggregate escaping the certifier.
func TestPAEverySingleDropIsSound(t *testing.T) {
	in, err := gen.ByName("grid", 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := in.G
	partOf := make([]int, g.N())
	value := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		partOf[v] = v % 3
		value[v] = v + 1
	}
	opt := cert.Options{}

	// Sanity: the fault-free stage run passes its own oracle.
	obsStage := PartwiseSum(g, 0, partOf, value, nil, opt)
	res, _, err := obsStage.Run(1, obsStage.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := obsStage.Certify(res); !c.OK {
		t.Fatal("fault-free PA run rejected by its own oracle")
	}
	positions := observePA(t, g, 0, partOf, value)
	if len(positions) == 0 {
		t.Fatal("observed no PA deliveries")
	}
	var correct, rejectedOrFailed int
	for _, pos := range positions {
		plan := &Plan{Faults: []Fault{{Kind: Drop, Round: pos.round, Edge: pos.edge, IntoV: pos.intoV}}}
		st := PartwiseSum(g, 0, partOf, value, plan, opt)
		res, _, err := st.Run(1, st.DefaultBudget)
		if err != nil {
			rejectedOrFailed++ // explicit failure (round limit): sound
			continue
		}
		c, cerr := st.Certify(res)
		if cerr != nil {
			t.Fatal(cerr)
		}
		if c.OK {
			correct++ // oracle confirms every aggregate: sound
		} else {
			rejectedOrFailed++
		}
	}
	if correct+rejectedOrFailed != len(positions) {
		t.Fatalf("classified %d of %d positions", correct+rejectedOrFailed, len(positions))
	}
	if rejectedOrFailed == 0 {
		t.Fatal("every drop position aggregated correctly; the test is vacuous")
	}
	t.Logf("PA: %d drop positions: %d oracle-correct, %d explicit rejection/failure",
		len(positions), correct, rejectedOrFailed)
}

// observePA enumerates the delivery positions of a fault-free PA run by
// rebuilding the exact run the stage executes (same spanning tree, same
// node programs) with an observing injector.
func observePA(t *testing.T, g *graph.Graph, root int, partOf, value []int) []delivery {
	t.Helper()
	st := PartwiseSum(g, root, partOf, value, nil, cert.Options{})
	nw := congest.New(g)
	obs := &observer{g: g}
	nw.Injector = obs
	tr, err := spanning.BFSTree(g, root)
	if err != nil {
		t.Fatal(err)
	}
	nodes := congest.NewPANodes(nw, tr.Parent, root, partOf, value, congest.OpSum)
	if _, err := nw.Run(nodes, st.DefaultBudget); err != nil {
		t.Fatal(err)
	}
	return obs.deliveries
}

// TestSeededPlansAlwaysClassify is the randomized soundness sweep: 24
// seeded multi-fault plans on grid and cylinderish instances, each run
// under the full supervised runtime with a fault-free fallback. Every run
// must end in exactly one of the four outcomes, certified outcomes must be
// oracle-correct, and the attempt/fault tallies must be visible in the
// exported metrics.
func TestSeededPlansAlwaysClassify(t *testing.T) {
	outcomes := map[Outcome]int{}
	families := []string{"grid", "cylinderish"}
	for seed := int64(1); seed <= 24; seed++ {
		in, err := gen.ByName(families[seed%2], 36, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := in.G
		rec := trace.NewRecorder()
		plan := NewPlan(seed, Spec{
			Drops:       int(3 * (seed % 4)),
			Corruptions: int(2 * ((seed + 1) % 3)),
			Stalls:      int(2 * (seed % 3)),
			Crashes:     int(seed % 2),
			LinkDowns:   int((seed + 1) % 2),
			Horizon:     60, // dense: most plans hit live messages
			Protect:     []int{0},
		})
		opt := cert.Options{Tracer: rec}
		primary := AwerbuchDFS(g, 0, plan, opt)
		fallback := AwerbuchDFS(g, 0, nil, opt) // fault-free baseline
		parent, rep, err := RunWithRecoveryContext(context.Background(), primary, &fallback, Policy{MaxAttempts: 3, Tracer: rec})
		if err != nil {
			t.Fatalf("seed %d: infrastructure error: %v", seed, err)
		}
		outcomes[rep.Outcome]++
		switch rep.Outcome {
		case OutcomeCertified, OutcomeCertifiedRetry, OutcomeDegraded:
			tr := mustTree(t, 0, parent)
			if cerr := cert.CheckSpanningTree(g, tr); cerr != nil {
				t.Fatalf("seed %d: outcome %v returned a wrong tree: %v", seed, rep.Outcome, cerr)
			}
		case OutcomeFailed:
			// Explicit failure: sound, but with a fault-free fallback it
			// should not happen.
			t.Errorf("seed %d: fault-free fallback failed", seed)
		}
		if got := rec.Counter("chaos.attempts"); got != int64(len(rep.Attempts)) {
			t.Fatalf("seed %d: chaos.attempts metric = %d, report has %d", seed, got, len(rep.Attempts))
		}
		if rec.Counter("chaos.outcome."+rep.Outcome.String()) != 1 {
			t.Fatalf("seed %d: outcome counter missing", seed)
		}
		firedInMetrics := rec.Counter("chaos.faults.drops") + rec.Counter("chaos.faults.corruptions") +
			rec.Counter("chaos.faults.stalls") + rec.Counter("chaos.faults.linkdown_drops") +
			rec.Counter("chaos.faults.crashes") + rec.Counter("chaos.faults.structural")
		if firedInMetrics != rep.Faults.Total() {
			t.Fatalf("seed %d: metrics count %d faults, report %d", seed, firedInMetrics, rep.Faults.Total())
		}
	}
	total := 0
	for _, c := range outcomes {
		total += c
	}
	if total != 24 {
		t.Fatalf("classified %d of 24 runs", total)
	}
	if outcomes[OutcomeCertified]+outcomes[OutcomeCertifiedRetry] == 0 {
		t.Fatal("no seeded run ever certified; sweep too hostile to be informative")
	}
	t.Logf("outcomes over 24 seeds: certified=%d retry=%d degraded=%d failed=%d",
		outcomes[OutcomeCertified], outcomes[OutcomeCertifiedRetry],
		outcomes[OutcomeDegraded], outcomes[OutcomeFailed])
}
