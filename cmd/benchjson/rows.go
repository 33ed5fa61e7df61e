package main

import (
	"context"
	"errors"
	"fmt"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/pipeline"
	"planardfs/internal/separator"
	"planardfs/internal/sepengine"
	"planardfs/internal/spanning"
)

// congestRows runs every program on every family at size n and, with
// scaling, adds a construction row and a BFS row per family and size.
func congestRows(sw sweep) ([]Row, error) {
	var rows []Row
	for _, fam := range sw.families {
		for _, prog := range sw.programs {
			r, err := congestRow(prog, fam, sw.n)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", prog, fam, err)
			}
			rows = append(rows, r)
		}
	}
	if !sw.scaling {
		return rows, nil
	}
	for _, fam := range sw.families {
		for _, size := range sw.sizes {
			c, err := constructRow(fam, size)
			if err != nil {
				return nil, fmt.Errorf("construct %s/%d: %w", fam, size, err)
			}
			b, err := congestRow("bfs", fam, size)
			if err != nil {
				return nil, fmt.Errorf("bfs %s/%d: %w", fam, size, err)
			}
			rows = append(rows, c, b)
		}
	}
	return rows, nil
}

// congestRow runs one node program on the round engine.
func congestRow(program, family string, size int) (Row, error) {
	in, err := gen.ByName(family, size, 1)
	if err != nil {
		return Row{}, err
	}
	g := in.G

	var build func(nw *congest.Network) []congest.Node
	var budget int
	switch program {
	case "bfs":
		build = func(nw *congest.Network) []congest.Node { return congest.NewBFSNodes(nw, 0) }
		budget = 10*g.N() + 100
	case "pa":
		tree, err := spanning.BFSTree(g, 0)
		if err != nil {
			return Row{}, err
		}
		partOf := make([]int, g.N())
		value := make([]int, g.N())
		for v := range partOf {
			partOf[v] = v % 16
			value[v] = 1
		}
		build = func(nw *congest.Network) []congest.Node {
			return congest.NewPANodes(nw, tree.Parent, 0, partOf, value, congest.OpSum)
		}
		budget = 100*g.N() + 1000
	case "dfs":
		build = func(nw *congest.Network) []congest.Node { return congest.NewAwerbuchNodes(nw, 0) }
		budget = 10 * g.N()
	default:
		return Row{}, fmt.Errorf("unknown program %q", program)
	}

	nw := congest.New(g)
	res, err := hostCost(func() error {
		_, err := nw.Run(build(nw), budget)
		return err
	})
	if err != nil {
		return Row{}, err
	}
	return Row{
		ID:   Fields{"program": program, "family": family, "size": size},
		Det:  congestDet(g, nw.Stats()),
		Host: perOp(res),
	}, nil
}

// constructRow measures instance construction — graph build, embedding
// assembly and validation. With the flat substrate, allocs/op is a small
// constant independent of n (the backing arrays plus the validator's
// scratch), which is the scaling property the committed baseline pins.
// The row runs no rounds, so its round columns are zero.
func constructRow(family string, size int) (Row, error) {
	var g *graph.Graph
	res, err := hostCost(func() error {
		in, err := gen.ByName(family, size, 1)
		if err != nil {
			return err
		}
		g = in.G
		return nil
	})
	if err != nil {
		return Row{}, err
	}
	return Row{
		ID:   Fields{"program": "construct", "family": family, "size": size},
		Det:  congestDet(g, congest.Stats{}),
		Host: perOp(res),
	}, nil
}

func congestDet(g *graph.Graph, st congest.Stats) Fields {
	return Fields{
		"n":                   g.N(),
		"m":                   g.M(),
		"rounds":              st.Rounds,
		"messages":            st.Messages,
		"words":               st.Words,
		"max_edge_congestion": st.MaxEdgeCongestion,
	}
}

var certSchemes = []string{"spanning", "dfs", "separator", "embedding"}

// certRows proves and verifies a correct output of every scheme on every
// family at size n; a rejection fails the run.
func certRows(sw sweep) ([]Row, error) {
	var rows []Row
	for _, fam := range sw.families {
		for _, scheme := range certSchemes {
			r, err := certRow(scheme, fam, sw.n)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", scheme, fam, err)
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

func certRow(scheme, family string, size int) (Row, error) {
	in, err := gen.ByName(family, size, 1)
	if err != nil {
		return Row{}, err
	}
	g := in.G
	var opt cert.Options

	var certify func() (*cert.Verdict, error)
	switch scheme {
	case "spanning":
		tree, err := spanning.BFSTree(g, 0)
		if err != nil {
			return Row{}, err
		}
		certify = func() (*cert.Verdict, error) { return cert.NewVerifier(g, opt).CertifySpanningTree(tree) }
	case "dfs":
		tree, err := spanning.DeepDFSTree(g, 0)
		if err != nil {
			return Row{}, err
		}
		certify = func() (*cert.Verdict, error) { return cert.NewVerifier(g, opt).CertifyDFSTree(0, tree.Parent) }
	case "separator":
		cfg, err := pipeline.NewConfig(in, pipeline.TreeBFS, in.Emb.FaceRoot(in.OuterDart))
		if err != nil {
			return Row{}, err
		}
		sep, err := separator.Find(cfg)
		if err != nil {
			return Row{}, err
		}
		certify = func() (*cert.Verdict, error) { return cert.NewVerifier(g, opt).CertifySeparator(sep) }
	case "embedding":
		certify = func() (*cert.Verdict, error) { return cert.NewVerifier(g, opt).CertifyEmbedding(in.Emb) }
	default:
		return Row{}, fmt.Errorf("unknown scheme %q", scheme)
	}

	var v *cert.Verdict
	res, err := hostCost(func() error {
		var err error
		if v, err = certify(); err != nil {
			return err
		}
		if !v.OK {
			return fmt.Errorf("correct output rejected at %v", v.Rejectors)
		}
		return nil
	})
	if err != nil {
		return Row{}, err
	}
	return Row{
		ID: Fields{"scheme": scheme, "family": family, "size": size},
		Det: Fields{
			"n":               g.N(),
			"m":               g.M(),
			"label_words":     v.LabelWords,
			"prover_rounds":   v.ProverRounds,
			"verifier_rounds": v.VerifierRounds,
			"agg_rounds":      v.AggRounds,
			"messages":        v.Stats.Messages,
			"words":           v.Stats.Words,
		},
		Host: perOp(res),
	}, nil
}

// chaosScenarios are the fault plans the baseline sweeps, from quiescent
// supervision overhead to a mixed plan that usually forces retries.
// The tight horizon concentrates the random fault rounds into the live
// prefix of the run (a BFS on these instances finishes in a few dozen
// rounds). Point faults (drop/corrupt/stall) only fire when they land on
// an in-flight message, so the bursts are sized for a couple of expected
// hits; link-down and crash are persistent and fire on their own.
var chaosScenarios = []string{
	"",
	"drops=48,horizon=24",
	"corruptions=48,horizon=24",
	"linkdowns=2,horizon=24",
	"drops=3,corruptions=2,crashes=1,horizon=24",
}

// chaosRows runs the supervised bfs and awerbuch stages on every family
// at size n under every scenario.
func chaosRows(sw sweep) ([]Row, error) {
	var rows []Row
	for _, fam := range sw.families {
		for _, prog := range []string{"bfs", "awerbuch"} {
			for _, spec := range chaosScenarios {
				r, err := chaosRow(prog, fam, spec, sw.n)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%q: %w", prog, fam, spec, err)
				}
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}

// chaosRow benchmarks one supervised run: the stage under the fault plan,
// certification after every attempt, retries with backoff and (for the
// DFS program) degradation to a fault-free fallback. The overhead column
// is total supervised rounds over the fault-free rounds of the same
// stage.
func chaosRow(program, family, spec string, size int) (Row, error) {
	in, err := gen.ByName(family, size, 1)
	if err != nil {
		return Row{}, err
	}
	g := in.G
	var opt cert.Options
	const seed = 1

	plan, err := chaos.PlanFor(spec, seed, 0) // the root survives: crashes land elsewhere
	if err != nil {
		return Row{}, err
	}

	supervise := func(p *chaos.Plan) (*chaos.Report, error) {
		switch program {
		case "bfs":
			st := chaos.BFSTreeStage(g, 0, p, opt)
			_, rep, err := chaos.RunWithRecoveryContext(context.Background(), st, nil, chaos.Policy{})
			return rep, err
		case "awerbuch":
			primary := chaos.AwerbuchDFS(g, 0, p, opt)
			fallback := chaos.AwerbuchDFS(g, 0, nil, opt)
			_, rep, err := chaos.RunWithRecoveryContext(context.Background(), primary, &fallback, chaos.Policy{})
			return rep, err
		default:
			return nil, fmt.Errorf("unknown program %q", program)
		}
	}

	base, err := supervise(nil)
	if err != nil {
		return Row{}, err
	}
	baseline := totalRounds(base)

	var rep *chaos.Report
	res, err := hostCost(func() error {
		var err error
		rep, err = supervise(plan)
		return err
	})
	if err != nil {
		return Row{}, err
	}
	rounds := totalRounds(rep)
	return Row{
		ID: Fields{"program": program, "family": family, "spec": spec, "seed": seed, "size": size},
		Det: Fields{
			"n":               g.N(),
			"m":               g.M(),
			"outcome":         rep.Outcome.String(),
			"attempts":        len(rep.Attempts),
			"rounds_total":    rounds,
			"baseline_rounds": baseline,
			"round_overhead":  ratio(rounds, baseline),
			"faults_fired":    rep.Faults.Total(),
		},
		Host: perOp(res),
	}, nil
}

func totalRounds(rep *chaos.Report) int {
	total := 0
	for _, a := range rep.Attempts {
		total += a.Rounds
	}
	return total
}

// engineRows runs every registered separator engine on every family and
// size.
func engineRows(sw sweep) ([]Row, error) {
	var rows []Row
	for _, fam := range sw.families {
		for _, size := range sw.sizes {
			for _, engine := range sepengine.Names() {
				r, err := engineRow(engine, fam, size)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%d: %w", engine, fam, size, err)
				}
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}

// engineRow runs one engine on one fresh configuration: a probe run
// decides the row's deterministic columns, then the benchmark harness
// measures the engine call. A "no-separator" verdict marks an honest
// typed failure (the engine covers no balanced cycle on this instance);
// such rows carry zero cycle length, balance and rounds.
func engineRow(engine, family string, size int) (Row, error) {
	in, err := gen.ByName(family, size, 1)
	if err != nil {
		return Row{}, err
	}
	g := in.G
	cfg, err := pipeline.NewConfig(in, pipeline.TreeBFS, in.Emb.FaceRoot(in.OuterDart))
	if err != nil {
		return Row{}, err
	}
	opts := sepengine.Options{Seed: 1}

	det := Fields{"n": g.N(), "m": g.M(), "cycle_len": 0, "balance": 0.0, "rounds": 0, "phase": ""}
	probe, err := sepengine.Find(engine, cfg, opts)
	switch {
	case err == nil:
		det["cycle_len"] = probe.CycleLen
		det["balance"] = probe.Balance
		det["rounds"] = probe.Rounds
		det["phase"] = probe.Sep.Phase.String()
		v, err := cert.NewVerifier(g, cert.Options{}).CertifySeparator(probe.Sep)
		if err != nil {
			return Row{}, err
		}
		det["cert_verdict"] = "accept"
		if !v.OK {
			det["cert_verdict"] = fmt.Sprintf("reject at %d vertices", len(v.Rejectors))
		}
	case errors.Is(err, sepengine.ErrNoSeparator):
		det["cert_verdict"] = "no-separator"
	default:
		return Row{}, err
	}

	res, err := hostCost(func() error {
		if _, err := sepengine.Find(engine, cfg, opts); err != nil && !errors.Is(err, sepengine.ErrNoSeparator) {
			return err
		}
		return nil
	})
	if err != nil {
		return Row{}, err
	}
	return Row{ID: Fields{"engine": engine, "family": family, "size": size}, Det: det, Host: perOp(res)}, nil
}
