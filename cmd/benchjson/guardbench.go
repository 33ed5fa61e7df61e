package main

import (
	"context"
	"fmt"

	"planardfs/internal/chaos"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/guard"
	"planardfs/internal/pipeline"
)

// guardBenchOptions pins the tester configuration the baseline is defined
// against: deterministic centers and every vertex probed, so the rows are
// machine-independent in everything but the host columns.
func guardBenchOptions() guard.Options {
	return guard.Options{Seed: 1, Exhaustive: true}
}

// guardRows measures every family at every size, then the
// family-independent dense-region row: a K7 planted on a path, caught by
// the ball tester rather than the global edge count.
func guardRows(sw sweep) ([]Row, error) {
	var rows []Row
	for _, fam := range sw.families {
		for _, size := range sw.sizes {
			rs, err := guardFamilyRows(fam, size)
			if err != nil {
				return nil, fmt.Errorf("%s/%d: %w", fam, size, err)
			}
			rows = append(rows, rs...)
		}
	}
	r, err := guardDenseRow(64)
	if err != nil {
		return nil, fmt.Errorf("dense-region: %w", err)
	}
	return append(rows, r), nil
}

// guardFamilyRows produces the valid-acceptance row plus the genus-splice
// rejection row for one (family, size). The "valid" row reports the
// guard's round/message cost next to the charged paper-model rounds of the
// Theorem 2 DFS build it fronts, so its overhead column is the price of
// admission relative to the pipeline itself. The genus-splice row
// measures rejection latency: how much work the guard does before
// producing a typed witness on an adversarial input.
func guardFamilyRows(family string, size int) ([]Row, error) {
	in, err := gen.ByName(family, size, 1)
	if err != nil {
		return nil, err
	}
	valid, err := guardRow(family, "valid", size, in.G, validateInstance(in), true)
	if err != nil {
		return nil, err
	}
	res, err := pipeline.Run(context.Background(), in, pipeline.Options{})
	if err != nil {
		return nil, err
	}
	valid.Det["pipeline_rounds"] = res.DFSRounds
	valid.Det["overhead"] = ratio(valid.Det["guard_rounds"].(int), res.DFSRounds)
	rows := []Row{valid}

	// Rejection latency on a permutation-preserving splice that raises the
	// genus: every earlier stage passes and the Euler certification is
	// what rejects, the guard's most expensive path.
	if spliced, ok := splicedInstance(in); ok {
		r, err := guardRow(family, "genus-splice", size, spliced.G, validateInstance(spliced), false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// splicedInstance searches deterministic seeds for a rotation splice that
// leaves every rotation a permutation of its neighbourhood but lifts the
// embedding off the sphere, and builds it the way an untrusted submission
// is built (Wire.Build). Some families (trees, tiny instances) admit no
// such corruption; those report ok=false and skip the row.
func splicedInstance(in *gen.Instance) (*gen.Instance, bool) {
	for seed := int64(1); seed < 100; seed++ {
		w := gen.WireOf(in)
		p := chaos.NewPlan(seed, chaos.Spec{Structural: 4})
		if p.SpliceFaces(1, w.Rotations) == 0 && p.SpliceRotations(2, w.Rotations) == 0 {
			continue
		}
		spliced, err := w.Build()
		if err != nil {
			continue
		}
		v, err := guard.ValidateInstance(spliced, guardBenchOptions())
		if err == nil && !v.OK && v.Witness.Reason == guard.ReasonEuler {
			return spliced, true
		}
	}
	return nil, false
}

// validateInstance is the admission of an embedded instance, as planard
// runs it.
func validateInstance(in *gen.Instance) func() (*guard.Verdict, error) {
	return func() (*guard.Verdict, error) { return guard.ValidateInstance(in, guardBenchOptions()) }
}

// guardDenseRow measures the dense-region rejection: a K7 planted on a
// path of n vertices, invisible to the global edge count but over the
// planar bound inside a radius-1 ball. It has no embedding to claim, so
// the row validates the bare graph.
func guardDenseRow(n int) (Row, error) {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		if _, err := g.AddEdge(v, v+1); err != nil {
			return Row{}, err
		}
	}
	for u := 0; u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			if _, dup := g.EdgeID(u, v); !dup {
				if _, err := g.AddEdge(u, v); err != nil {
					return Row{}, err
				}
			}
		}
	}
	return guardRow("k7-plant", "dense-region", n, g, func() (*guard.Verdict, error) {
		return guard.ValidateGraph(g, guardBenchOptions())
	}, false)
}

// guardRow benchmarks one validation of g and checks the verdict matches
// the expected polarity before trusting the numbers.
func guardRow(family, kind string, size int, g *graph.Graph, validate func() (*guard.Verdict, error), wantOK bool) (Row, error) {
	probe, err := validate()
	if err != nil {
		return Row{}, err
	}
	if probe.OK != wantOK {
		return Row{}, fmt.Errorf("%s/%s: verdict OK=%v, want %v (%v)", family, kind, probe.OK, wantOK, probe.Witness)
	}
	res, err := hostCost(func() error {
		_, err := validate()
		return err
	})
	if err != nil {
		return Row{}, err
	}
	// guard_rounds and guard_messages are the CONGEST cost of the guard's
	// distributed checks under the pinned options; reason is the witness
	// class of a rejection.
	det := Fields{
		"n":              g.N(),
		"m":              g.M(),
		"accepted":       probe.OK,
		"guard_rounds":   probe.Rounds,
		"guard_messages": probe.Messages,
	}
	if !probe.OK {
		det["reason"] = string(probe.Witness.Reason)
	}
	return Row{ID: Fields{"family": family, "case": kind, "size": size}, Det: det, Host: perOp(res)}, nil
}
