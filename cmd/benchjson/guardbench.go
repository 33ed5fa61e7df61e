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

// guardFamilyRows produces the valid-acceptance row plus the two
// rotation-corruption rejection rows for one (family, size). The "valid"
// row reports the guard's round/message cost next to the charged
// paper-model rounds of the Theorem 2 DFS build it fronts, so its
// overhead column is the price of admission relative to the pipeline
// itself. The corrupted rows measure rejection latency: how much work the
// guard does before producing a typed witness on an adversarial input.
func guardFamilyRows(family string, size int) ([]Row, error) {
	in, err := gen.ByName(family, size, 1)
	if err != nil {
		return nil, err
	}
	valid, err := guardRow(family, "valid", size, in.G, gen.WireOf(in).Rotations, true)
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

	// Rejection latency on a retargeted dart: the distributed rotation
	// check catches it in the one exchange round.
	rot := gen.WireOf(in).Rotations
	if chaos.NewPlan(41, chaos.Spec{Structural: 2}).RetargetDarts(1, in.G.N(), rot) == 0 {
		return nil, fmt.Errorf("retarget applied nothing")
	}
	r, err := guardRow(family, "retargeted-dart", size, in.G, rot, false)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r)

	// Rejection latency on a permutation-preserving splice that raises the
	// genus: every local check passes and the Euler certification is what
	// rejects, the guard's most expensive path.
	if spliced, ok := splicedRotations(in); ok {
		r, err := guardRow(family, "genus-splice", size, in.G, spliced, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// splicedRotations searches deterministic seeds for a rotation splice that
// leaves every rotation a permutation of its neighbourhood but lifts the
// embedding off the sphere. Some families (trees, tiny instances) admit no
// such corruption; those report ok=false and skip the row.
func splicedRotations(in *gen.Instance) ([][]int, bool) {
	for seed := int64(1); seed < 100; seed++ {
		rot := gen.WireOf(in).Rotations
		p := chaos.NewPlan(seed, chaos.Spec{Structural: 4})
		if p.SpliceFaces(1, rot) == 0 && p.SpliceRotations(2, rot) == 0 {
			continue
		}
		v, err := guard.ValidateRotations(in.G, rot, guardBenchOptions())
		if err == nil && !v.OK && v.Witness.Reason == guard.ReasonEuler {
			return rot, true
		}
	}
	return nil, false
}

// guardDenseRow measures the dense-region rejection: a K7 planted on a
// path of n vertices, invisible to the global edge count but over the
// planar bound inside a radius-1 ball.
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
	rot := make([][]int, n)
	for v := 0; v < n; v++ {
		rot[v] = append([]int(nil), g.Neighbors(v)...)
	}
	return guardRow("k7-plant", "dense-region", n, g, rot, false)
}

// guardRow benchmarks one ValidateRotations call and checks the verdict
// matches the expected polarity before trusting the numbers.
func guardRow(family, kind string, size int, g *graph.Graph, rot [][]int, wantOK bool) (Row, error) {
	opt := guardBenchOptions()
	probe, err := guard.ValidateRotations(g, rot, opt)
	if err != nil {
		return Row{}, err
	}
	if probe.OK != wantOK {
		return Row{}, fmt.Errorf("%s/%s: verdict OK=%v, want %v (%v)", family, kind, probe.OK, wantOK, probe.Witness)
	}
	res, err := hostCost(func() error {
		_, err := guard.ValidateRotations(g, rot, opt)
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
