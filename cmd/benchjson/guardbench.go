package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"planardfs/internal/chaos"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/guard"
	"planardfs/internal/pipeline"
)

// GuardEntry is one (family, case, n) admission-guard measurement. The
// "valid" case validates a correct generator instance (the guard must
// accept) and reports the guard's round/message cost next to the charged
// paper-model rounds of the Theorem 2 DFS build it fronts, so the overhead
// column is the price of admission relative to the pipeline itself. The
// corrupted cases measure rejection latency: how much work the guard does
// before producing a typed witness on an adversarial input.
type GuardEntry struct {
	Family   string `json:"family"`
	Case     string `json:"case"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	Accepted bool   `json:"accepted"`
	// Reason is the witness class of a rejection, empty when accepted.
	Reason string `json:"reason,omitempty"`
	// GuardRounds/GuardMessages are the deterministic CONGEST cost of the
	// guard's distributed checks under the pinned options.
	GuardRounds   int   `json:"guard_rounds"`
	GuardMessages int64 `json:"guard_messages"`
	// PipelineRounds is the charged Õ(D) round cost of the Theorem 2 DFS
	// build on the same instance; valid rows only.
	PipelineRounds int     `json:"pipeline_rounds,omitempty"`
	Overhead       float64 `json:"overhead,omitempty"`
	NsPerOp        int64   `json:"ns_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
}

// GuardFile is the schema of BENCH_guard.json.
type GuardFile struct {
	Schema    string       `json:"schema"`
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	NumCPU    int          `json:"num_cpu"`
	Entries   []GuardEntry `json:"entries"`
}

// guardBenchOptions pins the tester configuration the baseline is defined
// against: deterministic centers and every vertex probed, so the rows are
// machine-independent in everything but the measured per-op columns.
func guardBenchOptions() guard.Options {
	return guard.Options{Seed: 1, Exhaustive: true}
}

func runGuard(out, families, sizesFlag string) error {
	file := GuardFile{
		Schema:    "planardfs/bench-guard/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, fam := range strings.Split(families, ",") {
		for _, szStr := range strings.Split(sizesFlag, ",") {
			var sz int
			if _, err := fmt.Sscanf(strings.TrimSpace(szStr), "%d", &sz); err != nil {
				return fmt.Errorf("bad -guard-sizes entry %q: %w", szStr, err)
			}
			entries, err := measureGuardFamily(fam, sz)
			if err != nil {
				return fmt.Errorf("%s/%d: %w", fam, sz, err)
			}
			file.Entries = append(file.Entries, entries...)
			for _, e := range entries {
				fmt.Fprintf(os.Stderr, "%-12s %-18s n=%-5d accepted=%-5v rounds=%-3d msgs=%-6d %.2fms/op\n",
					e.Family, e.Case, e.N, e.Accepted, e.GuardRounds, e.GuardMessages,
					float64(e.NsPerOp)/1e6)
			}
		}
	}
	// The dense-region row is family-independent: a K7 planted on a path,
	// caught by the ball tester rather than the global edge count.
	e, err := measureGuardDense(64)
	if err != nil {
		return fmt.Errorf("dense-region: %w", err)
	}
	file.Entries = append(file.Entries, e)
	fmt.Fprintf(os.Stderr, "%-12s %-18s n=%-5d accepted=%-5v rounds=%-3d msgs=%-6d %.2fms/op\n",
		e.Family, e.Case, e.N, e.Accepted, e.GuardRounds, e.GuardMessages,
		float64(e.NsPerOp)/1e6)

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// measureGuardFamily produces the valid-acceptance row plus the two
// rotation-corruption rejection rows for one (family, n).
func measureGuardFamily(family string, n int) ([]GuardEntry, error) {
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		return nil, err
	}
	opt := guardBenchOptions()

	valid, err := measureGuardCase(family, "valid", in.G, gen.WireOf(in).Rotations, opt, true)
	if err != nil {
		return nil, err
	}
	// Charged DFS rounds of the pipeline build the guard fronts, for the
	// overhead column.
	res, err := pipeline.Run(context.Background(), in, pipeline.Options{})
	if err != nil {
		return nil, err
	}
	valid.PipelineRounds = res.DFSRounds
	if valid.PipelineRounds > 0 {
		valid.Overhead = float64(valid.GuardRounds) / float64(valid.PipelineRounds)
	}
	entries := []GuardEntry{valid}

	// Rejection latency on a retargeted dart: the distributed rotation
	// check catches it in the one exchange round.
	rot := gen.WireOf(in).Rotations
	if chaos.NewPlan(41, chaos.Spec{Structural: 2}).RetargetDarts(1, in.G.N(), rot) == 0 {
		return nil, fmt.Errorf("retarget applied nothing")
	}
	e, err := measureGuardCase(family, "retargeted-dart", in.G, rot, opt, false)
	if err != nil {
		return nil, err
	}
	entries = append(entries, e)

	// Rejection latency on a permutation-preserving splice that raises the
	// genus: every local check passes and the Euler certification is what
	// rejects, the guard's most expensive path.
	spliced, ok := splicedRotations(in, family)
	if ok {
		e, err := measureGuardCase(family, "genus-splice", in.G, spliced, opt, false)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// splicedRotations searches deterministic seeds for a rotation splice that
// leaves every rotation a permutation of its neighbourhood but lifts the
// embedding off the sphere. Some families (trees, tiny instances) admit no
// such corruption; those report ok=false and skip the row.
func splicedRotations(in *gen.Instance, family string) ([][]int, bool) {
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

// measureGuardDense benchmarks the dense-region rejection: a K7 planted on
// a path, invisible to the global edge count but over the planar bound
// inside a radius-1 ball.
func measureGuardDense(n int) (GuardEntry, error) {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		if _, err := g.AddEdge(v, v+1); err != nil {
			return GuardEntry{}, err
		}
	}
	for u := 0; u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			if _, dup := g.EdgeID(u, v); !dup {
				if _, err := g.AddEdge(u, v); err != nil {
					return GuardEntry{}, err
				}
			}
		}
	}
	rot := make([][]int, n)
	for v := 0; v < n; v++ {
		rot[v] = append([]int(nil), g.Neighbors(v)...)
	}
	return measureGuardCase("k7-plant", "dense-region", g, rot, guardBenchOptions(), false)
}

// measureGuardCase benchmarks one ValidateRotations call and checks the
// verdict matches the expected polarity before trusting the numbers.
func measureGuardCase(family, kind string, g *graph.Graph, rot [][]int, opt guard.Options, wantOK bool) (GuardEntry, error) {
	probe, err := guard.ValidateRotations(g, rot, opt)
	if err != nil {
		return GuardEntry{}, err
	}
	if probe.OK != wantOK {
		return GuardEntry{}, fmt.Errorf("%s/%s: verdict OK=%v, want %v (%v)", family, kind, probe.OK, wantOK, probe.Witness)
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := guard.ValidateRotations(g, rot, opt); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return GuardEntry{}, benchErr
	}
	e := GuardEntry{
		Family:        family,
		Case:          kind,
		N:             g.N(),
		M:             g.M(),
		Accepted:      probe.OK,
		GuardRounds:   probe.Rounds,
		GuardMessages: probe.Messages,
		NsPerOp:       res.NsPerOp(),
		BytesPerOp:    res.AllocedBytesPerOp(),
		AllocsPerOp:   res.AllocsPerOp(),
	}
	if !probe.OK {
		e.Reason = string(probe.Witness.Reason)
	}
	return e, nil
}
