package exp

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"planardfs/internal/chaos"
	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/separator"
)

// runTheorem2Pipeline drives the Theorem 2 pipeline (internal/pipeline)
// end to end on one generated instance — BFS spanning tree, the Theorem 2
// DFS (dfs.Build's algorithm) under the certify-retry runtime, the
// Theorem 1 cycle separator and the three proof-labeling certifications —
// and checks every stage's report.
func runTheorem2Pipeline(t *testing.T, family string, n int) {
	t.Helper()
	start := time.Now()
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	t.Logf("generate %8.2fs", time.Since(start).Seconds())

	start = time.Now()
	res, err := pipeline.Run(context.Background(), in, pipeline.Options{})
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	t.Logf("pipeline %8.2fs n=%d phases=%d separator_calls=%d rounds=%d",
		time.Since(start).Seconds(), in.G.N(), res.DFSTrace.Phases,
		res.DFSTrace.SeparatorCalls, res.Rounds())

	if res.Recovery.Outcome != chaos.OutcomeCertified {
		t.Fatalf("dfs stage ended %v, want certified", res.Recovery.Outcome)
	}
	for _, v := range res.Verdicts {
		if !v.OK {
			t.Fatalf("%s certificate rejected by %d verifiers", v.Scheme, len(v.Rejectors))
		}
	}
	if bal := separator.VerifyBalance(in.G, res.Separator.Sep.Path); 3*bal > 2*in.G.N() {
		t.Fatalf("separator unbalanced: largest side %d of %d", bal, in.G.N())
	}
}

// TestTheorem2PipelineMedium keeps the pipeline wired in the ordinary test
// suite at sizes that finish in seconds: a wide cylinderish grid and a
// square grid, whose high diameter makes the Lemma 17 picks tall.
func TestTheorem2PipelineMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run skipped in -short")
	}
	for _, c := range []struct {
		family string
		n      int
	}{{"cylinderish", 20_000}, {"grid", 40_000}} {
		t.Run(fmt.Sprintf("%s-%d", c.family, c.n), func(t *testing.T) {
			runTheorem2Pipeline(t, c.family, c.n)
		})
	}
}

// TestTheorem2PipelineScale is the large-n acceptance run. It runs only
// when PLANARDFS_SCALE is set, to the vertex count to run (1 selects the
// largest size the README reports as reached).
func TestTheorem2PipelineScale(t *testing.T) {
	env := os.Getenv("PLANARDFS_SCALE")
	if env == "" {
		t.Skip("set PLANARDFS_SCALE=1 (or a vertex count) to run the large pipeline")
	}
	n, err := strconv.Atoi(env)
	if err != nil {
		t.Fatalf("PLANARDFS_SCALE=%q: %v", env, err)
	}
	if n <= 1 {
		n = 300_000
	}
	runTheorem2Pipeline(t, "cylinderish", n)
}
