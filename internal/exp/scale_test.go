package exp

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"planardfs/internal/pipeline"
	"planardfs/internal/separator"
	"planardfs/internal/shortcut"
)

// runTheorem2Pipeline drives the Theorem 2 pipeline (internal/pipeline)
// end to end on one generated instance through certified — BFS spanning
// tree, the Theorem 2 DFS (dfs.Build's algorithm) under the certify-retry
// runtime, certified on its first attempt, the Theorem 1 cycle separator
// and the three proof-labeling certifications, every one accepting — and
// checks the separator's balance and Lemma 2's ⌈log₂ n⌉ bound on the
// sub-phases of every JOIN.
func runTheorem2Pipeline(t *testing.T, family string, n int) {
	t.Helper()
	start := time.Now()
	in, res, err := certified(pipeline.Run, family, n, 1, nil)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	tr := res.DFSTrace
	t.Logf("generate and pipeline %8.2fs n=%d phases=%d separator_calls=%d max_join_subphases=%d rounds=%d",
		time.Since(start).Seconds(), in.G.N(), tr.Phases,
		tr.SeparatorCalls, tr.MaxJoinSubPhases, res.Rounds())

	if bound := shortcut.Log2Ceil(in.G.N()); tr.MaxJoinSubPhases > bound {
		t.Fatalf("a JOIN took %d sub-phases, want at most ⌈log₂ n⌉ = %d", tr.MaxJoinSubPhases, bound)
	}

	if bal := separator.VerifyBalance(in.G, res.Separator.Sep.Path); 3*bal > 2*in.G.N() {
		t.Fatalf("separator unbalanced: largest side %d of %d", bal, in.G.N())
	}
}

// TestTheorem2PipelineMedium keeps the pipeline wired in the ordinary test
// suite at sizes that finish in seconds: wide cylinderish grids and
// square grids, whose high diameter makes the Lemma 17 picks tall and
// whose long-path separators are the JOINs most prone to stranding
// separator vertices.
func TestTheorem2PipelineMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run skipped in -short")
	}
	for _, c := range []struct {
		family string
		n      int
	}{{"cylinderish", 10_000}, {"grid", 10_000}, {"cylinderish", 20_000}, {"grid", 40_000}} {
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
