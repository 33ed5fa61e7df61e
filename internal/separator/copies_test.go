package separator_test

import (
	"context"
	"math/rand"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/separator"
)

// TestPhase5CopiesOnlyForPhase4 gates the copies Phase 5's virtual-edge
// sweep makes over the inputs of two benchmark workloads, each run through
// a default-option pipeline.Run. The sweep weighs every candidate from the
// parent configuration and copies the graph and embedding only for a heavy
// candidate whose face Phase 4 walks: none over the 63 cold-grid
// generator jobs, 31 over the 32 cold-stacked inputs of seed 1 (971 and
// 1,170 when every candidate was copied).
func TestPhase5CopiesOnlyForPhase4(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline on 95 instances of n = 1000 to 2000")
	}
	for _, c := range []struct {
		name      string
		inputs    []*gen.Instance
		wantCount int
		maxCopies int64
	}{
		{"cold-grid", coldGridInputs(t), 63, 0},
		{"cold-stacked", coldStackedInputs(t), 32, 31},
	} {
		if len(c.inputs) != c.wantCount {
			t.Fatalf("%s: %d inputs, want %d", c.name, len(c.inputs), c.wantCount)
		}
		before := separator.VirtualCopies()
		for _, in := range c.inputs {
			if _, err := pipeline.Run(context.Background(), in, pipeline.Options{}); err != nil {
				t.Fatalf("%s %s: %v", c.name, in.Name, err)
			}
		}
		copies := separator.VirtualCopies() - before
		t.Logf("%s: Phase 5 copied %d configurations", c.name, copies)
		if copies > c.maxCopies {
			t.Errorf("%s: Phase 5 copied %d configurations, want at most %d", c.name, copies, c.maxCopies)
		}
	}
}

// coldGridInputs returns the instances of the cold-grid workload's
// generator jobs (planardbench/cold.go), one per job: square grids of side
// 32 to 44 and cylinderish grids of n = 1000, 1020, …, 1980. Nearby
// cylinderish sizes round to the same grid, so the 63 jobs hold 46
// distinct instances; the workload deduplicates them, this gate does not.
func coldGridInputs(t *testing.T) []*gen.Instance {
	var out []*gen.Instance
	add := func(family string, n int) {
		in, err := gen.ByName(family, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	for side := 32; side <= 44; side++ {
		add("grid", side*side)
	}
	for n := 1000; n < 2000; n += 20 {
		add("cylinderish", n)
	}
	return out
}

// coldStackedInputs returns the 32 distinct stacked triangulations of
// n = 1000 the cold-stacked workload draws from its seed 1.
func coldStackedInputs(t *testing.T) []*gen.Instance {
	rng := rand.New(rand.NewSource(1))
	var out []*gen.Instance
	seen := map[string]bool{}
	for len(out) < 32 {
		in, err := gen.ByName("stacked", 1000, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		if h := gen.ContentHash(in); !seen[h] {
			seen[h] = true
			out = append(out, in)
		}
	}
	return out
}
