package pipeline

import (
	"context"
	"runtime"
	"testing"

	"planardfs/internal/gen"
)

// TestRunBytesPerRun gates the host bytes one untraced default-option Run
// allocates: at most 5.9 MB on the 32×32 grid and 6.4 MB on the stacked
// triangulation of n = 1000 (about 5.38 MB and 5.82 MB measured, with
// the Lemma 2 JOIN walking the separator path in fewer sub-phases and
// phases and the separator's virtual-edge candidates traced once; 5.85 MB
// and 6.44 MB before, with each DFS phase taking its components from the
// joins, every DFS component restricted in one pass on the build's own
// index and one certification network, BFS tree, aggregation program and
// label exchange shared by every certification of a run; 5.95 MB and
// 6.43 MB when each phase re-walked G − T_d, 7.3 MB and 7.8 MB when each
// component went through maps and a second BFS, 10.4 MB and 11.6 MB when
// each certification also built its own).
func TestRunBytesPerRun(t *testing.T) {
	grid, err := gen.Grid(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	stacked, err := gen.StackedTriangulation(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		in       *gen.Instance
		maxBytes float64
	}{{"grid-32x32", grid, 5.9e6}, {"stacked-1000", stacked, 6.4e6}} {
		run := func() {
			if _, err := Run(context.Background(), c.in, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm up lazily built graph caches
		const runs = 3
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.2f MB per run", c.name, bytes/1e6)
		if bytes > c.maxBytes {
			t.Errorf("%s: Run allocates %.2f MB, want <= %.1f MB", c.name, bytes/1e6, c.maxBytes/1e6)
		}
	}
}

// TestRunAllocScalesLinearly extends the build's linear-allocation gate
// (dfs.TestBuildAllocScalesLinearly) to the whole untraced Run: any
// per-component or per-call array sized by the whole graph makes the
// bytes allocated per vertex grow with n. On grid and stacked instances
// the figure at n = 8000 may be at most twice the figure at n = 1000.
func TestRunAllocScalesLinearly(t *testing.T) {
	for _, family := range []string{"grid", "stacked"} {
		perVertex := func(n int) float64 {
			in, err := gen.ByName(family, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := Run(context.Background(), in, Options{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / float64(in.G.N())
		}
		small, large := perVertex(1000), perVertex(8000)
		t.Logf("%s: Run allocates %.1f KB/vertex at n=1000, %.1f KB/vertex at n=8000 (%.2f×)",
			family, small/1024, large/1024, large/small)
		if large > 2*small {
			t.Errorf("%s: bytes per vertex grow %.2f× from n=1000 to n=8000, want <= 2×", family, large/small)
		}
	}
}
