package pipeline

import (
	"context"
	"runtime"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/trace"
)

// TestRunBytesPerRun gates the host bytes one default-option Run
// allocates on the 32×32 grid and the stacked triangulation of n = 1000.
// Untraced: at most 2.65 MB and 3.27 MB (about 2.52 MB and 3.11 MB
// measured, with every label exchange sending one EveryPort message per
// vertex and judging in one receive row per Verifier, where it kept a
// broadcast and a receive slot per port; 2.78 MB and 3.50 MB before, with
// every DFS component induced, restricted, BFS-rooted and
// configured in place in one workspace per build, each phase's edges
// split once instead of sorted per component, and each prover's labels in
// one flat array; 4.03 MB and 4.95 MB before, with every fold a
// convergecast and broadcast instead of a part-wise aggregation program;
// 4.23 MB and 5.14 MB before, with Phase 5
// weighing its virtual-edge candidates from the
// parent configuration and copying only the heavy ones Phase 4 walks;
// 4.99 MB and 5.48 MB when every candidate was copied, with no
// subtree-interval arrays in weights.NewConfig and the separator's
// root-face candidates deduplicated without maps; 5.31 MB
// and 5.73 MB with the separator's virtual-edge sweep copying nothing for
// a long-path candidate and checking no genus; 5.38 MB and 5.82 MB with
// the Lemma 2 JOIN walking the separator path in fewer sub-phases and
// phases and the separator's virtual-edge candidates traced once; 5.85 MB
// and 6.44 MB before, with each DFS phase taking its components from the
// joins, every DFS component restricted in one pass on the build's own
// index and one certification network, BFS tree, aggregation program and
// label exchange shared by every certification of a run; 5.95 MB and
// 6.43 MB when each phase re-walked G − T_d, 7.3 MB and 7.8 MB when each
// component went through maps and a second BFS, 10.4 MB and 11.6 MB when
// each certification also built its own). Traced on a trace.Recorder: at
// most 2.75 MB and 3.36 MB (about 2.62 MB and 3.20 MB measured with
// every-port label exchanges; 2.88 MB and 3.58 MB with the
// per-build workspace and flat labels; 4.12 MB and 5.03 MB before; 4.32 MB
// and 5.22 MB with part-wise aggregation folds; 5.09 MB
// and 5.56 MB when every virtual-edge candidate was copied; 5.41 MB
// and 5.81 MB with the subtree intervals; 5.49 MB and 5.82 MB with the
// dfs stage charging its trace once per recursion phase from dfs.Trace;
// 5.87 MB and 8.18 MB when every DFS component charged its own spans).
// Guarded (guard.ValidateInstance with seed 1, its verdict handed to Run
// as Options.Admitted, both measured), untraced: at
// most 2.90 MB and 3.60 MB (about 2.76 MB and 3.43 MB measured with
// every-port label exchanges and ball probes that keep probe state only
// for the vertices they step; 3.13 MB and 3.96 MB with the
// per-build workspace and flat labels; 4.39 MB and 5.42 MB before, with the
// guard folding its degree sum, Euler sum and Euler verdict once; 4.59 MB
// and 5.62 MB with three part-wise aggregation folds; 5.04 MB and 6.22 MB at an earlier
// measurement, with the
// guard reading rotations into one reused row and certifying the
// instance's own embedding; 5.23 MB and 6.49 MB when it rebuilt both, with
// the run certifying on the Verifier the guard validated on; 6.71 MB and
// 8.26 MB when the run built a second one).
func TestRunBytesPerRun(t *testing.T) {
	grid, stacked := gateInstances(t)
	for _, c := range []struct {
		name     string
		in       *gen.Instance
		traced   bool
		guarded  bool
		maxBytes float64
	}{
		{"grid-32x32", grid, false, false, 2.65e6},
		{"stacked-1000", stacked, false, false, 3.27e6},
		{"grid-32x32 traced", grid, true, false, 2.75e6},
		{"stacked-1000 traced", stacked, true, false, 3.36e6},
		{"grid-32x32 guarded", grid, false, true, 2.90e6},
		{"stacked-1000 guarded", stacked, false, true, 3.60e6},
	} {
		run := func() {
			opts := Options{}
			if c.traced {
				opts.Tracer = trace.NewRecorder()
			}
			if c.guarded {
				adm, err := guard.ValidateInstance(c.in, guard.Options{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				opts.Admitted = adm
			}
			if _, err := Run(context.Background(), c.in, opts); err != nil {
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
			t.Errorf("%s: Run allocates %.2f MB, want <= %.2f MB", c.name, bytes/1e6, c.maxBytes/1e6)
		}
	}
}

// TestRunSpansPerRun gates the spans one traced default-option Run
// records on the instances of TestRunBytesPerRun: at most 500 on the 32×32
// grid and 130 on the stacked triangulation of n = 1000 (490 and 121
// measured, with folds of 2·depth+1 network rounds where part-wise
// aggregations of 2·depth+3 ran; 496 and 127 with them and the
// separator stage charged as one sepengine.theorem1 call; 525 and 143 when it recorded a span per Lemma 1 phase and
// subroutine; 2,059 and 15,014 when every DFS component charged its own
// separator and join spans).
func TestRunSpansPerRun(t *testing.T) {
	grid, stacked := gateInstances(t)
	for _, c := range []struct {
		name     string
		in       *gen.Instance
		maxSpans int
	}{{"grid-32x32", grid, 500}, {"stacked-1000", stacked, 130}} {
		rec := trace.NewRecorder()
		if _, err := Run(context.Background(), c.in, Options{Tracer: rec}); err != nil {
			t.Fatal(err)
		}
		spans := len(rec.Spans())
		t.Logf("%s: %d spans per traced run", c.name, spans)
		if spans > c.maxSpans {
			t.Errorf("%s: a traced Run records %d spans, want <= %d", c.name, spans, c.maxSpans)
		}
	}
}

// gateInstances returns the 32×32 grid and the stacked triangulation of
// n = 1000 (seed 1) the per-run gates measure.
func gateInstances(t *testing.T) (grid, stacked *gen.Instance) {
	t.Helper()
	grid, err := gen.Grid(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	stacked, err = gen.StackedTriangulation(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return grid, stacked
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
