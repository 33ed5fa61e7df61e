package pipeline

import (
	"context"
	"runtime"
	"testing"

	"planardfs/internal/gen"
)

// TestRunBytesPerRun gates the host bytes one untraced default-option Run
// allocates: at most 8.0 MB on the 32×32 grid and 8.5 MB on the stacked
// triangulation of n = 1000 (about 7.3 MB and 7.8 MB measured, with one
// certification network, BFS tree, aggregation program and label exchange
// shared by every certification of a run; 10.4 MB and 11.6 MB when each
// certification built its own).
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
	}{{"grid-32x32", grid, 8.0e6}, {"stacked-1000", stacked, 8.5e6}} {
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
