package shortcut

import (
	"runtime"
	"testing"

	"planardfs/internal/congest"
	"planardfs/internal/gen"
)

// TestPAAllocsPerVertex gates the host cost of the message-level part-wise
// aggregation: a single-part RunPA on grids of n = 1024 and n = 4096 may
// allocate at most 20 times and 1,400 bytes per vertex, and the bytes per
// vertex at n = 4096 may exceed those at n = 1024 by at most 10 %. The
// figures include the BFS tree, the node programs and the round engine.
func TestPAAllocsPerVertex(t *testing.T) {
	const (
		maxAllocs = 20.0
		maxBytes  = 1400.0
		maxGrowth = 1.1
	)
	perVertex := func(side int) (allocs, bytes float64) {
		in, err := gen.Grid(side, side)
		if err != nil {
			t.Fatal(err)
		}
		g := in.G
		n := g.N()
		part, err := NewPartition(make([]int, n))
		if err != nil {
			t.Fatal(err)
		}
		value := make([]int, n)
		for v := range value {
			value[v] = v % 7
		}
		run := func() {
			res, err := RunPA(g, 0, part, value, congest.OpSum)
			if err != nil {
				t.Fatal(err)
			}
			if res.Values[0] != res.Values[n-1] {
				t.Fatalf("single part disagrees: %d vs %d", res.Values[0], res.Values[n-1])
			}
		}
		run() // warm up lazily built graph caches
		const runs = 5
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / runs / float64(n)
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(n)
		return allocs, bytes
	}
	smallA, smallB := perVertex(32)
	largeA, largeB := perVertex(64)
	t.Logf("RunPA single part: %.1f allocs, %.0f B per vertex at n=1024; %.1f allocs, %.0f B per vertex at n=4096",
		smallA, smallB, largeA, largeB)
	for _, c := range []struct {
		n             int
		allocs, bytes float64
	}{{1024, smallA, smallB}, {4096, largeA, largeB}} {
		if c.allocs > maxAllocs {
			t.Errorf("n=%d: %.1f allocations per vertex, want <= %.0f", c.n, c.allocs, maxAllocs)
		}
		if c.bytes > maxBytes {
			t.Errorf("n=%d: %.0f bytes per vertex, want <= %.0f", c.n, c.bytes, maxBytes)
		}
	}
	if largeB > maxGrowth*smallB {
		t.Errorf("bytes per vertex grow %.2f× from n=1024 to n=4096, want <= %.1f×", largeB/smallB, maxGrowth)
	}
}
