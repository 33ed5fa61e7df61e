package dfs

import (
	"runtime"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
)

// TestJoinDequeZeroAlloc is the runtime gate behind the
// //planarvet:noalloc annotation on (*joinScratch).run01BFS: with the
// deque buffer and the settle-order slice presized the way attachBestPath
// presizes them, the 0/1 BFS itself performs zero allocations.
func TestJoinDequeZeroAlloc(t *testing.T) {
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	g.MustAddEdge(5, 0)
	g.MustAddEdge(0, 3)

	x := []int{0, 1, 2, 3, 4, 5}
	sc := newJoinScratch(g.N())
	sc.missing[1] = true
	sc.missing[2] = true

	// Mirror attachBestPath's presizing exactly.
	relaxCap := 1
	for _, v := range x {
		relaxCap += g.Degree(v)
	}
	sc.deque = make([]int32, 2*relaxCap)
	sc.order = make([]int32, 0, len(x))

	allocs := testing.AllocsPerRun(100, func() {
		sc.epoch++
		ep := sc.epoch
		for _, v := range x {
			sc.seenEp[v] = ep
		}
		sc.run01BFS(g, 0, relaxCap, ep)
	})
	if allocs != 0 {
		t.Fatalf("run01BFS allocates %.1f times, want 0", allocs)
	}
	if len(sc.order) != len(x) {
		t.Fatalf("BFS settled %d vertices, want %d", len(sc.order), len(x))
	}
}

// TestBuildAllocScalesLinearly gates the per-component cost of the build:
// a phase runs a separator and a join for each of its components, so any
// per-component array sized by the whole graph makes the bytes allocated
// per vertex grow with n. On stacked triangulations, whose phases hold
// hundreds of components, the figure at n = 8000 may be at most twice the
// figure at n = 1000.
func TestBuildAllocScalesLinearly(t *testing.T) {
	perVertex := func(n int) float64 {
		in, err := gen.StackedTriangulation(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		root := in.Emb.TraceFaces().FaceVertices(in.OuterFace())[0]
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, _, err := Build(in.G, in.Emb, in.OuterDart, root); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	small, large := perVertex(1000), perVertex(8000)
	t.Logf("dfs.Build allocates %.1f KB/vertex at n=1000, %.1f KB/vertex at n=8000 (%.2f×)",
		small/1024, large/1024, large/small)
	if large > 2*small {
		t.Fatalf("bytes per vertex grow %.2f× from n=1000 to n=8000, want <= 2×", large/small)
	}
}
