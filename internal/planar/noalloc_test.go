package planar

import (
	"testing"

	"planardfs/internal/graph"
)

// TestFaceTraceZeroAlloc is the runtime gate behind the
// //planarvet:noalloc annotation on (*Embedding).traceFacesInto: after
// TraceFaces has allocated the CSR storage once, re-tracing into the same
// Faces value — the steady-state walk after every virtual-edge insertion —
// performs zero allocations.
func TestFaceTraceZeroAlloc(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1) // darts 0,1
	g.MustAddEdge(0, 2) // darts 2,3
	g.MustAddEdge(1, 2) // darts 4,5
	emb, err := newEmbedding(g, [][]int{{2, 0}, {4, 1}, {5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Validate(); err != nil {
		t.Fatal(err)
	}

	fs := emb.TraceFaces()
	want := fs.Count()
	allocs := testing.AllocsPerRun(100, func() {
		emb.traceFacesInto(fs)
	})
	if allocs != 0 {
		t.Fatalf("traceFacesInto allocates %.1f times, want 0", allocs)
	}
	if fs.Count() != want {
		t.Fatalf("retrace found %d faces, want %d", fs.Count(), want)
	}
}

// TestFaceRootZeroAlloc is the runtime gate behind the
// //planarvet:noalloc annotation on (*Embedding).FaceRoot: reading the
// root of a face walks it in place and allocates nothing.
func TestFaceRootZeroAlloc(t *testing.T) {
	// The square 0-1-2-3; edge e has darts 2e (from its smaller end)
	// and 2e+1.
	g := graph.New(4)
	for v := 0; v < 4; v++ {
		g.MustAddEdge(v, (v+1)%4)
	}
	emb, err := newEmbedding(g, [][]int{{6, 0}, {1, 2}, {3, 4}, {5, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Validate(); err != nil {
		t.Fatal(err)
	}
	root := 0
	allocs := testing.AllocsPerRun(100, func() {
		root = emb.FaceRoot(5)
	})
	if allocs != 0 {
		t.Fatalf("FaceRoot allocates %.1f times, want 0", allocs)
	}
	// Dart 5 runs 3->2 on the face whose smallest dart is 1, from 1 to 0.
	if root != 1 {
		t.Fatalf("FaceRoot(5) = %d, want 1", root)
	}
}
