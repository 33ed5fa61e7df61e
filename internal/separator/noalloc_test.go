package separator

import (
	"testing"

	"planardfs/internal/gen"
)

// TestWorkspaceConfigureZeroAlloc is the runtime gate behind the
// //planarvet:noalloc annotation on (*Workspace).Configure: once a
// workspace has built every part of a split, rebuilding any of them — the
// induced graph with its CSR, the restricted embedding, the BFS tree and
// the configuration with its faces and DFS orders — performs zero
// allocations. The parts are the components of a stacked triangulation
// minus every seventh vertex, each restricted around the dart
// OuterRegionDart names, as ForPartition restricts a part.
func TestWorkspaceConfigureZeroAlloc(t *testing.T) {
	in, err := gen.StackedTriangulation(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	removed := make([]bool, in.G.N())
	for v := range removed {
		removed[v] = v%7 == 0
	}
	var parts [][]int
	var darts []int
	for _, comp := range in.G.ComponentsAvoidingMask(removed) {
		if len(comp) < 2 {
			continue
		}
		dart, err := in.Emb.OuterRegionDart(comp, in.OuterDart)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, comp)
		darts = append(darts, dart)
	}
	if len(parts) < 2 {
		t.Fatalf("%d parts, want several", len(parts))
	}
	ws := NewWorkspace(in.Emb)
	if err := ws.Split(parts); err != nil {
		t.Fatal(err)
	}
	configureAll := func() {
		for i := range parts {
			if _, _, err := ws.Configure(i, darts[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	configureAll()
	if allocs := testing.AllocsPerRun(20, configureAll); allocs != 0 {
		t.Fatalf("Configure over %d warmed parts allocates %.1f times, want 0", len(parts), allocs)
	}
}
