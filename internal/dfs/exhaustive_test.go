package dfs

import (
	"math/rand"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/separator"
	"planardfs/internal/weights"
)

// TestExhaustiveNetOnlyAtCutVertexRoots scopes where the separator's
// exhaustive safety net fires inside Theorem 2. Over the 32 stacked
// triangulations of n = 1000 that the cold-stacked benchmark draws from
// its seed 1 (planardbench/cold.go: gen.ByName("stacked", 1000,
// rng.Int63()) with rng seeded 1), every DFS component's separator goes
// through separator.Find, and every PhaseExhaustive separator must come
// from a component whose spanning-tree root is a cut vertex of the
// component. The net fires on 7 of the 7,720 calls, on components of 10
// to 22 vertices; Phase 5's virtual-edge sweep finds no balanced
// separator there. The count is a ratchet: the test fails if the net
// fires more than 7 times, so no change adds firings unnoticed.
func TestExhaustiveNetOnlyAtCutVertexRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	calls, fired := 0, 0
	for i := 0; i < 32; i++ {
		in, err := gen.ByName("stacked", 1000, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		find := func(cfg *weights.Config) (*separator.Separator, error) {
			calls++
			sep, err := separator.Find(cfg)
			if err == nil && sep.Phase == separator.PhaseExhaustive {
				fired++
				if !isCutVertex(cfg, cfg.Tree.Root) {
					t.Errorf("input %d: exhaustive separator on a %d-vertex component whose root %d is not a cut vertex",
						i, cfg.G.N(), cfg.Tree.Root)
				}
			}
			return sep, err
		}
		if _, _, err := BuildWithSeparator(in.G, in.Emb, in.OuterDart, in.Emb.FaceRoot(in.OuterDart), nil, find); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("exhaustive net fired on %d of %d separator calls", fired, calls)
	const maxFired = 7
	if fired > maxFired {
		t.Errorf("exhaustive net fired on %d calls, want at most %d", fired, maxFired)
	}
}

// isCutVertex reports whether removing v disconnects the configuration's
// graph.
func isCutVertex(cfg *weights.Config, v int) bool {
	removed := make([]bool, cfg.G.N())
	removed[v] = true
	return len(cfg.G.ComponentsAvoidingMask(removed)) > 1
}
