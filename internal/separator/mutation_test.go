package separator_test

// Randomized mutation/property tests: corrupt a separator returned by the
// Theorem 1 driver — drop a cycle vertex, duplicate one, detach an
// endpoint, flip a side assignment — and assert the centralized
// certification oracles reject the result. (The external test package
// avoids an import cycle: internal/cert imports internal/separator.)

import (
	"math/rand"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/separator"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// findOn runs the separator driver on one generated instance.
func findOn(t *testing.T, family string, n int, seed int64) (*graph.Graph, *separator.Separator) {
	t.Helper()
	in, err := gen.ByName(family, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	root := in.Emb.FaceRoot(in.OuterDart)
	tr, err := spanning.BFSTree(in.G, root)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := weights.NewConfig(in.G, in.Emb, in.OuterDart, tr)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := separator.Find(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in.G, sep
}

func mutated(sep *separator.Separator, path []int) *separator.Separator {
	return &separator.Separator{Path: path, EndA: sep.EndA, EndB: sep.EndB, Phase: sep.Phase}
}

func TestMutatedSeparatorsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, family := range []string{"grid", "stacked", "sparse", "polygon", "wheel"} {
		family := family
		t.Run(family, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				g, sep := findOn(t, family, 20+4*trial, int64(trial+1))
				if err := cert.CheckSeparator(g, sep); err != nil {
					t.Fatalf("driver separator rejected: %v", err)
				}
				path := sep.Path

				// Detach the EndA endpoint.
				if len(path) >= 2 {
					bad := mutated(sep, append([]int(nil), path[1:]...))
					if err := cert.CheckSeparator(g, bad); err == nil {
						t.Fatalf("dropped EndA accepted (path %v)", bad.Path)
					}
				}

				// Drop a random interior vertex; when the hole is not
				// bridged by a chord the path breaks and must be rejected.
				if len(path) >= 3 {
					i := 1 + rng.Intn(len(path)-2)
					if !g.HasEdge(path[i-1], path[i+1]) {
						bad := append([]int(nil), path[:i]...)
						bad = append(bad, path[i+1:]...)
						if err := cert.CheckSeparator(g, mutated(sep, bad)); err == nil {
							t.Fatalf("dropped interior vertex %d accepted", path[i])
						}
					}
				}

				// Duplicate a random path vertex at the end.
				dup := append(append([]int(nil), path...), path[rng.Intn(len(path))])
				if err := cert.CheckSeparator(g, mutated(sep, dup)); err == nil {
					t.Fatal("duplicated vertex accepted")
				}

				// Claim a wrong endpoint.
				if len(path) >= 2 {
					bad := mutated(sep, path)
					bad.EndA = path[len(path)-1]
					bad.EndB = path[0]
					if err := cert.CheckSeparator(g, bad); err == nil {
						t.Fatal("swapped endpoints accepted")
					}
				}

				// Flip the side of a vertex that has a same-side neighbour:
				// the flip creates a crossing edge the oracle must catch.
				side, _, err := cert.SeparatorSides(g, path)
				if err != nil {
					t.Fatalf("side assignment: %v", err)
				}
				if err := cert.CheckSeparatorSides(g, path, side); err != nil {
					t.Fatalf("honest sides rejected: %v", err)
				}
				flip := -1
				for _, v := range rng.Perm(g.N()) {
					if side[v] == 0 {
						continue
					}
					for _, w := range g.Neighbors(v) {
						if side[w] == side[v] {
							flip = v
							break
						}
					}
					if flip >= 0 {
						break
					}
				}
				if flip >= 0 {
					bad := append([]int(nil), side...)
					bad[flip] = 3 - bad[flip]
					if err := cert.CheckSeparatorSides(g, path, bad); err == nil {
						t.Fatalf("flipped side of %d accepted", flip)
					}
				}
			}
		})
	}
}
