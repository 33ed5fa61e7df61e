package planar

import (
	"math/rand"
	"testing"

	"planardfs/internal/graph"
)

// refFaceCycles recomputes the face partition of emb from first principles,
// using only the public rotation API (Rotation returns a materialized copy,
// so this path is independent of the flat next/prev arrays): faceNext(d) =
// successor of the twin d^1 in the rotation at its tail. Each face cycle is
// rotated to start at its minimum dart; the list is sorted by that minimum.
func refFaceCycles(g *graph.Graph, emb *Embedding) [][]int {
	faceNext := make(map[int]int, 2*g.M())
	for v := 0; v < g.N(); v++ {
		rot := emb.Rotation(v)
		for i, d := range rot {
			faceNext[d^1] = rot[(i+1)%len(rot)]
		}
	}
	seen := make(map[int]bool, 2*g.M())
	var cycles [][]int
	for d0 := 0; d0 < 2*g.M(); d0++ {
		if seen[d0] {
			continue
		}
		var cyc []int
		for d := d0; !seen[d]; d = faceNext[d] {
			seen[d] = true
			cyc = append(cyc, d)
		}
		// Rotate so the minimum dart leads.
		minAt := 0
		for i, d := range cyc {
			if d < cyc[minAt] {
				minAt = i
			}
		}
		cyc = append(cyc[minAt:], cyc[:minAt]...)
		cycles = append(cycles, cyc)
	}
	return cycles
}

// newEmbedding builds an embedding from per-vertex clockwise dart orders
// through NewEmbeddingFlat, flattening rot vertex-major.
func newEmbedding(g *graph.Graph, rot [][]int) (*Embedding, error) {
	off := make([]int32, 1, len(rot)+1)
	var darts []int32
	for _, r := range rot {
		for _, d := range r {
			darts = append(darts, int32(d))
		}
		off = append(off, int32(len(darts)))
	}
	return NewEmbeddingFlat(g, off, darts)
}

// randomTreeEmbedding builds a random tree on n vertices with a random
// rotation order at every vertex — any rotation system of a tree is a valid
// planar embedding, which makes trees the ideal randomized fixture.
func randomTreeEmbedding(t *testing.T, rng *rand.Rand, n int) (*graph.Graph, *Embedding) {
	t.Helper()
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v)
	}
	rot := make([][]int, n)
	for v := 0; v < n; v++ {
		ids := g.IncidentEdges(v)
		ds := make([]int, len(ids))
		for i, id := range ids {
			ds[i] = DartFrom(g, int(id), v)
		}
		rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
		rot[v] = ds
	}
	emb, err := newEmbedding(g, rot)
	if err != nil {
		t.Fatalf("tree embedding rejected: %v", err)
	}
	return g, emb
}

// TestTraceFacesMatchesReference checks the single-pass CSR face tracer
// against the naive map-based walk on randomized tree embeddings: the same
// face partition (as canonicalized cycles), consistent FaceOf labels, and a
// dart count adding up to 2m.
func TestTraceFacesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		g, emb := randomTreeEmbedding(t, rng, n)
		fs := emb.TraceFaces()
		ref := refFaceCycles(g, emb)
		if fs.Count() != len(ref) {
			t.Fatalf("n=%d: %d faces, reference found %d", n, fs.Count(), len(ref))
		}
		// Canonicalize the traced cycles the same way and index by leading
		// (minimum) dart.
		got := map[int][]int{}
		for f := 0; f < fs.Count(); f++ {
			cyc := fs.Cycle(f)
			minAt := 0
			for i, d := range cyc {
				if d < cyc[minAt] {
					minAt = i
				}
			}
			c := make([]int, 0, len(cyc))
			for i := range cyc {
				c = append(c, int(cyc[(minAt+i)%len(cyc)]))
			}
			got[c[0]] = c
			// Every dart of the cycle must carry this face's label.
			for _, d := range cyc {
				if int(fs.FaceOf[d]) != f {
					t.Fatalf("n=%d: FaceOf[%d] = %d, cycle says %d", n, d, fs.FaceOf[d], f)
				}
			}
		}
		total := 0
		for _, rc := range ref {
			total += len(rc)
			gc, ok := got[rc[0]]
			if !ok {
				t.Fatalf("n=%d: no traced face starts at dart %d", n, rc[0])
			}
			if len(gc) != len(rc) {
				t.Fatalf("n=%d: face at dart %d has length %d, reference %d", n, rc[0], len(gc), len(rc))
			}
			for i := range rc {
				if gc[i] != rc[i] {
					t.Fatalf("n=%d: face at dart %d diverges at step %d: %v vs %v", n, rc[0], i, gc, rc)
				}
			}
		}
		if total != 2*g.M() {
			t.Fatalf("n=%d: reference covered %d darts, want %d", n, total, 2*g.M())
		}
		// A tree has exactly one face; Euler must agree.
		if fs.Count() != 1 || emb.Genus() != 0 {
			t.Fatalf("n=%d: tree traced to %d faces, genus %d", n, fs.Count(), emb.Genus())
		}
	}
}
