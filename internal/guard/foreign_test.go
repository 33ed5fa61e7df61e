package guard_test

import (
	"context"
	"errors"
	"testing"

	"planardfs"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/guard"
	"planardfs/internal/planar"
)

// TestGuardRejectsForeignEmbedding pins the shape stage on instances the
// pipeline cannot run: an embedding built on a graph other than the
// instance's (a clone, a copy with one more isolated vertex, a copy with
// its edge ids reversed), no embedding at all, and an outer dart outside
// the embedding. Each gets a shape rejection without a panic, and a Run
// handed that verdict returns its typed rejection. Without the shape
// checks the guard admitted the foreign embeddings, and Run failed with an
// untyped configuration error after the whole dfs stage; a nil embedding
// panicked inside the guard.
func TestGuardRejectsForeignEmbedding(t *testing.T) {
	opt := guard.Options{Seed: 11, Exhaustive: true}
	for _, fam := range []string{"grid", "stacked", "wheel"} {
		in, err := gen.ByName(fam, 60, 3)
		if err != nil {
			t.Fatal(err)
		}
		cases := map[string]*gen.Instance{
			"nil-embedding": {Name: in.Name, G: in.G, OuterDart: in.OuterDart},
			"outer-dart":    {Name: in.Name, G: in.G, Emb: in.Emb, OuterDart: 2 * in.G.M()},
		}
		rot := gen.WireOf(in).Rotations
		for name, other := range otherGraphs(in.G) {
			emb, err := planar.FromNeighborOrders(other, append(rot[:len(rot):len(rot)], make([][]int, other.N()-len(rot))...))
			if err != nil {
				t.Fatalf("%s on %s: %v", in.Name, name, err)
			}
			cases[name] = &gen.Instance{Name: in.Name, G: in.G, Emb: emb, OuterDart: in.OuterDart}
		}
		for name, c := range cases {
			v, err := planardfs.ValidateEmbedding(c, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", in.Name, name, err)
			}
			if v.OK || v.Witness.Reason != guard.ReasonShape {
				t.Fatalf("%s/%s: verdict OK=%v witness=%+v, want a shape rejection", in.Name, name, v.OK, v.Witness)
			}
			if _, err := planardfs.Run(context.Background(), c, planardfs.PipelineOptions{Admitted: v}); !errors.Is(err, planardfs.ErrInputRejected) {
				t.Fatalf("%s/%s: Run gave %v, want the typed rejection", in.Name, name, err)
			}
		}
	}
}

// otherGraphs returns graphs that are not g but share its first N()
// vertices and their neighbours: a clone, a copy with one more (isolated)
// vertex, and a copy that adds g's edges in reverse order, so that every
// edge id differs.
func otherGraphs(g *graph.Graph) map[string]*graph.Graph {
	edges := g.Edges()
	wider, reversed := graph.New(g.N()+1), graph.New(g.N())
	for i := range edges {
		wider.MustAddEdge(edges[i].U, edges[i].V)
		e := edges[len(edges)-1-i]
		reversed.MustAddEdge(e.U, e.V)
	}
	return map[string]*graph.Graph{"clone": g.Clone(), "wider": wider, "reversed": reversed}
}
