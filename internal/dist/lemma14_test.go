package dist

import (
	"math/rand"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

func TestLCADistributedMatchesTree(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		in, err := gen.SparsePlanar(60, 0.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		root := in.Emb.FaceRoot(in.OuterDart)
		tr, err := spanning.DeepDFSTree(in.G, root)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := weights.NewConfig(in.G, in.Emb, in.OuterDart, tr)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 50; trial++ {
			u, v := rng.Intn(tr.N()), rng.Intn(tr.N())
			res, err := LCADistributed(cfg, u, v)
			if err != nil {
				t.Fatal(err)
			}
			if res.LCA != tr.LCA(u, v) {
				t.Fatalf("LCA(%d,%d) = %d, want %d", u, v, res.LCA, tr.LCA(u, v))
			}
			if res.Ops.PA == 0 {
				t.Fatal("ops not recorded")
			}
		}
		if _, err := LCADistributed(cfg, -1, 0); err == nil {
			t.Fatal("out-of-range query accepted")
		}
	}
}
