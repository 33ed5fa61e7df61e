package weights

import (
	"slices"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/spanning"
)

// TestVirtualCaseMatchesInsertion is the oracle for VirtualCase: on every
// face insertion of a virtual edge {root, x}, for every x on a face at the
// root, it must return the case and weight that inserting the edge into a
// copy and building the configuration anew returns, and fail exactly where
// the insertion fails (x the root or a neighbour of it). The corpus is every
// generator family at n = 30, 100 and 250 with seeds 1–6, under BFS and
// deep-DFS trees; -short keeps n = 30 and 100 with seeds 1–2. The copy
// must also keep the root anchor, as VirtualCase assumes.
func TestVirtualCaseMatchesInsertion(t *testing.T) {
	sizes, seeds := []int{30, 100, 250}, int64(6)
	if testing.Short() {
		sizes, seeds = []int{30, 100}, 2
	}
	seen := map[string]bool{}
	configs, checked, rejected := 0, 0, 0
	for _, fam := range gen.Families {
		for _, n := range sizes {
			for seed := int64(1); seed <= seeds; seed++ {
				in, err := gen.ByName(fam, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				h := gen.ContentHash(in)
				if seen[h] {
					continue
				}
				seen[h] = true
				root := in.Emb.FaceRoot(in.OuterDart)
				bt, err := spanning.BFSTree(in.G, root)
				if err != nil {
					t.Fatal(err)
				}
				dt, err := spanning.DeepDFSTree(in.G, root)
				if err != nil {
					t.Fatal(err)
				}
				for _, tr := range []*spanning.Tree{bt, dt} {
					cfg, err := NewConfig(in.G, in.Emb, in.OuterDart, tr)
					if err != nil {
						t.Fatalf("%s: %v", in.Name, err)
					}
					configs++
					for _, x := range rootFaceVertices(cfg) {
						for _, ins := range cfg.Emb.FaceInsertionsIn(cfg.Faces(), root, x) {
							got, gotW, gotErr := cfg.VirtualCase(ins)
							ng, nemb, err := cfg.Emb.InsertEdge(ins)
							if err != nil {
								if gotErr == nil {
									t.Fatalf("%s %v: InsertEdge fails (%v), VirtualCase does not", in.Name, ins, err)
								}
								rejected++
								continue
							}
							if gotErr != nil {
								t.Fatalf("%s %v: %v", in.Name, ins, gotErr)
							}
							ncfg, err := NewConfig(ng, nemb, cfg.RootAnchor(), cfg.Tree)
							if err != nil {
								t.Fatalf("%s %v: %v", in.Name, ins, err)
							}
							want := ncfg.Classify(cfg.G.M())
							if wantW := ncfg.WeightOf(want); got != want || gotW != wantW {
								t.Fatalf("%s root %d %v: VirtualCase %+v weight %d, copy %+v weight %d",
									in.Name, root, ins, got, gotW, want, wantW)
							}
							if ncfg.RootAnchor() != cfg.RootAnchor() {
								t.Fatalf("%s %v: the copy moves the root anchor from dart %d to %d",
									in.Name, ins, cfg.RootAnchor(), ncfg.RootAnchor())
							}
							checked++
						}
					}
				}
			}
		}
	}
	t.Logf("%d configurations: %d virtual insertions match the copy, %d rejected by both",
		configs, checked, rejected)
}

// rootFaceVertices lists, once each, the vertices on the faces at the root,
// the root and its neighbours included.
func rootFaceVertices(cfg *Config) []int {
	fs := cfg.Faces()
	var out []int
	for _, d := range cfg.Emb.Rotation(cfg.Tree.Root) {
		for _, v := range fs.FaceVertices(int(fs.FaceOf[d])) {
			if !slices.Contains(out, v) {
				out = append(out, v)
			}
		}
	}
	return out
}
