package planar_test

import (
	"testing"

	"planardfs/internal/gen"
)

// TestFaceInsertionsKeepGenusZero holds the property the separator's
// virtual-edge sweep relies on instead of checking it per insertion: an
// insertion from FaceInsertionsIn draws the new edge through one face and
// splits it in two, so the extended embedding has genus 0. Every family at
// three sizes and two seeds inserts an edge from the outer-face root and
// from a middle vertex to every vertex sharing a face with it.
func TestFaceInsertionsKeepGenusZero(t *testing.T) {
	inserted := 0
	for _, fam := range gen.Families {
		for _, n := range []int{10, 60, 200} {
			for seed := int64(1); seed <= 2; seed++ {
				in, err := gen.ByName(fam, n, seed)
				if err != nil {
					continue // below the family's minimum size
				}
				emb, g := in.Emb, in.G
				fs := emb.TraceFaces()
				for _, u := range []int{emb.FaceRoot(in.OuterDart), g.N() / 2} {
					for v := 0; v < g.N(); v++ {
						if v == u || g.HasEdge(u, v) {
							continue
						}
						for _, ins := range emb.FaceInsertionsIn(fs, u, v) {
							_, nemb, err := emb.InsertEdge(ins)
							if err != nil {
								t.Fatalf("%s n=%d seed=%d: InsertEdge(%+v): %v", fam, n, seed, ins, err)
							}
							if gn := nemb.Genus(); gn != 0 {
								t.Fatalf("%s n=%d seed=%d: insertion %+v gives genus %d", fam, n, seed, ins, gn)
							}
							inserted++
						}
					}
				}
			}
		}
	}
	if inserted < 1000 {
		t.Fatalf("only %d insertions checked", inserted)
	}
	t.Logf("%d face insertions, all genus 0", inserted)
}
