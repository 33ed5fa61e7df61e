package planar_test

import (
	"fmt"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/planar"
)

// checkFaceRoot compares FaceRoot on every dart of emb with the first
// vertex TraceFaces lists for the dart's face, and returns the number of
// darts checked.
func checkFaceRoot(t *testing.T, name string, emb *planar.Embedding) int {
	t.Helper()
	fs := emb.TraceFaces()
	want := make([]int, fs.Count())
	for f := range want {
		want[f] = fs.FaceVertices(f)[0]
	}
	for d := range fs.FaceOf {
		if got := emb.FaceRoot(d); got != want[fs.FaceOf[d]] {
			t.Fatalf("%s: FaceRoot(%d) = %d, TraceFaces lists face %d from %d", name, d, got, fs.FaceOf[d], want[fs.FaceOf[d]])
		}
	}
	return len(fs.FaceOf)
}

// TestFaceRootMatchesTraceFaces holds FaceRoot to its definition on every
// dart of every generator family at four sizes and three seeds, on
// restrictions of those embeddings, and on embeddings grown by InsertEdge,
// whose new darts take the largest ids.
func TestFaceRootMatchesTraceFaces(t *testing.T) {
	darts := 0
	for _, fam := range gen.Families {
		for _, n := range []int{3, 10, 60, 400} {
			for seed := int64(1); seed <= 3; seed++ {
				in, err := gen.ByName(fam, n, seed)
				if err != nil {
					continue // below the family's minimum size
				}
				name := fmt.Sprintf("%s/n=%d/seed=%d", fam, n, seed)
				darts += checkFaceRoot(t, name, in.Emb)
				darts += checkRestrictions(t, name, in)
				darts += checkInsertions(t, name, in)
			}
		}
	}
	t.Logf("%d darts checked", darts)
}

// checkRestrictions checks FaceRoot on the restrictions of in to its
// lower half of vertex ids and to every vertex outside a residue class,
// each restricted around the parent outer face.
func checkRestrictions(t *testing.T, name string, in *gen.Instance) int {
	t.Helper()
	n := in.G.N()
	var half, sparse []int
	for v := 0; v < n; v++ {
		if v < (n+1)/2 {
			half = append(half, v)
		}
		if v%3 != 1 {
			sparse = append(sparse, v)
		}
	}
	darts := 0
	for _, vs := range [][]int{half, sparse} {
		dart, err := in.Emb.OuterRegionDart(vs, in.OuterDart)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rs := planar.NewRestricter(in.Emb)
		if err := rs.Split([][]int{vs}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := rs.Restrict(0, dart)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.OuterDart < 0 {
			continue
		}
		darts += checkFaceRoot(t, fmt.Sprintf("%s/restricted to %d", name, len(vs)), res.Emb)
	}
	return darts
}

// checkInsertions grows in by up to four edges, each splitting the face
// of a dart of the previous embedding between its tail and a non-adjacent
// vertex on the same face, and checks FaceRoot after every insertion.
func checkInsertions(t *testing.T, name string, in *gen.Instance) int {
	t.Helper()
	emb := in.Emb
	darts := 0
	for k := 0; k < 4; k++ {
		ins, ok := faceChord(emb, k)
		if !ok {
			break
		}
		var err error
		_, emb, err = emb.InsertEdge(ins)
		if err != nil {
			t.Fatalf("%s: insertion %d: %v", name, k, err)
		}
		darts += checkFaceRoot(t, fmt.Sprintf("%s/insert %d {%d,%d}", name, k, ins.U, ins.V), emb)
	}
	return darts
}

// faceChord returns a planar insertion of an edge between two
// non-adjacent vertices of one face, scanning faces from the k-th.
func faceChord(emb *planar.Embedding, k int) (planar.Insertion, bool) {
	g := emb.Graph()
	fs := emb.TraceFaces()
	for i := 0; i < fs.Count(); i++ {
		verts := fs.FaceVertices((i + k) % fs.Count())
		u := verts[0]
		for _, v := range verts {
			if v == u || g.HasEdge(u, v) {
				continue
			}
			if opts := emb.FaceInsertionsIn(fs, u, v); len(opts) > 0 {
				return opts[0], true
			}
		}
	}
	return planar.Insertion{}, false
}
