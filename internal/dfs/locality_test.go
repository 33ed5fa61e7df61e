package dfs

import (
	"fmt"
	"slices"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/separator"
)

// TestOuterRegionDartMatchesUnionFind drives the phases and joins of the
// build and checks, for every remaining component, that the dart the
// build names locally (outerRegionDart) selects the same restricted outer
// face as the union–find over all parent faces (OuterRegionDart). Roots
// on the outer face exercise the dart-into-T_d rule; interior roots also
// exercise the phases in which the outer face lies inside one component.
func TestOuterRegionDartMatchesUnionFind(t *testing.T) {
	type instance struct {
		family string
		n      int
		seed   int64
	}
	var cases []instance
	for seed := int64(1); seed <= 6; seed++ {
		cases = append(cases, instance{"stacked", 300, seed})
	}
	cases = append(cases, instance{"grid", 400, 1}, instance{"cylinderish", 400, 1}, instance{"wheel", 200, 1})
	checked, viaOuterDart := 0, 0
	for _, c := range cases {
		in, err := gen.ByName(c.family, c.n, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		fs := in.Emb.TraceFaces()
		outerFace := int(fs.FaceOf[in.OuterDart])
		outerVerts := fs.FaceVertices(outerFace)
		for _, root := range []int{outerVerts[0], in.G.N() / 2} {
			name := fmt.Sprintf("%s/n=%d/seed=%d/root=%d", c.family, c.n, c.seed, root)
			g, emb := in.G, in.Emb
			pt := NewPartialTree(g.N(), root)
			sc := newJoinScratch(g.N())
			outerInTree := false
			for !pt.Complete() {
				comps := remainingComponents(g, pt)
				if !outerInTree {
					outerInTree = anyAdded(pt, outerVerts)
				}
				for _, comp := range comps {
					dart := outerRegionDart(emb, pt, comp, in.OuterDart, outerInTree)
					if dart == in.OuterDart && !pt.Has(emb.HeadOf(dart)) {
						viaOuterDart++
					}
					ref, err := emb.OuterRegionDart(comp, outerFace)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					local, err := emb.RestrictTo(comp, dart)
					if err != nil {
						t.Fatalf("%s: restricting around the local dart: %v", name, err)
					}
					global, err := emb.RestrictTo(comp, ref)
					if err != nil {
						t.Fatalf("%s: restricting around the union–find dart: %v", name, err)
					}
					// Both restrictions build the same sub-embedding, so
					// their sub-darts are comparable.
					if (local.OuterDart < 0) != (global.OuterDart < 0) {
						t.Fatalf("%s: component %v: outer darts %d vs %d", name, comp, local.OuterDart, global.OuterDart)
					}
					if local.OuterDart >= 0 {
						sfs := local.Emb.TraceFaces()
						if sfs.FaceOf[local.OuterDart] != sfs.FaceOf[global.OuterDart] {
							t.Fatalf("%s: component of %d vertices at %d: local dart %d and union–find dart %d select different outer faces",
								name, len(comp), comp[0], dart, ref)
						}
					}
					checked++
					sep, err := separator.ForSubsetWith(emb, dart, comp, nil, separator.Find)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if _, err := joinSeparator(g, pt, comp, sep.Path, nil, sc); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
			want, _, err := Build(g, emb, in.OuterDart, root)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !slices.Equal(pt.Parent, want.Parent) {
				t.Fatalf("%s: the driven phases diverge from Build", name)
			}
		}
	}
	if viaOuterDart == 0 {
		t.Fatal("no component held the whole outer face; the interior roots no longer cover that case")
	}
	t.Logf("%d restrictions agree (%d named by the outer dart itself)", checked, viaOuterDart)
}
