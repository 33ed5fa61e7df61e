package dfs

import (
	"testing"
	"testing/quick"

	"planardfs/internal/gen"
)

// Property: Build produces a valid, complete DFS tree on random sparse
// planar graphs with random roots on the outer face.
func TestBuildProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 8 + int(sz)%80
		in, err := gen.SparsePlanar(n, 0.5, seed)
		if err != nil {
			return false
		}
		fs := in.Emb.TraceFaces()
		outs := fs.FaceVertices(int(fs.FaceOf[in.OuterDart]))
		root := outs[int(uint64(seed)%uint64(len(outs)))]
		pt, tr, err := Build(in.G, in.Emb, in.OuterDart, root)
		if err != nil {
			return false
		}
		if !pt.Complete() || tr.Phases == 0 {
			return false
		}
		return IsDFSTree(in.G, root, pt.Parent) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the depth recorded by the DFS-RULE equals the tree distance
// from the root in the final tree.
func TestPartialTreeDepthsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		in, err := gen.StackedTriangulation(50, seed)
		if err != nil {
			return false
		}
		root := in.Emb.FaceRoot(in.OuterDart)
		pt, _, err := Build(in.G, in.Emb, in.OuterDart, root)
		if err != nil {
			return false
		}
		for v := 0; v < in.G.N(); v++ {
			d := 0
			for x := v; pt.Parent[x] != -1; x = pt.Parent[x] {
				d++
			}
			if d != pt.Depth[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
