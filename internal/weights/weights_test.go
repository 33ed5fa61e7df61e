package weights

import (
	"fmt"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/planar"
	"planardfs/internal/spanning"
)

// TPosOf is the scan reference for the normalized rotation positions: it
// finds the edge {v,w} by an incidence scan and returns the position of
// its dart out of v. The code reads positions off known darts instead
// (childTPos for tree children, edgeTPos for a case's own edge).
func (cfg *Config) TPosOf(v, w int) int {
	id, ok := cfg.G.EdgeID(v, w)
	if !ok {
		panic(fmt.Sprintf("weights: %d and %d are not adjacent", v, w))
	}
	return cfg.TPos(planar.DartFrom(cfg.G, id, v))
}

// configsUnderTest builds a varied set of (instance, tree) configurations:
// several graph families, BFS and deep-DFS spanning trees, several seeds.
func configsUnderTest(t *testing.T) []*Config {
	t.Helper()
	var instances []*gen.Instance
	addInst := func(in *gen.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, in)
	}
	addInst(gen.Grid(4, 4))
	addInst(gen.Grid(5, 3))
	addInst(gen.Wheel(7))
	addInst(gen.Fan(8))
	for seed := int64(1); seed <= 6; seed++ {
		addInst(gen.StackedTriangulation(14+2*int(seed), seed))
		addInst(gen.PolygonTriangulation(10+int(seed), seed))
		addInst(gen.SparsePlanar(20, 0.5, seed))
	}
	var cfgs []*Config
	for _, in := range instances {
		// Root must lie on the outer face: use a vertex of the outer face.
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
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

func TestConfigRejectsInnerRoot(t *testing.T) {
	in, err := gen.Wheel(5)
	if err != nil {
		t.Fatal(err)
	}
	hub := 5 // the hub is not on the outer face
	tr, err := spanning.BFSTree(in.G, hub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewConfig(in.G, in.Emb, in.OuterDart, tr); err == nil {
		t.Fatal("root strictly inside accepted")
	}
}

func TestTPosNormalization(t *testing.T) {
	for _, cfg := range configsUnderTest(t) {
		for v := 0; v < cfg.G.N(); v++ {
			if v == cfg.Tree.Root {
				continue
			}
			if got := cfg.TPosOf(v, cfg.Tree.Parent[v]); got != 0 {
				t.Fatalf("parent dart of %d at position %d", v, got)
			}
		}
		// Child order must be strictly ascending in TPos.
		for v := 0; v < cfg.G.N(); v++ {
			cs := cfg.ChildOrder(v)
			for i := 0; i+1 < len(cs); i++ {
				if cfg.TPosOf(v, cs[i]) >= cfg.TPosOf(v, cs[i+1]) {
					t.Fatalf("child order of %d not ascending", v)
				}
			}
			if len(cs) != len(cfg.Tree.Children(v)) {
				t.Fatalf("child order of %d misses children", v)
			}
		}
	}
}

// TestWeightFormulaExact is the Lemma 3 / Lemma 4 property test: the
// deterministic weight of Definition 2 equals the geometric count
// (|F̃_e| for non-ancestor edges, |F̊_e| for ancestor edges) for every real
// fundamental edge of every configuration.
// TestChildTPosMatchesScan checks that the position of every tree child
// read off its parent dart, and the position of every non-tree edge at
// both endpoints read off the edge's own darts, equal the ones the
// incidence scan finds, on grid, stacked and cylinderish instances under
// BFS and deep DFS trees.
func TestChildTPosMatchesScan(t *testing.T) {
	for _, name := range []string{"grid", "stacked", "cylinderish"} {
		in, err := gen.ByName(name, 120, 1)
		if err != nil {
			t.Fatal(err)
		}
		root := in.Emb.FaceRoot(in.OuterDart)
		for _, mk := range []func(*graph.Graph, int) (*spanning.Tree, error){spanning.BFSTree, spanning.DeepDFSTree} {
			tr, err := mk(in.G, root)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := NewConfig(in.G, in.Emb, in.OuterDart, tr)
			if err != nil {
				t.Fatal(err)
			}
			children := 0
			for v := 0; v < in.G.N(); v++ {
				for _, c := range tr.Children(v) {
					c := int(c)
					if got, want := cfg.childTPos(c), cfg.TPosOf(v, c); got != want {
						t.Fatalf("%s: child %d of %d at position %d, scan says %d", name, c, v, got, want)
					}
					children++
				}
			}
			if children != in.G.N()-1 {
				t.Fatalf("%s: checked %d tree children, want %d", name, children, in.G.N()-1)
			}
			fund := cfg.FundamentalEdges()
			if len(fund) == 0 {
				t.Fatalf("%s: no non-tree edges to check", name)
			}
			for _, e := range fund {
				ec := cfg.Classify(e)
				for _, x := range [][2]int{{ec.U, ec.V}, {ec.V, ec.U}} {
					if got, want := cfg.edgeTPos(ec, x[0]), cfg.TPosOf(x[0], x[1]); got != want {
						t.Fatalf("%s: non-tree edge %d at %d has position %d, scan says %d", name, e, x[0], got, want)
					}
				}
			}
		}
	}
}

func TestWeightFormulaExact(t *testing.T) {
	total, checked := 0, 0
	for ci, cfg := range configsUnderTest(t) {
		for _, e := range cfg.FundamentalEdges() {
			total++
			want, err := cfg.GroundTruthWeight(e)
			if err != nil {
				t.Fatalf("cfg %d edge %d: %v", ci, e, err)
			}
			got := cfg.Weight(e)
			if got != want {
				ec := cfg.Classify(e)
				t.Fatalf("cfg %d edge %d (%d-%d, anc=%v, left=%v): weight %d, ground truth %d",
					ci, e, ec.U, ec.V, ec.Z >= 0, ec.UseLeft, got, want)
			}
			checked++
		}
	}
	if checked == 0 || checked != total {
		t.Fatalf("checked %d of %d edges", checked, total)
	}
	t.Logf("verified Definition 2 on %d fundamental edges", checked)
}

// TestInFaceMatchesGeometry is the Remark 1 property test: interval/cone
// face membership equals the dual-cut geometric classification for every
// vertex and fundamental edge.
func TestInFaceMatchesGeometry(t *testing.T) {
	for ci, cfg := range configsUnderTest(t) {
		for _, e := range cfg.FundamentalEdges() {
			ec := cfg.Classify(e)
			inside, border, err := cfg.GroundTruthInside(ec.U, ec.V)
			if err != nil {
				t.Fatal(err)
			}
			for z := 0; z < cfg.G.N(); z++ {
				b, in := cfg.InFace(ec, z)
				if b != border[z] || in != inside[z] {
					t.Fatalf("cfg %d edge %d-%d z=%d: InFace=(%v,%v), geometry=(%v,%v)",
						ci, ec.U, ec.V, z, b, in, border[z], inside[z])
				}
			}
		}
	}
}

// TestAugWeightMonotone is the Remark 2 property test: over incomparable
// nodes strictly inside a face, the augmentation weight from U is monotone
// in the case's DFS order.
func TestAugWeightMonotone(t *testing.T) {
	for ci, cfg := range configsUnderTest(t) {
		for _, e := range cfg.FundamentalEdges() {
			ec := cfg.Classify(e)
			ins := cfg.InsideNodes(ec)
			pi := cfg.Pi(ec)
			for _, z1 := range ins {
				for _, z2 := range ins {
					if cfg.Tree.IsAncestor(z1, z2) || cfg.Tree.IsAncestor(z2, z1) {
						continue
					}
					if pi[z1] < pi[z2] && cfg.AugWeight(ec, z1) > cfg.AugWeight(ec, z2) {
						t.Fatalf("cfg %d edge %d-%d: aug weight not monotone at %d (%d) vs %d (%d)",
							ci, ec.U, ec.V, z1, cfg.AugWeight(ec, z1), z2, cfg.AugWeight(ec, z2))
					}
				}
			}
		}
	}
}

// TestAugWeightLeafEquality is Remark 2 items 3-4: a node's augmentation
// weight equals that of its order-maximal leaf descendant.
func TestAugWeightLeafEquality(t *testing.T) {
	for ci, cfg := range configsUnderTest(t) {
		for _, e := range cfg.FundamentalEdges() {
			ec := cfg.Classify(e)
			for _, z := range cfg.InsideNodes(ec) {
				leaf := cfg.RightmostLeafIn(ec, z)
				if w1, w2 := cfg.AugWeight(ec, z), cfg.AugWeight(ec, leaf); w1 != w2 {
					t.Fatalf("cfg %d edge %d-%d: aug weight of %d is %d but of its rightmost leaf %d is %d",
						ci, ec.U, ec.V, z, w1, leaf, w2)
				}
			}
		}
	}
}

// isLeaf reports whether z has no tree children.
func isLeaf(cfg *Config, z int) bool { return len(cfg.Tree.Children(z)) == 0 }

// TestAugWeightGeometric validates the augmentation weight against actual
// geometric insertion for non-hidden leaves: some planarity-preserving
// insertion of the virtual edge {U, z} yields a fundamental face whose
// ground-truth count equals AugWeight.
func TestAugWeightGeometric(t *testing.T) {
	checked := 0
	for ci, cfg := range configsUnderTest(t) {
		if cfg.G.N() > 24 {
			continue // geometric enumeration is expensive
		}
		for _, e := range cfg.FundamentalEdges() {
			ec := cfg.Classify(e)
			for _, z := range cfg.InsideNodes(ec) {
				if !isLeaf(cfg, z) || cfg.G.HasEdge(ec.U, z) {
					continue
				}
				if len(cfg.HidingEdges(ec, z)) > 0 {
					continue
				}
				want := cfg.AugWeight(ec, z)
				if !augWeightRealizable(t, cfg, ec, z, want) {
					t.Fatalf("cfg %d edge %d-%d z=%d: no insertion realizes aug weight %d",
						ci, ec.U, ec.V, z, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no augmentation candidates checked")
	}
	t.Logf("geometrically validated %d augmentation weights", checked)
}

// augWeightRealizable inserts {U,z} in every planar way and checks whether
// one insertion's fundamental face has ground-truth weight want.
func augWeightRealizable(t *testing.T, cfg *Config, ec EdgeCase, z, want int) bool {
	t.Helper()
	for _, ins := range cfg.Emb.FaceInsertionsIn(cfg.Emb.TraceFaces(), ec.U, z) {
		ng, nemb, err := cfg.Emb.InsertEdge(ins)
		if err != nil || nemb.Genus() != 0 {
			continue
		}
		ncfg, err := NewConfig(ng, nemb, outerDartIn(ng, cfg), cfg.Tree)
		if err != nil {
			continue
		}
		id, ok := ng.EdgeID(ec.U, z)
		if !ok {
			continue
		}
		got, err := ncfg.GroundTruthWeight(id)
		if err != nil {
			continue
		}
		// AugWeight uses F-tilde semantics throughout; GroundTruthWeight of
		// an ancestor edge returns the strict inside count, so add the
		// border path U..z.
		if nec := ncfg.Classify(id); nec.Z >= 0 {
			got += cfg.Tree.Depth[z] - cfg.Tree.Depth[ec.U] + 1
		}
		if got == want {
			return true
		}
	}
	return false
}

// outerDartIn maps the original outer-face designation into the new graph
// (dart IDs of existing edges are preserved by InsertEdge).
func outerDartIn(ng interface{ M() int }, cfg *Config) int {
	// Any dart of the original outer face still borders the outer region:
	// pick a dart of the outer face cycle from the original embedding.
	fs := cfg.Emb.TraceFaces()
	return int(fs.Cycle(cfg.Outer)[0])
}

// TestHiddenMatchesCompatibility is the Lemma 6 property test: a leaf
// strictly inside a face is geometrically (T, F_e)-compatible with U iff it
// is not hidden.
func TestHiddenMatchesCompatibility(t *testing.T) {
	checked := 0
	for ci, cfg := range configsUnderTest(t) {
		if cfg.G.N() > 20 {
			continue
		}
		for _, e := range cfg.FundamentalEdges() {
			ec := cfg.Classify(e)
			for _, z := range cfg.InsideNodes(ec) {
				if !isLeaf(cfg, z) || cfg.G.HasEdge(ec.U, z) {
					continue
				}
				hidden := len(cfg.HidingEdges(ec, z)) > 0
				compatible := geometricallyCompatible(cfg, ec, z)
				if hidden == compatible {
					t.Fatalf("cfg %d edge %d-%d leaf %d: hidden=%v but geometrically compatible=%v",
						ci, ec.U, ec.V, z, hidden, compatible)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no hidden/compatibility candidates checked")
	}
	t.Logf("verified Lemma 6 on %d (face, leaf) pairs", checked)
}

// geometricallyCompatible checks the operative form of Definition 3: some
// planar insertion of {U,z} yields a face F_f that (1) stays inside F_e,
// (2) contains every descendant of z, and (3) contains every cone subtree
// of U swept before z in the case's DFS order (the prefix the full
// augmentation keeps inside; the literal "all of V(T_U) cap F_e" reading of
// condition (2) in Definition 3 is unsatisfiable when U is an ancestor-type
// endpoint, since then T_U contains the whole face).
func geometricallyCompatible(cfg *Config, ec EdgeCase, z int) bool {
	t := cfg.Tree
	pi := cfg.Pi(ec)
	// The U-side vertices that must stay inside the new face.
	var mustKeep []int
	if z != ec.U && t.IsAncestor(ec.U, z) {
		z1 := t.MustFirstOnPath(ec.U, z)
		for _, c := range cfg.ChildOrder(ec.U) {
			if c != z1 && cfg.childInCone(ec, ec.U, c) && pi[c] < pi[z1] {
				mustKeep = append(mustKeep, c)
			}
		}
	} else {
		for _, c := range cfg.ChildOrder(ec.U) {
			if cfg.childInCone(ec, ec.U, c) {
				mustKeep = append(mustKeep, c)
			}
		}
	}
	for _, ins := range cfg.Emb.FaceInsertionsIn(cfg.Emb.TraceFaces(), ec.U, z) {
		ng, nemb, err := cfg.Emb.InsertEdge(ins)
		if err != nil || nemb.Genus() != 0 {
			continue
		}
		ncfg, err := NewConfig(ng, nemb, outerDartIn(ng, cfg), cfg.Tree)
		if err != nil {
			continue
		}
		if _, ok := ng.EdgeID(ec.U, z); !ok {
			continue
		}
		necInside, necBorder, err := ncfg.GroundTruthInside(ec.U, z)
		if err != nil {
			continue
		}
		inF := func(x int) bool { return necInside[x] || necBorder[x] }
		// (1) the new face is contained in F_e.
		ok1 := true
		for x := 0; x < cfg.G.N(); x++ {
			if inF(x) {
				b, in := cfg.InFace(ec, x)
				if !b && !in {
					ok1 = false
					break
				}
			}
		}
		if !ok1 {
			continue
		}
		// (2) every descendant of z is inside the new face.
		ok2 := true
		for x := 0; x < cfg.G.N(); x++ {
			if t.IsAncestor(z, x) && !inF(x) {
				ok2 = false
				break
			}
		}
		if !ok2 {
			continue
		}
		// (3) the swept cone subtrees of U are inside the new face.
		ok3 := true
		for _, c := range mustKeep {
			for x := 0; x < cfg.G.N() && ok3; x++ {
				if t.IsAncestor(c, x) && !inF(x) {
					ok3 = false
				}
			}
			if !ok3 {
				break
			}
		}
		if ok3 {
			return true
		}
	}
	return false
}

func TestFundamentalEdgesCount(t *testing.T) {
	for _, cfg := range configsUnderTest(t) {
		want := cfg.G.M() - (cfg.G.N() - 1)
		if got := len(cfg.FundamentalEdges()); got != want {
			t.Fatalf("fundamental edges = %d, want %d", got, want)
		}
	}
}

func ExampleConfig_Weight() {
	in, _ := gen.Grid(3, 3)
	root := in.Emb.FaceRoot(in.OuterDart)
	tr, _ := spanning.BFSTree(in.G, root)
	cfg, _ := NewConfig(in.G, in.Emb, in.OuterDart, tr)
	e := cfg.FundamentalEdges()[0]
	gt, _ := cfg.GroundTruthWeight(e)
	fmt.Println(cfg.Weight(e) == gt)
	// Output: true
}
