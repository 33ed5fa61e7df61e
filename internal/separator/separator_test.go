package separator

import (
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// buildConfig makes a configuration over the instance with the given tree
// kind ("bfs" or "dfs"), rooted on the outer face.
func buildConfig(t *testing.T, in *gen.Instance, kind string) *weights.Config {
	t.Helper()
	root := in.Emb.FaceRoot(in.OuterDart)
	var tr *spanning.Tree
	var err error
	if kind == "bfs" {
		tr, err = spanning.BFSTree(in.G, root)
	} else {
		tr, err = spanning.DeepDFSTree(in.G, root)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := weights.NewConfig(in.G, in.Emb, in.OuterDart, tr)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// checkSeparator validates the Theorem 1 guarantees on a result.
func checkSeparator(t *testing.T, cfg *weights.Config, sep *Separator, name string) {
	t.Helper()
	n := cfg.G.N()
	if len(sep.Path) == 0 {
		t.Fatalf("%s: empty separator", name)
	}
	if !IsTPath(cfg, sep) {
		t.Fatalf("%s: separator is not the T-path between its endpoints (phase %v)", name, sep.Phase)
	}
	if maxComp := VerifyBalance(cfg.G, sep.Path); 3*maxComp > 2*n {
		t.Fatalf("%s: unbalanced separator: max component %d of n=%d (phase %v, path len %d)",
			name, maxComp, n, sep.Phase, len(sep.Path))
	}
	if sep.Phase == PhaseExhaustive {
		t.Errorf("%s: exhaustive fallback triggered", name)
	}
}

func allInstances(t *testing.T) []*gen.Instance {
	t.Helper()
	var out []*gen.Instance
	add := func(in *gen.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	add(gen.Grid(5, 5))
	add(gen.Grid(9, 3))
	add(gen.Wheel(11))
	add(gen.Fan(12))
	add(gen.Cycle(12))
	for seed := int64(1); seed <= 12; seed++ {
		add(gen.StackedTriangulation(30+int(seed), seed))
		add(gen.PolygonTriangulation(20+int(seed), seed))
		add(gen.SparsePlanar(28, 0.6, seed))
		add(gen.SparsePlanar(28, 0.95, seed))
		add(gen.RandomTree(25, seed))
	}
	return out
}

// TestFindBalancedEverywhere is the core Theorem 1 validation: on every
// family, seed and tree kind, the algorithm returns a balanced T-path cycle
// separator without the exhaustive fallback.
func TestFindBalancedEverywhere(t *testing.T) {
	phases := map[Phase]int{}
	for _, in := range allInstances(t) {
		for _, kind := range []string{"bfs", "dfs"} {
			cfg := buildConfig(t, in, kind)
			sep, err := Find(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", in.Name, kind, err)
			}
			checkSeparator(t, cfg, sep, in.Name+"/"+kind)
			phases[sep.Phase]++
		}
	}
	t.Logf("phase distribution: %v", phases)
}

// TestCycleClosable verifies the "cycle" part of the cycle separator: the
// endpoints of the separator path are equal, adjacent in G, or joined by an
// ℰ-compatible virtual edge (checked geometrically on small instances).
func TestCycleClosable(t *testing.T) {
	var smalls []*gen.Instance
	add := func(in *gen.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		smalls = append(smalls, in)
	}
	add(gen.Grid(4, 4))
	add(gen.Wheel(8))
	for seed := int64(1); seed <= 6; seed++ {
		add(gen.StackedTriangulation(16, seed))
		add(gen.SparsePlanar(18, 0.7, seed))
	}
	for _, in := range smalls {
		for _, kind := range []string{"bfs", "dfs"} {
			cfg := buildConfig(t, in, kind)
			sep, err := Find(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkSeparator(t, cfg, sep, in.Name)
			if sep.EndA == sep.EndB || cfg.G.HasEdge(sep.EndA, sep.EndB) {
				continue
			}
			if !cfg.Emb.ECompatible(sep.EndA, sep.EndB) {
				t.Errorf("%s/%s: endpoints %d,%d not virtually connectable (phase %v)",
					in.Name, kind, sep.EndA, sep.EndB, sep.Phase)
			}
		}
	}
}

func TestTreePhase(t *testing.T) {
	in, err := gen.RandomTree(40, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := buildConfig(t, in, "bfs")
	sep, err := Find(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sep.Phase != PhaseTree {
		t.Fatalf("tree separator used phase %v", sep.Phase)
	}
	checkSeparator(t, cfg, sep, "tree")
}

func TestSingleAndTinyGraphs(t *testing.T) {
	one, err := gen.PathTree(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := spanning.BFSTree(one.G, 0)
	cfg, err := weights.NewConfig(one.G, one.Emb, 0, tr)
	_ = cfg
	// A single vertex has no darts; NewConfig over it is exercised through
	// ForSubset instead.
	if err == nil {
		sep, err := Find(cfg)
		if err != nil || len(sep.Path) != 1 {
			t.Fatalf("single vertex: %v %+v", err, sep)
		}
	}

	two, err := gen.PathTree(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := buildConfig(t, two, "bfs")
	sep, err := Find(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	checkSeparator(t, cfg2, sep, "path-2")
}

func TestForPartitionStripes(t *testing.T) {
	in, err := gen.Grid(12, 6)
	if err != nil {
		t.Fatal(err)
	}
	partOf := make([]int, in.G.N())
	for y := 0; y < 6; y++ {
		for x := 0; x < 12; x++ {
			partOf[y*12+x] = x / 3
		}
	}
	part, err := shortcut.NewPartition(partOf)
	if err != nil {
		t.Fatal(err)
	}
	results, err := ForPartition(in.Emb, in.OuterDart, part, Find)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for p, sep := range results {
		// Balance within the induced subgraph.
		orig := part.Parts[p]
		sub := induced(t, in.G, orig)
		subOf := map[int]int{}
		for i, v := range orig {
			subOf[v] = i
		}
		subSep := make([]int, len(sep.Path))
		for i, v := range sep.Path {
			sv, ok := subOf[v]
			if !ok {
				t.Fatalf("part %d: separator vertex %d outside part", p, v)
			}
			subSep[i] = sv
		}
		if maxComp := VerifyBalance(sub, subSep); 3*maxComp > 2*len(orig) {
			t.Fatalf("part %d: max component %d of %d", p, maxComp, len(orig))
		}
	}
}

func TestForSubsetSingleVertex(t *testing.T) {
	in, err := gen.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := findRegion(in, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sep.Path) != 1 || sep.Path[0] != 4 {
		t.Fatalf("separator = %+v", sep)
	}
}

// TestForSubsetWithSingleVertex pins the single-vertex path of ForSubset
// with a find that must not run: it answers without running find, and a
// vertex outside the graph gets the error the Inducer's Split reports.
// An empty subset, which has no outer dart to root on, is an error too.
func TestForSubsetWithSingleVertex(t *testing.T) {
	in, err := gen.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	noFind := func(*weights.Config) (*Separator, error) {
		t.Fatal("find ran on a single vertex")
		return nil, nil
	}
	ws := NewWorkspace(in.Emb)
	parts := make([][]int, in.G.N())
	for v := range parts {
		parts[v] = []int{v}
	}
	if err := ws.Split(parts); err != nil {
		t.Fatal(err)
	}
	for v := range parts {
		sep, err := ForSubset(ws, v, -1, noFind)
		if err != nil {
			t.Fatal(err)
		}
		if len(sep.Path) != 1 || sep.Path[0] != v || sep.EndA != v || sep.EndB != v || sep.Phase != PhaseTree {
			t.Fatalf("ForSubset({%d}) = %+v, want the tree-phase path [%d]", v, sep, v)
		}
	}
	for _, v := range []int{-1, in.G.N(), 1 << 40} {
		err := ws.Split([][]int{{v}})
		want := graph.NewInducer(in.G).Split([][]int{{v}})
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("Split({%d}) error %v, Inducer reports %v", v, err, want)
		}
	}
	if err := ws.Split([][]int{nil}); err != nil {
		t.Fatal(err)
	}
	if _, err := ForSubset(ws, 0, -1, noFind); err == nil {
		t.Fatal("ForSubset accepted an empty subset")
	}
}

func TestForSubsetDisconnected(t *testing.T) {
	in, err := gen.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := findRegion(in, []int{0, 15}); err == nil {
		t.Fatal("disconnected subset accepted")
	}
}

func TestBFSLevelSeparatorBalance(t *testing.T) {
	for _, mk := range []func() (*gen.Instance, error){
		func() (*gen.Instance, error) { return gen.Grid(8, 8) },
		func() (*gen.Instance, error) { return gen.StackedTriangulation(60, 2) },
	} {
		in, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		sep := BFSLevelSeparator(in.G, 0)
		if len(sep) == 0 {
			t.Fatal("empty level separator")
		}
		if maxComp := VerifyBalance(in.G, sep); 2*maxComp > in.G.N() {
			t.Fatalf("%s: level separator unbalanced: %d of %d", in.Name, maxComp, in.G.N())
		}
	}
}

func TestPhaseString(t *testing.T) {
	for p := PhaseTree; p <= PhaseExhaustive; p++ {
		if p.String() == "" {
			t.Fatal("empty phase name")
		}
	}
	if Phase(99).String() != "phase(99)" {
		t.Fatal("unknown phase formatting")
	}
}

// TestAblationOptionsRespected checks that each ablation switch actually
// changes behaviour where its phase would fire, while the safety net keeps
// results balanced.
func TestAblationOptionsRespected(t *testing.T) {
	in, err := gen.Grid(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := buildConfig(t, in, "dfs")
	full, err := Find(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := in.G.N()
	if 3*VerifyBalance(in.G, full.Path) > 2*n {
		t.Fatal("full algorithm unbalanced")
	}
	for _, opt := range []Options{
		{DisableLongPath: true},
		{DisableHiddenFallback: true},
		{DisableAugmentation: true},
		{DisableVirtualSweep: true},
	} {
		sep, err := FindWithOptions(cfg, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if 3*VerifyBalance(in.G, sep.Path) > 2*n {
			t.Fatalf("%+v: ablated run unbalanced (safety net failed)", opt)
		}
	}
	// The long-path phase fires on deep-DFS grids; disabling it must change
	// the phase.
	if full.Phase == PhaseLongPath {
		sep, err := FindWithOptions(cfg, Options{DisableLongPath: true})
		if err != nil {
			t.Fatal(err)
		}
		if sep.Phase == PhaseLongPath {
			t.Fatal("DisableLongPath did not disable the long-path phase")
		}
	}
}

// findRegion is ForSubset with Find on the subset's region of the
// instance's outer face, as ForPartition and Decompose root each part.
func findRegion(in *gen.Instance, vs []int) (*Separator, error) {
	dart, err := in.Emb.OuterRegionDart(vs, in.OuterDart)
	if err != nil {
		return nil, err
	}
	ws := NewWorkspace(in.Emb)
	if err := ws.Split([][]int{vs}); err != nil {
		return nil, err
	}
	return ForSubset(ws, 0, dart, Find)
}

// induced returns the subgraph of g induced by vs, in its own storage.
func induced(t *testing.T, g *graph.Graph, vs []int) *graph.Graph {
	t.Helper()
	ind := graph.NewInducer(g)
	if err := ind.Split([][]int{vs}); err != nil {
		t.Fatal(err)
	}
	return ind.Induce(0)
}
