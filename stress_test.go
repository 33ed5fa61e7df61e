package planardfs

// Integration stress tests: the full pipeline (generation → configuration →
// separator → DFS) across all families, with invariants checked end to end.
// The light sizes always run; the heaviest sizes are gated behind
// testing.Short() so `go test -short ./...` stays fast.

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/separator"
	"planardfs/internal/spanning"
)

func TestStressSeparatorAllFamilies(t *testing.T) {
	sizes := []int{200}
	if !testing.Short() {
		sizes = append(sizes, 800)
	}
	for _, fam := range gen.Families {
		for _, n := range sizes {
			in, err := gen.ByName(fam, n, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []TreeKind{TreeBFS, TreeDeepDFS} {
				cfg, err := NewConfig(in, kind, OuterRoot(in))
				if err != nil {
					t.Fatalf("%s/%v: %v", in.Name, kind, err)
				}
				res, err := FindCycleSeparator(cfg, "", SeparatorEngineOptions{})
				if err != nil {
					t.Fatalf("%s/%v: %v", in.Name, kind, err)
				}
				sep := res.Sep
				nn := in.G.N()
				if maxC := VerifySeparatorBalance(in.G, sep.Path); 3*maxC > 2*nn {
					t.Fatalf("%s/%v: unbalanced (%d of %d, phase %v)",
						in.Name, kind, maxC, nn, sep.Phase)
				}
			}
		}
	}
}

func TestStressDFSAllFamilies(t *testing.T) {
	n := 150
	if !testing.Short() {
		n = 400
	}
	for _, fam := range gen.Families {
		in, err := gen.ByName(fam, n, 9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), in, PipelineOptions{})
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if err := VerifyDFSTree(in.G, OuterRoot(in), res.Parent); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if res.DFSTrace.Phases > 40 {
			t.Fatalf("%s: %d phases", in.Name, res.DFSTrace.Phases)
		}
	}
}

func TestStressPartitionedSeparators(t *testing.T) {
	in, err := NewGrid(24, 18)
	if err != nil {
		t.Fatal(err)
	}
	// A 4x3 tiling of connected blocks.
	partOf := make([]int, in.G.N())
	for y := 0; y < 18; y++ {
		for x := 0; x < 24; x++ {
			partOf[y*24+x] = (y/6)*4 + x/6
		}
	}
	part, err := NewPartition(partOf)
	if err != nil {
		t.Fatal(err)
	}
	results, err := SeparatorsForPartition(in, part)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Fatalf("parts = %d", len(results))
	}
	for p, sep := range results {
		orig := part.Parts[p]
		ind := graph.NewInducer(in.G)
		if err := ind.Split([][]int{orig}); err != nil {
			t.Fatal(err)
		}
		sub := ind.Induce(0)
		idx := map[int]int{}
		for i, v := range orig {
			idx[v] = i
		}
		local := make([]int, len(sep.Path))
		for i, v := range sep.Path {
			local[i] = idx[v]
		}
		if maxC := VerifySeparatorBalance(sub, local); 3*maxC > 2*len(orig) {
			t.Fatalf("part %d unbalanced", p)
		}
	}
}

// TestRegionSeparatorsMatchRawFind checks, on every generator family, that
// the facade's region entries return the raw Theorem 1 separator of each
// region: every SeparatorsForPartition and DecomposeGraph separator equals
// separator.ForSubset with separator.Find on the same part or piece, so
// running them through the validating engine changes no output. The
// partition cuts a BFS tree below its root: the root alone, then one part
// per subtree of a root child.
func TestRegionSeparatorsMatchRawFind(t *testing.T) {
	for _, family := range gen.Families {
		in, err := gen.ByName(family, 150, 7)
		if err != nil {
			t.Fatal(err)
		}
		ws := separator.NewWorkspace(in.Emb)
		raw := func(vs []int) *Separator {
			t.Helper()
			dart, err := in.Emb.OuterRegionDart(vs, in.OuterDart)
			if err != nil {
				t.Fatal(err)
			}
			if err := ws.Split([][]int{vs}); err != nil {
				t.Fatal(err)
			}
			sep, err := separator.ForSubset(ws, 0, dart, separator.Find)
			if err != nil {
				t.Fatal(err)
			}
			return sep
		}

		tree, err := spanning.BFSTree(in.G, OuterRoot(in))
		if err != nil {
			t.Fatal(err)
		}
		partOf := make([]int, in.G.N())
		for i, c := range tree.Children(tree.Root) {
			partOf[c] = i + 1
		}
		for v := range partOf {
			if v != tree.Root {
				partOf[v] = partOf[tree.Ancestor(v, tree.Depth[v]-1)]
			}
		}
		part, err := NewPartition(partOf)
		if err != nil {
			t.Fatal(err)
		}
		seps, err := SeparatorsForPartition(in, part)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		for i, sep := range seps {
			if want := raw(part.Parts[i]); !reflect.DeepEqual(sep, want) {
				t.Fatalf("%s: part %d: separator %+v, raw Find %+v", family, i, sep, want)
			}
		}

		d, err := DecomposeGraph(in, 4)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		d.Walk(func(node *DecompositionNode) {
			if node.Separator == nil {
				return
			}
			if want := raw(node.Vertices); !slices.Equal(node.Separator, want.Path) || node.Phase != want.Phase {
				t.Fatalf("%s: depth %d piece: separator %v (%v), raw Find %v (%v)", family, node.Depth, node.Separator, node.Phase, want.Path, want.Phase)
			}
		})
	}
}

// TestStressDeterminism runs the separator and DFS twice and demands
// identical outputs (the paper's algorithms are deterministic; so must the
// implementation be, including its map usage).
func TestStressDeterminism(t *testing.T) {
	n := 200
	if !testing.Short() {
		n = 600
	}
	in, err := NewStackedTriangulation(n, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewConfig(in, TreeBFS, OuterRoot(in))
	if err != nil {
		t.Fatal(err)
	}
	a, err := FindCycleSeparator(cfg, "", SeparatorEngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindCycleSeparator(cfg, "", SeparatorEngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sep.Phase != b.Sep.Phase || !slices.Equal(a.Sep.Path, b.Sep.Path) {
		t.Fatal("separator nondeterministic")
	}
	t1, err := Run(context.Background(), in, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Run(context.Background(), in, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(t1.Parent, t2.Parent) {
		t.Fatal("DFS tree nondeterministic")
	}
}

// TestStressTracedDeterminism locks the tracing subsystem's reproducibility
// contract at the facade level: two same-input traced pipeline runs must
// export byte-identical JSONL and Chrome trace files, and tracing must not
// change the constructed tree.
func TestStressTracedDeterminism(t *testing.T) {
	n := 150
	if !testing.Short() {
		n = 400
	}
	in, err := NewStackedTriangulation(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(context.Background(), in, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*TraceRecorder, []int) {
		rec := NewTraceRecorder()
		res, err := Run(context.Background(), in, PipelineOptions{Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		return rec, res.Parent
	}
	rec1, parent1 := run()
	rec2, _ := run()
	if !slices.Equal(plain.Parent, parent1) {
		t.Fatal("tracing changed the DFS tree")
	}
	var j1, j2, c1, c2 bytes.Buffer
	if err := rec1.WriteJSONL(&j1); err != nil {
		t.Fatal(err)
	}
	if err := rec2.WriteJSONL(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSONL exports differ between same-input runs")
	}
	if err := rec1.WriteChromeTrace(&c1); err != nil {
		t.Fatal(err)
	}
	if err := rec2.WriteChromeTrace(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("Chrome exports differ between same-input runs")
	}
	if len(rec1.Spans()) == 0 {
		t.Fatal("trace is empty")
	}
}
