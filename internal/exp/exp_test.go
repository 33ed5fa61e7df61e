package exp

import (
	"slices"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
)

var smallFamilies = []string{"grid", "stacked", "sparse"}

func TestE1SmallSweep(t *testing.T) {
	rows, err := E1(smallFamilies, []int{36, 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PaperRounds <= 0 || r.PipelinedRounds <= 0 || r.SepLen == 0 {
			t.Fatalf("bad row %+v", r)
		}
		if r.NormPaper <= 0 {
			t.Fatalf("bad normalization %+v", r)
		}
	}
	// The normalized paper rounds must be flat across sizes within a
	// family (the Õ(D) shape).
	for i := 0; i+1 < len(rows); i += 2 {
		a, b := rows[i].NormPaper, rows[i+1].NormPaper
		if a/b > 1.5 || b/a > 1.5 {
			t.Fatalf("normalized rounds not flat: %v vs %v", a, b)
		}
	}
}

// TestExperimentRoundsAreTheRunsRounds checks that E1 and E2 report the
// rounds their runs charge, priced at the depth of the run's own BFS tree.
// Every E1 row's paper figure is the clock of the traced Theorem 1 engine
// call on the same instance; every E2 row's is the DFSRounds of a traced
// pipeline run on the same instance and the rounds its dfs.build span
// covers.
func TestExperimentRoundsAreTheRunsRounds(t *testing.T) {
	sizes := []int{36, 100}
	e1, err := E1(smallFamilies, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := E2(smallFamilies, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, fam := range smallFamilies {
		for _, n := range sizes {
			rec := trace.NewRecorder()
			if _, err := TraceSeparator(fam, n, 1, rec); err != nil {
				t.Fatal(err)
			}
			if got := e1[i].PaperRounds; int64(got) != rec.Now() {
				t.Errorf("E1 %s n=%d: paper rounds %d, the traced engine call charged %d", fam, n, got, rec.Now())
			}

			rec = trace.NewRecorder()
			in, res, err := certified(pipeline.Run, fam, n, 1, rec)
			if err != nil {
				t.Fatal(err)
			}
			spans := rec.Spans()
			b := slices.IndexFunc(spans, func(sp trace.SpanEvent) bool { return sp.Name == "dfs.build" })
			if b < 0 {
				t.Fatalf("%s: the traced run recorded no dfs.build span", in.Name)
			}
			got, covered := e2[i].PaperRounds, spans[b].End-spans[b].Start
			if got != res.DFSRounds || int64(got) != covered {
				t.Errorf("E2 %s n=%d: paper rounds %d, the traced run's DFSRounds %d, its dfs.build span %d",
					fam, n, got, res.DFSRounds, covered)
			}
			i++
		}
	}
}

func TestE3AllBalanced(t *testing.T) {
	rows, err := E3(smallFamilies, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Balanced != r.Trials {
			t.Fatalf("%s: %d of %d balanced", r.Family, r.Balanced, r.Trials)
		}
		if r.Exhaustive != 0 {
			t.Fatalf("%s: exhaustive fallback used %d times", r.Family, r.Exhaustive)
		}
		if r.WorstRatio > 2.0/3.0+1e-9 {
			t.Fatalf("%s: worst ratio %v", r.Family, r.WorstRatio)
		}
	}
}

func TestE4AllExact(t *testing.T) {
	rows, err := E4(smallFamilies, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Edges == 0 && r.Family != "tree" {
			t.Fatalf("%s: no edges checked", r.Family)
		}
		if r.Exact != r.Edges {
			t.Fatalf("%s: %d of %d exact", r.Family, r.Exact, r.Edges)
		}
	}
}

func TestE2SmallSweep(t *testing.T) {
	rows, err := E2([]string{"grid", "stacked"}, []int{49, 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AwerbuchMeasured > r.AwerbuchTheory+1 {
			t.Fatalf("%s n=%d: Awerbuch %d > bound %d", r.Family, r.N, r.AwerbuchMeasured, r.AwerbuchTheory)
		}
		if r.Phases == 0 || r.PaperRounds <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestE5E6Sublinear(t *testing.T) {
	rows5, err := E5([]string{"grid", "stacked"}, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows5 {
		if r.Phases > r.LogBound+2 {
			t.Fatalf("E5 %s: %d phases, bound %d (depth %d)", r.Family, r.Phases, r.LogBound, r.TreeDepth)
		}
	}
	rows6, err := E6([]string{"grid", "stacked"}, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows6 {
		if r.Iterations > 2*r.LogSquared {
			t.Fatalf("E6 %s: %d iterations, log^2 = %d", r.Family, r.Iterations, r.LogSquared)
		}
		if r.PathLen < 20 {
			t.Fatalf("E6 %s: deep tree expected, path %d", r.Family, r.PathLen)
		}
	}
}

func TestE7E9(t *testing.T) {
	rows7, err := E7([]string{"grid"}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows7[0].MaxJoin > 4*rows7[0].LogBound {
		t.Fatalf("E7: max join sub-phases %d vs log bound %d", rows7[0].MaxJoin, rows7[0].LogBound)
	}
	rows9, err := E9([]string{"grid", "stacked"}, 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows9 {
		if r.MaxShrink > 0.67+0.05 {
			t.Fatalf("E9 %s: shrink %v", r.Family, r.MaxShrink)
		}
	}
}

func TestE8PartitionedAggregation(t *testing.T) {
	rows, err := E8("grid", 100, []int{1, 5, 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, r := range rows {
		if r.MeasuredRounds <= 0 || r.MaxDilation <= 0 {
			t.Fatalf("bad row %+v", r)
		}
		// Measured rounds grow with k and stay below the pipelined
		// estimate's shape with slack.
		if r.MeasuredRounds < prev {
			// Rounds need not be strictly monotone but should not collapse.
			if prev-r.MeasuredRounds > r.D {
				t.Fatalf("rounds collapsed: %+v", rows)
			}
		}
		if r.MeasuredRounds > 3*r.PipelinedEst+20 {
			t.Fatalf("measured %d far above pipelined estimate %d", r.MeasuredRounds, r.PipelinedEst)
		}
		prev = r.MeasuredRounds
	}
}

func TestE10RandBaseline(t *testing.T) {
	rows, err := E10("stacked", 60, []float64{0.1, 1.0}, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DetOK != r.Trials {
			t.Fatalf("deterministic failed: %+v", r)
		}
	}
	if rows[0].RandOK > rows[1].RandOK {
		t.Fatalf("randomized success did not improve with samples: %+v", rows)
	}
}

func TestE11E12(t *testing.T) {
	rows11, err := E11([]string{"grid", "stacked"}, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows11 {
		if r.Rounds > r.Bound+1 {
			t.Fatalf("E11 %s: rounds %d > bound %d", r.Family, r.Rounds, r.Bound)
		}
	}
	rows12, err := E12([]string{"grid", "stacked", "polygon"}, 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows12 {
		if r.CycleBalance > 2.0/3.0+1e-9 {
			t.Fatalf("E12 %s: cycle balance %v", r.Family, r.CycleBalance)
		}
		if r.LevelBalance > 0.5+1e-9 {
			t.Fatalf("E12 %s: level balance %v", r.Family, r.LevelBalance)
		}
	}
}

func TestDFSSegmentsConnected(t *testing.T) {
	in, err := genGridForTest()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := bfsTreeForTest(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 7} {
		partOf := dfsSegments(tr, k)
		part, err := shortcut.NewPartition(partOf)
		if err != nil {
			t.Fatal(err)
		}
		if err := part.Validate(in.G); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func genGridForTest() (*gen.Instance, error) { return gen.Grid(8, 8) }

func bfsTreeForTest(in *gen.Instance) (*spanning.Tree, error) {
	return spanning.BFSTree(in.G, 0)
}

func TestE13FullIsClean(t *testing.T) {
	rows, err := E13([]string{"grid", "sparse"}, 48, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ablation == "full" {
			if r.Exhaustive != 0 || r.Unbalanced != 0 || r.Errors != 0 {
				t.Fatalf("full algorithm not clean: %+v", r)
			}
		}
		// Even ablations must stay balanced thanks to the safety net; they
		// may lean on it (Exhaustive > 0).
		if r.Unbalanced != 0 {
			t.Logf("note: ablation %s produced %d unbalanced results", r.Ablation, r.Unbalanced)
		}
	}
}
