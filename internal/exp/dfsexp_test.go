package exp

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/trace"
)

// TestDFSExperimentRows pins the E2, E7 and E9 rows on grid and stacked
// at n ≤ 256. They were recorded when the Lemma 2 JOIN began walking the
// separator path, and E2's D and round figures again when E2 began
// reporting the rounds the run charged, at its BFS tree's depth; any
// change in the DFS build or its round account moves a number of their
// tables.
func TestDFSExperimentRows(t *testing.T) {
	fams := []string{"grid", "stacked"}
	e2, err := E2(fams, []int{64, 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantE2 := []E2Row{
		{Family: "grid", N: 64, D: 13, Phases: 4, MaxJoinSubPhases: 2, PaperRounds: 1221424, PipelinedRounds: 57304, AwerbuchTheory: 127, AwerbuchMeasured: 127, NormPaper: 5.19096634905524},
		{Family: "grid", N: 256, D: 29, Phases: 6, MaxJoinSubPhases: 1, PaperRounds: 7130106, PipelinedRounds: 188262, AwerbuchTheory: 511, AwerbuchMeasured: 511, NormPaper: 4.024965706447188},
		{Family: "stacked", N: 64, D: 3, Phases: 4, MaxJoinSubPhases: 2, PaperRounds: 349224, PipelinedRounds: 21704, AwerbuchTheory: 127, AwerbuchMeasured: 127, NormPaper: 5.194621288748736},
		{Family: "stacked", N: 256, D: 4, Phases: 6, MaxJoinSubPhases: 2, PaperRounds: 1543698, PipelinedRounds: 53988, AwerbuchTheory: 511, AwerbuchMeasured: 511, NormPaper: 5.228532235939643},
	}
	if !reflect.DeepEqual(e2, wantE2) {
		t.Errorf("E2 rows\n got %+v\nwant %+v", e2, wantE2)
	}

	e7, err := E7(fams, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantE7 := []E7Row{
		{Family: "grid", N: 256, Phases: 6, JoinSubPhases: 15, MaxJoin: 1, LogBound: 9},
		{Family: "stacked", N: 256, Phases: 6, JoinSubPhases: 142, MaxJoin: 2, LogBound: 9},
	}
	if !reflect.DeepEqual(e7, wantE7) {
		t.Errorf("E7 rows\n got %+v\nwant %+v", e7, wantE7)
	}

	e9, err := E9(fams, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantE9 := []E9Row{
		{Family: "grid", N: 256, Phases: 6, MaxShrink: 0.5158730158730159, MaxComponent: []int{255, 126, 65, 33, 12, 2}},
		{Family: "stacked", N: 256, Phases: 6, MaxShrink: 0.44313725490196076, MaxComponent: []int{255, 113, 23, 9, 3, 1}},
	}
	if !reflect.DeepEqual(e9, wantE9) {
		t.Errorf("E9 rows\n got %+v\nwant %+v", e9, wantE9)
	}
}

// TestTraceDFSIsThePipeline checks that the traced run is the pipeline run
// users get: its trace is byte-stable, it carries the cert and chaos
// layers of the certified dfs stage, and its DFS trace and tree equal an
// untraced pipeline.Run on the same instance.
func TestTraceDFSIsThePipeline(t *testing.T) {
	const family, n, seed = "grid", 100, 3
	var jsonl [2][]byte
	var sum *TraceSummary
	for i := range jsonl {
		rec := trace.NewRecorder()
		s, err := TraceDFS(family, n, seed, rec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		jsonl[i], sum = buf.Bytes(), s
	}
	if !bytes.Equal(jsonl[0], jsonl[1]) {
		t.Fatal("two traced runs of the same instance wrote different JSONL")
	}
	for _, l := range []string{"network", "primitive", "lemma", "separator", "dfs", "cert", "chaos"} {
		if !slices.Contains(sum.Layers, l) {
			t.Errorf("layers %v lack %q", sum.Layers, l)
		}
	}

	in, err := gen.ByName(family, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(context.Background(), in, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum.Result.DFSTrace, res.DFSTrace) {
		t.Errorf("traced DFS trace %+v, untraced %+v", sum.Result.DFSTrace, res.DFSTrace)
	}
	if !reflect.DeepEqual(sum.Result.Parent, res.Parent) {
		t.Error("traced and untraced pipeline runs built different DFS trees")
	}
}
