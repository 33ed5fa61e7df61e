package planardfs

// The benchmark harness: one benchmark per experiment of EXPERIMENTS.md
// (E1-E12). Each benchmark regenerates the corresponding table rows via
// internal/exp and reports the experiment's headline quantities as
// benchmark metrics, so `go test -bench=. -benchmem` reproduces the whole
// evaluation. The cmd/sepbench and cmd/dfsbench tools print the same rows
// as human-readable tables.

import (
	"context"
	"slices"
	"testing"

	"planardfs/internal/congest"
	"planardfs/internal/exp"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
)

// benchSizes is the default sweep; benchmarks use the largest feasible
// point per family and report normalized quantities.
var benchSizes = []int{256, 1024, 4096}

func BenchmarkE1SeparatorRounds(b *testing.B) {
	for _, fam := range []string{"grid", "stacked", "sparse"} {
		b.Run(fam, func(b *testing.B) {
			var rows []exp.E1Row
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = exp.E1([]string{fam}, benchSizes, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			last := rows[len(rows)-1]
			// The row reports the rounds an instrumented engine call on
			// the same instance charges.
			rec := trace.NewRecorder()
			if _, err := exp.TraceSeparator(fam, benchSizes[len(benchSizes)-1], 1, rec); err != nil {
				b.Fatal(err)
			}
			if rec.Now() != int64(last.PaperRounds) {
				b.Fatalf("E1 reports %d paper rounds, the traced call charged %d", last.PaperRounds, rec.Now())
			}
			b.ReportMetric(float64(last.PaperRounds), "paper-rounds")
			b.ReportMetric(float64(last.PipelinedRounds), "pipelined-rounds")
			b.ReportMetric(last.NormPaper, "rounds/Dlog4")
			b.ReportMetric(float64(last.SepLen), "sep-len")
			b.ReportMetric(float64(rec.Counter("ops.pa")), "traced-pa-ops")
		})
	}
}

func BenchmarkE2DFSRounds(b *testing.B) {
	for _, fam := range []string{"grid", "stacked"} {
		b.Run(fam, func(b *testing.B) {
			var rows []exp.E2Row
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = exp.E2([]string{fam}, []int{256, 1024}, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			last := rows[len(rows)-1]
			// The row reports the rounds the dfs stage of an instrumented
			// pipeline run on the same instance charges.
			rec := trace.NewRecorder()
			sum, err := exp.TraceDFS(fam, 1024, 1, rec)
			if err != nil {
				b.Fatal(err)
			}
			spans := rec.Spans()
			i := slices.IndexFunc(spans, func(sp TraceSpan) bool { return sp.Name == "dfs.build" })
			if i < 0 {
				b.Fatal("the traced run recorded no dfs.build span")
			}
			if covered := spans[i].End - spans[i].Start; sum.Result.DFSRounds != last.PaperRounds || covered != int64(last.PaperRounds) {
				b.Fatalf("E2 reports %d paper rounds, the traced run's DFSRounds %d, its dfs.build span %d",
					last.PaperRounds, sum.Result.DFSRounds, covered)
			}
			b.ReportMetric(float64(last.PaperRounds), "paper-rounds")
			b.ReportMetric(float64(last.PipelinedRounds), "pipelined-rounds")
			b.ReportMetric(float64(last.AwerbuchMeasured), "awerbuch-rounds")
			b.ReportMetric(float64(last.Phases), "phases")
		})
	}
}

func BenchmarkE2Awerbuch(b *testing.B) {
	in, err := NewStackedTriangulation(4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rounds int
	for i := 0; i < b.N; i++ {
		_, stats, err := RunAwerbuchDFS(in.G, 0)
		if err != nil {
			b.Fatal(err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(AwerbuchRounds(in.G.N())), "bound")
}

func BenchmarkE3SeparatorQuality(b *testing.B) {
	var rows []exp.E3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.E3([]string{"stacked", "sparse", "polygon"}, 300, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	balanced, trials, exhaustive := 0, 0, 0
	worst := 0.0
	for _, r := range rows {
		balanced += r.Balanced
		trials += r.Trials
		exhaustive += r.Exhaustive
		if r.WorstRatio > worst {
			worst = r.WorstRatio
		}
	}
	if balanced != trials || exhaustive != 0 {
		b.Fatalf("E3 violation: %d/%d balanced, %d exhaustive", balanced, trials, exhaustive)
	}
	b.ReportMetric(float64(balanced)/float64(trials)*100, "balanced-%")
	b.ReportMetric(worst, "worst-ratio")
}

func BenchmarkE4WeightExactness(b *testing.B) {
	var rows []exp.E4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.E4([]string{"stacked", "sparse"}, 40, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	edges, exact := 0, 0
	for _, r := range rows {
		edges += r.Edges
		exact += r.Exact
	}
	if edges != exact {
		b.Fatalf("E4 violation: %d of %d exact", exact, edges)
	}
	b.ReportMetric(float64(edges), "edges-verified")
}

func BenchmarkE5DFSOrder(b *testing.B) {
	var rows []exp.E5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.E5([]string{"grid", "stacked"}, 4096, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Phases), "phases")
	b.ReportMetric(float64(rows[0].TreeDepth), "tree-depth")
	b.ReportMetric(float64(rows[0].LogBound), "log-bound")
}

func BenchmarkE6MarkPath(b *testing.B) {
	var rows []exp.E6Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.E6([]string{"grid", "stacked"}, 4096, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Iterations), "iterations")
	b.ReportMetric(float64(rows[0].PathLen), "path-len")
	b.ReportMetric(float64(rows[0].LogSquared), "log2n-squared")
}

func BenchmarkE7JoinPhases(b *testing.B) {
	var rows []exp.E7Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.E7([]string{"grid", "stacked"}, 1024, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	maxJoin := 0
	for _, r := range rows {
		if r.MaxJoin > maxJoin {
			maxJoin = r.MaxJoin
		}
	}
	b.ReportMetric(float64(maxJoin), "max-join-subphases")
	b.ReportMetric(float64(rows[0].LogBound), "log-bound")
}

func BenchmarkE8PartwiseAggregation(b *testing.B) {
	var rows []exp.E8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.E8("grid", 1024, []int{1, 16, 128}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.MeasuredRounds), "measured-rounds")
	b.ReportMetric(float64(last.PipelinedEst), "pipelined-est")
	b.ReportMetric(float64(last.MaxCongestion), "max-congestion")
	b.ReportMetric(float64(last.MaxDilation), "max-dilation")
	// Metrics registry of an instrumented message-level PA run.
	in, err := NewGrid(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	partOf := make([]int, in.G.N())
	value := make([]int, in.G.N())
	for v := range partOf {
		partOf[v] = v % 16
		value[v] = 1
	}
	part, err := shortcut.NewPartition(partOf)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := spanning.BFSTree(in.G, 0)
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder()
	nw := congest.New(in.G)
	nw.Tracer = rec
	if _, err := shortcut.RunPAOn(nw, tree, part, value, congest.OpSum); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rec.Counter("congest.rounds")), "traced-pa-rounds")
	b.ReportMetric(float64(rec.Gauge("congest.max_edge_congestion")), "traced-max-congestion")
}

func BenchmarkE9RecursionDepth(b *testing.B) {
	var rows []exp.E9Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.E9([]string{"stacked"}, 2048, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Phases), "phases")
	b.ReportMetric(rows[0].MaxShrink, "max-shrink")
}

func BenchmarkE10DetVsRand(b *testing.B) {
	var rows []exp.E10Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.E10("stacked", 200, []float64{0.05, 0.5}, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].RandOK)/float64(rows[0].Trials)*100, "rand-ok-%-lowrate")
	b.ReportMetric(float64(rows[1].RandOK)/float64(rows[1].Trials)*100, "rand-ok-%-highrate")
	b.ReportMetric(float64(rows[0].DetOK)/float64(rows[0].Trials)*100, "det-ok-%")
}

func BenchmarkE11AwerbuchMessageLevel(b *testing.B) {
	var rows []exp.E11Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.E11([]string{"grid", "stacked"}, 2048, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Rounds), "rounds")
	b.ReportMetric(float64(rows[0].Bound), "bound")
}

func BenchmarkE12SeparatorSize(b *testing.B) {
	var rows []exp.E12Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.E12([]string{"grid", "stacked", "polygon"}, 4096, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].CycleSepLen), "grid-cycle-len")
	b.ReportMetric(float64(rows[0].LevelSepLen), "grid-level-len")
}

// BenchmarkCoreSeparator measures one validated Theorem 1 separator call
// (micro-benchmark, not an experiment).
func BenchmarkCoreSeparator(b *testing.B) {
	in, err := NewStackedTriangulation(4096, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := NewConfig(in, TreeBFS, OuterRoot(in))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindCycleSeparator(cfg, "", SeparatorEngineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreDFSBuild measures one certified Theorem 2 build (Run).
func BenchmarkCoreDFSBuild(b *testing.B) {
	in, err := NewStackedTriangulation(2048, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), in, PipelineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13Ablation runs the design-element ablation study: the full
// algorithm must never use the exhaustive safety net; each ablation shows
// how often the removed element would have been needed.
func BenchmarkE13Ablation(b *testing.B) {
	var rows []exp.E13Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.E13([]string{"grid", "cylinderish", "stacked", "sparse"}, 128, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Ablation == "full" && (r.Exhaustive != 0 || r.Unbalanced != 0) {
			b.Fatalf("full algorithm not clean: %+v", r)
		}
	}
	b.ReportMetric(float64(rows[0].Exhaustive), "full-exhaustive")
	for _, r := range rows[1:] {
		b.ReportMetric(float64(r.Exhaustive+r.Unbalanced+r.Errors),
			r.Ablation+"-failures")
	}
}
