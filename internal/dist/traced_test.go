package dist

import (
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
	"planardfs/internal/weights"
)

// TestTracedLemmaWrappers drives every traced lemma variant on one fixture
// and checks the recorded spans: matching outputs with the plain variants,
// one lemma-layer span per call carrying both charged_rounds and
// budget_rounds, and a clock that only moves when a meter is attached.
func TestTracedLemmaWrappers(t *testing.T) {
	in, err := gen.SparsePlanar(60, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	root := in.Emb.FaceRoot(in.OuterDart)
	tr, err := spanning.DeepDFSTree(in.G, root)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := weights.NewConfig(in.G, in.Emb, in.OuterDart, tr)
	if err != nil {
		t.Fatal(err)
	}
	partOf := make([]int, in.G.N())
	part, err := shortcut.NewPartition(partOf)
	if err != nil {
		t.Fatal(err)
	}

	rec := trace.NewRecorder()
	m := NewMeter(rec, shortcut.PaperCost{D: tr.MaxDepth(), N: in.G.N()}, 1)

	order := make([][]int, tr.N())
	for v := 0; v < tr.N(); v++ {
		order[v] = cfg.ChildOrder(v)
	}
	ord := DFSOrderDistributedTraced(tr, order, m)
	plain := DFSOrderDistributed(tr, order)
	for v := range ord.PiL {
		if ord.PiL[v] != plain.PiL[v] {
			t.Fatal("traced DFS order differs from plain")
		}
	}
	u, v := 5, 37
	if _, err := LCADistributedTraced(cfg, u, v, m); err != nil {
		t.Fatal(err)
	}
	MarkPathDistributedTraced(tr, u, v, m)
	if _, err := ReRootDistributedTraced(tr, u, m); err != nil {
		t.Fatal(err)
	}
	if _, err := SpanningForestDistributedTraced(in.G, part, m); err != nil {
		t.Fatal(err)
	}

	if rec.Now() == 0 {
		t.Fatal("round clock did not advance")
	}
	lemmaSpans := 0
	for _, sp := range rec.Spans() {
		if sp.Layer != trace.LayerLemma {
			continue
		}
		lemmaSpans++
		var charged, budget bool
		for _, a := range sp.Attrs {
			switch a.Key {
			case "charged_rounds":
				charged = a.Val > 0
			case "budget_rounds":
				budget = a.Val > 0
			}
		}
		if !charged || !budget {
			t.Fatalf("span %q missing charged/budget rounds: %+v", sp.Name, sp.Attrs)
		}
	}
	if lemmaSpans != 5 {
		t.Fatalf("lemma spans = %d, want 5", lemmaSpans)
	}

	// A nil meter is valid and records nothing.
	before := len(rec.Spans())
	var off *Meter
	DFSOrderDistributedTraced(tr, order, off)
	if n := len(rec.Spans()); n != before {
		t.Fatalf("nil meter recorded spans: %d -> %d", before, n)
	}
}
