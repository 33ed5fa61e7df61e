package exp

import (
	"slices"

	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/sepengine"
	"planardfs/internal/trace"
)

// TraceSummary reports one fully instrumented run (TraceDFS).
type TraceSummary struct {
	Family string
	N, M   int
	// Rounds is the final value of the virtual round clock: charged rounds
	// of the pipeline run plus the simulated rounds of the baseline.
	Rounds int64
	Spans  int
	// Layers lists the distinct trace layers present in the span tree.
	Layers []string
	// Result is the account of the traced Theorem 2 pipeline run.
	Result *pipeline.Result
	// Awerbuch is the network instrumentation of the message-level baseline.
	Awerbuch congest.Stats
}

// TraceSeparator records on rec one Theorem 1 engine call on the BFS-tree
// configuration of a generated instance, rooted on the outer face: the
// engine's charge, which advances the round clock by the returned
// Result.Rounds.
func TraceSeparator(family string, n int, seed int64, rec *trace.Recorder) (*sepengine.Result, error) {
	in, err := gen.ByName(family, n, seed)
	if err != nil {
		return nil, err
	}
	cfg, err := pipeline.NewConfig(in, pipeline.TreeBFS, in.Emb.FaceRoot(in.OuterDart))
	if err != nil {
		return nil, err
	}
	return sepengine.Find("", cfg, sepengine.Options{Tracer: rec})
}

// TraceDFS records on rec one certified Theorem 2 pipeline run of a
// generated instance (chaos, cert, DFS, separator, lemma and primitive
// spans, stamped by the charged round clock), then the message-level
// Awerbuch baseline over the same recorder (network-layer spans, one
// simulated round each). Same inputs produce a byte-identical trace: the
// recorder never reads wall-clock time.
func TraceDFS(family string, n int, seed int64, rec *trace.Recorder) (*TraceSummary, error) {
	in, res, err := certified(pipeline.Run, family, n, seed, rec)
	if err != nil {
		return nil, err
	}

	// The Awerbuch baseline as a real message-level CONGEST program on the
	// same round clock, for side-by-side comparison in the trace viewer.
	bsp := rec.StartSpan(trace.LayerNetwork, "baseline.awerbuch")
	nw := congest.New(in.G)
	nw.Tracer = rec
	if _, _, err := congest.RunAwerbuch(nw, res.Root, 10*in.G.N()+100); err != nil {
		return nil, err
	}
	bsp.SetAttr("rounds", int64(nw.Stats().Rounds))
	bsp.End()

	spans := rec.Spans()
	var layers []string
	for l := trace.LayerNetwork; l <= trace.LayerChaos; l++ {
		if slices.ContainsFunc(spans, func(sp trace.SpanEvent) bool { return sp.Layer == l }) {
			layers = append(layers, l.String())
		}
	}
	return &TraceSummary{
		Family: in.Name, N: in.G.N(), M: in.G.M(),
		Rounds: rec.Now(), Spans: len(spans), Layers: layers,
		Result: res, Awerbuch: nw.Stats(),
	}, nil
}
