package exp

import (
	"planardfs/internal/congest"
	"planardfs/internal/dfs"
	"planardfs/internal/gen"
	"planardfs/internal/separator"
	"planardfs/internal/trace"
)

// TraceSummary reports one fully instrumented run (TraceDFS).
type TraceSummary struct {
	Family string
	N, M   int
	// Rounds is the final value of the virtual round clock: charged rounds
	// of the Theorem 2 run plus the simulated rounds of the baseline.
	Rounds int64
	Spans  int
	// Layers lists the distinct trace layers present in the span tree.
	Layers []string
	DFS    *dfs.Trace
	// Awerbuch is the network instrumentation of the message-level baseline.
	Awerbuch congest.Stats
}

// TraceSeparator runs one instrumented Theorem 1 computation (BFS-tree
// configuration) on a generated instance and records it on rec.
func TraceSeparator(family string, n int, seed int64, rec *trace.Recorder) (*separator.Separator, error) {
	in, err := gen.ByName(family, n, seed)
	if err != nil {
		return nil, err
	}
	cfg, err := configFor(in, "bfs")
	if err != nil {
		return nil, err
	}
	cfg.Tracer = rec
	return separator.Find(cfg)
}

// TraceDFS runs the fully instrumented pipeline on one generated instance
// and records it on rec: the Theorem 2 DFS construction (spans on the DFS,
// separator, lemma and primitive layers, stamped by the charged round
// clock), then the message-level Awerbuch baseline over the same recorder
// (network-layer spans, one simulated round each). Same inputs produce a
// byte-identical trace: the recorder never reads wall-clock time.
func TraceDFS(family string, n int, seed int64, rec *trace.Recorder) (*TraceSummary, error) {
	in, err := gen.ByName(family, n, seed)
	if err != nil {
		return nil, err
	}
	root := in.Emb.FaceRoot(in.OuterDart)

	_, dtr, err := dfs.BuildWithSeparator(in.G, in.Emb, in.OuterDart, root, rec, separator.Find)
	if err != nil {
		return nil, err
	}

	// The Awerbuch baseline as a real message-level CONGEST program on the
	// same round clock, for side-by-side comparison in the trace viewer.
	bsp := rec.StartSpan(trace.LayerNetwork, "baseline.awerbuch")
	nw := congest.New(in.G)
	nw.Tracer = rec
	nodes := congest.NewAwerbuchNodes(nw, root)
	if _, err := nw.Run(nodes, 10*in.G.N()+100); err != nil {
		return nil, err
	}
	bsp.SetAttr("rounds", int64(nw.Stats().Rounds))
	bsp.End()

	spans := rec.Spans()
	layerSet := map[string]bool{}
	for _, sp := range spans {
		layerSet[sp.Layer.String()] = true
	}
	var layers []string
	for _, l := range []trace.Layer{
		trace.LayerNetwork, trace.LayerPrimitive, trace.LayerLemma,
		trace.LayerSeparator, trace.LayerDFS,
	} {
		if layerSet[l.String()] {
			layers = append(layers, l.String())
		}
	}
	return &TraceSummary{
		Family: in.Name, N: in.G.N(), M: in.G.M(),
		Rounds: rec.Now(), Spans: len(spans), Layers: layers,
		DFS: dtr, Awerbuch: nw.Stats(),
	}, nil
}
