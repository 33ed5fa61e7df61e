package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/dfs"
	"planardfs/internal/dist"
	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/separator"
	"planardfs/internal/sepengine"
	"planardfs/internal/serve"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
	"planardfs/internal/weights"
)

// rootSpan names the span enclosing one replayed op; its direct children
// are the top-level layer spans that replay.coverage sums.
const rootSpan = "op"

// span is one benchmark-owned timing span. Times are nanoseconds since the
// log was created; Op groups the spans of one replayed op (-1 for set-up).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the heap allocated while the span was open (bytes), or -1
	// when the span did not measure it.
	Alloc int64 `json:"alloc_bytes"`
}

// spanLog keeps the spans in memory until the run writes them out.
type spanLog struct {
	base   time.Time
	rt     *rtReader
	spans  []span
	alloc0 []uint64 // per span: heap allocation counter at begin
}

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), rt: newRTReader()}
}

// begin opens a span; withAlloc also records the heap allocated inside it.
// A nil log records nothing.
func (l *spanLog) begin(op, parent int, name string, withAlloc bool) int {
	if l == nil {
		return -1
	}
	id := len(l.spans)
	var a0 uint64
	alloc := int64(-1)
	if withAlloc {
		a0 = l.rt.allocBytes()
		alloc = 0
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(l.base)), Alloc: alloc})
	l.alloc0 = append(l.alloc0, a0)
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	s := &l.spans[id]
	s.End = int64(time.Since(l.base))
	if s.Alloc >= 0 {
		s.Alloc = int64(l.rt.allocBytes() - l.alloc0[id])
	}
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayed is what one replayed build reports besides its spans.
type replayed struct {
	hash          string
	rounds        int // charged rounds, computed exactly as serve does
	guardRounds   int
	guardMessages int64
	phases        int
	sepCalls      int
	joinSubPhases int
	attempts      int
	certRounds    int
	traceSpans    int // spans on the job's trace.Recorder
}

// replayBuild runs one cold op's input through each layer's public
// functions in serve's stage order and with serve's options, including a
// fresh trace.Recorder as the job tracer, wrapping every call in a span.
// An inline input takes the decode and guard path; a generator input is
// generated from its coordinate, as a generator job's is. After the op it
// rebuilds the DFS tree untraced once, outside the op's root span, so the
// recorder's cost can be read off.
func replayBuild(ctx context.Context, l *spanLog, op int, x coldInput) (replayed, error) {
	var out replayed
	root := l.begin(op, -1, rootSpan, false)
	layer := func(name string, withAlloc bool) int { return l.begin(op, root, name, withAlloc) }

	var in *gen.Instance
	var err error
	if x.inline {
		sp := layer("gen.decode", false)
		in, err = decodeSubmission(x.body)
		l.end(sp)
		if err != nil {
			return out, err
		}
		sp = layer("guard.validate", true)
		v, err := guard.ValidateInstance(in, guard.Options{Seed: 1})
		l.end(sp)
		if err != nil {
			return out, fmt.Errorf("guard: %w", err)
		}
		if !v.OK {
			return out, fmt.Errorf("guard rejected %s: %v", x.label, v.Err())
		}
		out.guardRounds, out.guardMessages = v.Rounds, v.Messages
	} else {
		sp := layer("gen.generate", false)
		in, err = gen.ByName(x.family, x.n, x.genSeed)
		l.end(sp)
		if err != nil {
			return out, err
		}
	}
	sp := layer("gen.hash", false)
	out.hash = gen.ContentHash(in)
	l.end(sp)

	g, n := in.G, in.G.N()
	rec := trace.NewRecorder()
	sp = layer("planar.faces", false)
	fs := in.Emb.TraceFaces()
	rootV := fs.FaceVertices(in.OuterFace())[0]
	l.end(sp)
	sp = layer("spanning.bfs", false)
	bfs, err := spanning.BFSTree(g, rootV)
	l.end(sp)
	if err != nil {
		return out, err
	}

	opt := cert.Options{Tracer: rec}
	sup := layer("chaos.supervise", false)
	var dfsRounds int
	primary := chaos.Stage[[]int]{
		Name:          "separator-pipeline",
		DefaultBudget: 10*n + 100,
		Run: func(attempt, budget int) ([]int, int, error) {
			d := l.begin(op, sup, "dfs.build", true)
			pt, dtr, err := dfs.BuildWithSeparator(g, in.Emb, in.OuterDart, rootV, rec, timedFind(l, op, d))
			l.end(d)
			if err != nil {
				return nil, 0, err
			}
			out.phases += dtr.Phases
			out.sepCalls += dtr.SeparatorCalls
			out.joinSubPhases += dtr.JoinSubPhases
			parent := append([]int(nil), pt.Parent...)
			cm := shortcut.PaperCost{D: bfs.MaxDepth(), N: n}
			dfsRounds = dist.DFSBuildOps(n, dtr.Phases, dtr.MaxJoinSubPhases).Rounds(cm, 1)
			return parent, dfsRounds, nil
		},
		Certify: func(parent []int) (chaos.Certification, error) {
			c := l.begin(op, sup, "chaos.certify", false)
			defer l.end(c)
			return chaos.DFSCertifier(g, rootV, opt)(parent)
		},
	}
	fallback := chaos.AwerbuchDFS(g, rootV, nil, opt)
	parent, rep, err := chaos.RunWithRecoveryContext(ctx, primary, &fallback, chaos.Policy{Tracer: rec})
	l.end(sup)
	if err != nil {
		return out, err
	}
	out.attempts = len(rep.Attempts)
	if rep.Outcome != chaos.OutcomeCertified {
		return out, fmt.Errorf("DFS stage outcome %s", rep.Outcome)
	}

	sp = layer("spanning.tree_view", false)
	_, err = spanning.NewFromParents(rootV, parent)
	l.end(sp)
	if err != nil {
		return out, err
	}
	sp = layer("weights.config", false)
	cfg, err := weights.NewConfig(in.G, in.Emb, in.OuterDart, bfs)
	l.end(sp)
	if err != nil {
		return out, err
	}
	sp = layer("sepengine.find", false)
	res, err := sepengine.Find("", cfg, sepengine.Options{Tracer: rec})
	l.end(sp)
	if err != nil {
		return out, err
	}

	var verdicts [3]*cert.Verdict
	certify := []struct {
		name string
		run  func() (*cert.Verdict, error)
	}{
		{"cert.spanning", func() (*cert.Verdict, error) { return cert.CertifySpanningTree(g, bfs, opt) }},
		{"cert.dfs", func() (*cert.Verdict, error) { return cert.CertifyDFSTree(g, rootV, parent, opt) }},
		{"cert.separator", func() (*cert.Verdict, error) { return cert.CertifySeparator(g, res.Sep, opt) }},
	}
	for i, c := range certify {
		sp = layer(c.name, true)
		verdicts[i], err = c.run()
		l.end(sp)
		if err != nil {
			return out, err
		}
		if !verdicts[i].OK {
			return out, fmt.Errorf("%s rejected", c.name)
		}
		out.certRounds += verdicts[i].ProverRounds + verdicts[i].VerifierRounds + verdicts[i].AggRounds
	}
	sp = layer("gen.hash", false)
	_ = gen.ContentHash(in) // buildDecomp hashes again for the cached Decomp
	l.end(sp)
	l.end(root)

	out.rounds = dfsRounds + out.certRounds
	out.traceSpans = len(rec.Spans())

	u := l.begin(op, -1, "dfs.untraced", false)
	_, _, err = dfs.BuildWithSeparator(g, in.Emb, in.OuterDart, rootV, nil, separator.Find)
	l.end(u)
	return out, err
}

// decodeSubmission is serve's admission decode: the request body, then
// the wire graph decoded, field-checked and built.
func decodeSubmission(body []byte) (*gen.Instance, error) {
	var req serve.JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	wire, err := gen.DecodeWire(req.Graph)
	if err != nil {
		return nil, err
	}
	if err := wire.Check(); err != nil {
		return nil, err
	}
	return wire.Build()
}

// timedFind wraps separator.Find so every per-component call of the DFS
// build gets its own span under the build span.
func timedFind(l *spanLog, op, parent int) separator.FindFunc {
	return func(cfg *weights.Config) (*separator.Separator, error) {
		s := l.begin(op, parent, "separator.find", false)
		defer l.end(s)
		return separator.Find(cfg)
	}
}
