// Package pipeline is the Theorem 2 pipeline as one ordered stage list:
//
//	admit (guard) → spanning (BFS) → dfs (supervised Theorem 2) → separator → certify
//
// The dfs stage runs the Theorem 2 build as the primary of the chaos
// recovery runtime: the fault plan's structural faults corrupt its output,
// the DFS proof-labeling scheme certifies every attempt, and Awerbuch's
// message-level token DFS is the fallback. Every caller that builds a
// certified decomposition — the planardfs facade, planard, the DFS
// experiments and traced run of internal/exp, the scale tests and the bench
// CLIs — goes through Run, so the stages are wired once.
package pipeline

import (
	"context"
	"errors"
	"fmt"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/dfs"
	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/separator"
	"planardfs/internal/sepengine"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
	"planardfs/internal/weights"
)

// Options configure one run. The zero value runs the paper's defaults: no
// admission guard, the Theorem 1 separator engine, a fault-free supervised
// DFS and no tracing.
//
// A guarded run certifies on the cert.Verifier its admission validated on,
// so one round engine, one BFS tree from vertex 0, one fold program and
// one set of label-exchange programs serve the guard and every
// certification.
type Options struct {
	// Admitted guards the run with an admission that has already run: the
	// verdict of guard.ValidateInstance on this instance, reported as
	// Result.Admission. A rejecting verdict ends the run with its typed
	// rejection before any other stage; an accepting one hands its context
	// to the run (guard.Verdict.TakeVerifier). A verdict whose context was
	// already taken or belongs to another graph is an error.
	Admitted *guard.Verdict
	// Engine names the separator backend (sepengine registry) for both the
	// per-component separators of the DFS and the whole-instance
	// separator; empty selects the Theorem 1 engine. A soft engine failure
	// (sepengine.ErrNoSeparator) on a DFS component falls back to Theorem 1
	// for that component, counted in Result.DFSTrace.EngineFallbacks.
	Engine string
	// Plan injects deterministic faults into the dfs stage: structural
	// faults into the Theorem 2 output, message-level faults into the
	// Awerbuch fallback. Nil runs fault-free.
	Plan *chaos.Plan
	// MaxAttempts bounds the supervised attempts per DFS producer; 0 uses
	// the recovery runtime's default.
	MaxAttempts int
	// Tracer receives the spans and metrics of every stage; nil disables
	// tracing.
	Tracer trace.Tracer
}

// Result is the account of a run, one report per stage. A failed run
// returns the reports of the stages that completed.
type Result struct {
	// Root is the common root of both trees: the first vertex of the outer
	// face, as the paper requires.
	Root int
	// Admission is Options.Admitted, the guard verdict; nil when unguarded.
	Admission *guard.Verdict
	// BFS is the BFS spanning tree rooted at Root.
	BFS *spanning.Tree
	// Recovery is the supervised-recovery report of the dfs stage.
	Recovery *chaos.Report
	// DFSTrace is the phase structure of the last Theorem 2 attempt.
	DFSTrace *dfs.Trace
	// DFSRounds is the charged paper-model round cost of one Theorem 2
	// build (the last attempt's).
	DFSRounds int
	// Parent is the certified DFS parent array (-1 at Root).
	Parent []int
	// DFS is the tree view of Parent: preorder intervals, binary-lifted
	// LCA, subtree sizes.
	DFS *spanning.Tree
	// Separator is the validated whole-instance cycle separator.
	Separator *sepengine.Result
	// Verdicts are the certification verdicts in the order spanning, dfs,
	// separator.
	Verdicts []*cert.Verdict
}

// Rounds is the charged round cost of the build: the DFS stage plus every
// certification prover, exchange and fold.
func (r *Result) Rounds() int {
	total := r.DFSRounds
	for _, v := range r.Verdicts {
		total += v.ProverRounds + v.VerifierRounds + v.AggRounds
	}
	return total
}

// ErrUnrecovered reports a dfs stage whose every supervised attempt failed
// or was rejected, so no certified tree exists for the later stages.
// Result.Recovery carries the attempts.
var ErrUnrecovered = errors.New("pipeline: DFS stage exhausted its attempts without a certified tree")

// ErrNoDFSVerdict reports a dfs stage that accepted a tree without a
// passing DFS verdict as the last one it collected, so the certify stage
// has no verdict to reuse. Result.Recovery carries the verdicts.
var ErrNoDFSVerdict = errors.New("pipeline: DFS stage accepted a tree without a passing DFS verdict")

// ErrCertRejected reports a run whose spanning-tree or separator
// certificate was rejected by at least one verifier, so its decomposition
// is not certified. Result.Verdicts carries every verdict.
var ErrCertRejected = errors.New("pipeline: certification rejected")

// Run executes the pipeline over in. The error is the admission guard's
// typed rejection (matching guard.ErrRejected), ErrUnrecovered,
// ErrNoDFSVerdict, ErrCertRejected, a wrapped ctx.Err() after
// cancellation, or an infrastructure failure of a stage.
// ctx is consulted between stages and before every supervised attempt.
func Run(ctx context.Context, in *gen.Instance, opts Options) (*Result, error) {
	eng, err := sepengine.Get(opts.Engine)
	if err != nil {
		return nil, err
	}
	res := &Result{Admission: opts.Admitted}
	vf, err := verifier(in, opts.Admitted, opts.Tracer)
	if err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	g := in.G
	if g.M() == 0 {
		// The root rule reads the outer face through a dart, and an
		// edgeless instance has none.
		return res, fmt.Errorf("pipeline: spanning: instance has no edges")
	}
	if err := in.Emb.CheckOuterDart(in.OuterDart); err != nil {
		return res, fmt.Errorf("pipeline: spanning: %w", err)
	}
	res.Root = in.Emb.FaceRoot(in.OuterDart)
	res.BFS, err = spanning.BFSTree(g, res.Root)
	if err != nil {
		return res, fmt.Errorf("pipeline: spanning: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	dfsVerdict, err := runDFS(ctx, in, eng, opts, res, vf)
	if err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	cfg, err := weights.NewConfig(g, in.Emb, in.OuterDart, res.BFS)
	if err != nil {
		return res, fmt.Errorf("pipeline: configuration: %w", err)
	}
	res.Separator, err = eng.FindCycleSeparator(cfg, sepengine.Options{Tracer: opts.Tracer})
	if err != nil {
		return res, fmt.Errorf("pipeline: separator: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	v, err := vf.CertifySpanningTree(res.BFS)
	if err != nil {
		return res, fmt.Errorf("pipeline: certify spanning: %w", err)
	}
	// The dfs stage certified the accepted tree with the same labels, judge
	// and Verifier; its verdict stands.
	res.Verdicts = append(res.Verdicts, v, dfsVerdict)
	if v, err = vf.CertifySeparator(res.Separator.Sep); err != nil {
		return res, fmt.Errorf("pipeline: certify separator: %w", err)
	}
	res.Verdicts = append(res.Verdicts, v)
	return res, rejection(res.Verdicts)
}

// verifier returns the one certification context of the run, which
// serves every DFS attempt and the certify stage: the admission's, traced
// into tr from here on, when an admission ran, and otherwise a fresh one
// that builds its network, tree and programs at the first DFS
// certification. A rejecting admission returns its typed rejection.
func verifier(in *gen.Instance, adm *guard.Verdict, tr trace.Tracer) (*cert.Verifier, error) {
	if adm == nil {
		return cert.NewVerifier(in.G, cert.Options{Tracer: tr}), nil
	}
	if err := adm.Err(); err != nil {
		return nil, err
	}
	vf := adm.TakeVerifier()
	if vf == nil || vf.Graph() != in.G {
		return nil, errors.New("pipeline: admit: the admission holds no certification context of this instance's graph")
	}
	vf.SetTracer(tr)
	return vf, nil
}

// rejection is ErrCertRejected naming the first rejecting verdict's scheme
// and rejector count, or nil when every verdict accepts.
func rejection(vs []*cert.Verdict) error {
	for _, v := range vs {
		if !v.OK {
			return fmt.Errorf("%w: %s certificate rejected by %d verifiers", ErrCertRejected, v.Scheme, len(v.Rejectors))
		}
	}
	return nil
}

// runDFS is the dfs stage: the Theorem 2 build as the supervised primary,
// its output perturbed by the plan's structural faults and certified per
// attempt, with Awerbuch's token DFS as the fallback. It fills Recovery,
// DFSTrace, DFSRounds, Parent and DFS, and returns the accepted attempt's
// DFS verdict. Both producers' attempts are certified on vf by one
// certifier, whose tree view of the accepted claim becomes Result.DFS.
func runDFS(ctx context.Context, in *gen.Instance, eng sepengine.Engine, opts Options, res *Result, vf *cert.Verifier) (*cert.Verdict, error) {
	g, n, root := in.G, in.G.N(), res.Root
	cm := shortcut.PaperCost{D: res.BFS.MaxDepth(), N: n}
	fallbacks := 0
	find := componentFinder(eng, &fallbacks)
	var structural chaos.Counts
	certifier := chaos.NewDFSTreeCertifier(vf, root)
	primary := chaos.Stage[[]int]{
		Name:          "separator-pipeline",
		DefaultBudget: 10*n + 100,
		// The Theorem 2 build is a simulated (charged) stage: it reports
		// the paper-model round cost, and its trace charges exactly that
		// cost, but it is not bound by the attempt budget. Its retries are
		// driven by certification rejections of the structurally faulted
		// output, which decay across attempts.
		Run: func(attempt, budget int) ([]int, int, error) {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			fallbacks = 0
			pt, dtr, err := dfs.BuildWithSeparator(g, in.Emb, in.OuterDart, root, nil, find)
			if err != nil {
				return nil, 0, err
			}
			dtr.EngineFallbacks = fallbacks
			res.DFSTrace = dtr
			parent := append([]int(nil), pt.Parent...)
			structural.Structural += int64(opts.Plan.CorruptParents(attempt, root, parent))
			res.DFSRounds = dtr.Ops(n).Rounds(cm, 1)
			dtr.Charge(opts.Tracer, n, cm)
			return parent, res.DFSRounds, nil
		},
		Certify: certifier.Certify,
		Faults:  func() chaos.Counts { return structural },
	}
	fallback := chaos.AwerbuchDFSOn(vf, root, opts.Plan)
	fallback.Certify = certifier.Certify
	pol := chaos.Policy{MaxAttempts: opts.MaxAttempts, Tracer: opts.Tracer}
	parent, rep, err := chaos.RunWithRecoveryContext(ctx, primary, &fallback, pol)
	res.Recovery = rep
	if err != nil {
		return nil, fmt.Errorf("pipeline: dfs: %w", err)
	}
	if rep.Outcome == chaos.OutcomeFailed {
		return nil, fmt.Errorf("%w (%d attempts)", ErrUnrecovered, len(rep.Attempts))
	}
	verdict, err := acceptedDFSVerdict(rep)
	if err != nil {
		return nil, err
	}
	res.Parent = parent
	res.DFS = certifier.Tree
	return verdict, nil
}

// acceptedDFSVerdict returns the verdict of the attempt the recovery
// runtime accepted. The runtime stops at the first accepted attempt, and
// both producers are certified by one chaos.DFSTreeCertifier, so that
// verdict is the last one collected and a passing DFS verdict.
func acceptedDFSVerdict(rep *chaos.Report) (*cert.Verdict, error) {
	if len(rep.Verdicts) == 0 {
		return nil, fmt.Errorf("%w (no verdicts after %d attempts)", ErrNoDFSVerdict, len(rep.Attempts))
	}
	v := rep.Verdicts[len(rep.Verdicts)-1]
	if v == nil || v.Scheme != "dfs" || !v.OK {
		return nil, fmt.Errorf("%w (last of %d verdicts is not an accepting dfs verdict)", ErrNoDFSVerdict, len(rep.Verdicts))
	}
	return v, nil
}

// componentFinder is the per-component separator of the dfs stage. The
// Theorem 1 engine runs as separator.Find itself, since the stage
// certifies the whole tree; any other engine runs through
// sepengine.Finder, and a soft failure on a component falls back to
// Theorem 1, counted in *fallbacks, so the build stays total. The
// per-component calls record nothing: the phase's separator rounds are
// charged once, from the build's Trace.
func componentFinder(eng sepengine.Engine, fallbacks *int) separator.FindFunc {
	if eng.Name() == sepengine.DefaultEngine {
		return separator.Find
	}
	find := sepengine.Finder(eng)
	return func(cfg *weights.Config) (*separator.Separator, error) {
		sep, err := find(cfg)
		if !errors.Is(err, sepengine.ErrNoSeparator) {
			return sep, err
		}
		*fallbacks++
		return separator.Find(cfg)
	}
}
