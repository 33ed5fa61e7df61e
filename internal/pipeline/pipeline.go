// Package pipeline holds the paper's two theorems as ordered stage lists,
// Run (Theorem 2) and Separate (Theorem 1):
//
//	admit (guard) → spanning (BFS) → dfs (supervised Theorem 2) → separator → certify
//	admit (guard) → spanning (BFS) → configuration → separator (supervised Theorem 1) → certify
//
// A supervised stage runs under the chaos recovery runtime: the fault
// plan's structural faults corrupt its output, a proof-labeling scheme
// certifies every attempt, and a fallback (Awerbuch's token DFS, or the
// fault-free engine) takes over. NewConfig is the one configuration
// builder. Every caller that builds a certified decomposition or separator
// goes through Run or Separate, so the stages are wired once.
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

// Options configure one run of Run or Separate. The zero value runs the
// paper's defaults: no admission guard, the Theorem 1 separator engine, a
// fault-free supervised stage and no tracing.
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
	// Plan injects deterministic faults into the supervised stage:
	// structural faults into its output (Run's tree, Separate's path) and
	// message-level faults into Run's Awerbuch fallback. Nil runs fault-free.
	Plan *chaos.Plan
	// MaxAttempts bounds the supervised attempts per producer; 0 uses the
	// recovery runtime's default.
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
	// Recovery is the supervised-recovery report of the dfs stage (Run) or
	// the separator stage (Separate).
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
	// separator after Run, and spanning, separator after Separate.
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

// ErrUnrecovered reports a supervised stage whose every attempt failed or
// was rejected, so no certified output exists for the later stages.
// Result.Recovery carries the attempts.
var ErrUnrecovered = errors.New("pipeline: a supervised stage exhausted its attempts without a certified output")

// ErrNoVerdict reports a supervised stage that accepted an output without
// a passing verdict of its scheme as the last one it collected, so the
// certify stage has no verdict to reuse.
var ErrNoVerdict = errors.New("pipeline: a supervised stage accepted an output without a passing verdict")

// ErrCertRejected reports a run whose spanning-tree or separator
// certificate was rejected by at least one verifier, so its decomposition
// is not certified. Result.Verdicts carries every verdict.
var ErrCertRejected = errors.New("pipeline: certification rejected")

// Run executes the Theorem 2 pipeline over in. The error is the admission
// guard's typed rejection (matching guard.ErrRejected), ErrUnrecovered,
// ErrNoVerdict, ErrCertRejected, a wrapped ctx.Err() after cancellation,
// or a failure of a stage. ctx is consulted between stages and before
// every supervised attempt.
func Run(ctx context.Context, in *gen.Instance, opts Options) (*Result, error) {
	eng, res, vf, err := begin(ctx, in, opts)
	if err != nil {
		return res, err
	}
	dfsVerdict, err := runDFS(ctx, in, eng, opts, res, vf)
	if err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	cfg, err := config(in, res.BFS)
	if err != nil {
		return res, err
	}
	if res.Separator, err = findSeparator(eng, cfg, opts.Tracer); err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if err := certify(vf, res, dfsVerdict); err != nil {
		return res, err
	}
	v, err := vf.CertifySeparator(res.Separator.Sep)
	if err != nil {
		return res, fmt.Errorf("pipeline: certify separator: %w", err)
	}
	res.Verdicts = append(res.Verdicts, v)
	return res, rejection(res.Verdicts)
}

// Separate executes the Theorem 1 pipeline over in: Run without the dfs
// stage, with the separator as the supervised stage. It fills every
// Result field but the DFS ones and returns the errors Run returns.
func Separate(ctx context.Context, in *gen.Instance, opts Options) (*Result, error) {
	eng, res, vf, err := begin(ctx, in, opts)
	if err != nil {
		return res, err
	}
	cfg, err := config(in, res.BFS)
	if err != nil {
		return res, err
	}
	primary := separatorStage(ctx, eng, cfg, opts.Plan, opts.Tracer, vf)
	fallback := separatorStage(ctx, eng, cfg, nil, opts.Tracer, vf)
	var sepVerdict *cert.Verdict
	if res.Separator, sepVerdict, err = supervise(ctx, "separator", primary, &fallback, opts, res); err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if err := certify(vf, res, sepVerdict); err != nil {
		return res, err
	}
	return res, rejection(res.Verdicts)
}

// begin runs the engine lookup and the admit and spanning stages both
// pipelines open with. A rejecting admission returns its typed rejection;
// otherwise a malformed instance is an error before any stage runs.
func begin(ctx context.Context, in *gen.Instance, opts Options) (sepengine.Engine, *Result, *cert.Verifier, error) {
	eng, err := sepengine.Get(opts.Engine)
	if err != nil {
		return nil, nil, nil, err
	}
	res := &Result{Admission: opts.Admitted}
	if adm := opts.Admitted; adm != nil && !adm.OK {
		return nil, res, nil, adm.Err()
	}
	switch {
	case in == nil || in.G == nil:
		return nil, res, nil, errors.New("pipeline: instance has no graph")
	case in.Emb == nil:
		return nil, res, nil, errors.New("pipeline: instance has no embedding")
	case in.Emb.Graph() != in.G:
		return nil, res, nil, errors.New("pipeline: instance embedding is of another graph")
	}
	// The run's one certification context serves every supervised attempt
	// and the certify stage: the admission's, traced into opts.Tracer from
	// here on, or else a fresh one that builds its network, tree and
	// programs at the first certification.
	var vf *cert.Verifier
	if adm := opts.Admitted; adm == nil {
		vf = cert.NewVerifier(in.G, cert.Options{Tracer: opts.Tracer})
	} else if vf = adm.TakeVerifier(); vf != nil && vf.Graph() == in.G {
		vf.SetTracer(opts.Tracer)
	} else {
		return nil, res, nil, errors.New("pipeline: admit: the admission holds no certification context of this instance's graph")
	}
	if err := ctx.Err(); err != nil {
		return nil, res, nil, err
	}
	g := in.G
	if g.M() == 0 {
		// The root rule reads the outer face through a dart, and an
		// edgeless instance has none.
		return nil, res, nil, fmt.Errorf("pipeline: spanning: instance has no edges")
	}
	if err := in.Emb.CheckOuterDart(in.OuterDart); err != nil {
		return nil, res, nil, fmt.Errorf("pipeline: spanning: %w", err)
	}
	res.Root = in.Emb.FaceRoot(in.OuterDart)
	res.BFS, err = spanning.BFSTree(g, res.Root)
	if err != nil {
		return nil, res, nil, fmt.Errorf("pipeline: spanning: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, res, nil, err
	}
	return eng, res, vf, nil
}

// TreeKind selects the spanning tree of a configuration NewConfig builds.
type TreeKind int

// Spanning tree kinds: a breadth-first tree (depth <= D; the common
// choice) and a depth-first tree (depth up to Θ(n); the stress case the
// paper's subroutines are designed for).
const (
	TreeBFS TreeKind = iota + 1
	TreeDeepDFS
)

// NewConfig is the one configuration builder: the planar configuration of
// in over a spanning tree of the given kind rooted at root, which must lie
// on the outer face.
func NewConfig(in *gen.Instance, kind TreeKind, root int) (*weights.Config, error) {
	if in == nil || in.G == nil {
		// weights.NewConfig refuses a missing or foreign embedding.
		return nil, errors.New("pipeline: configuration: instance has no graph")
	}
	var tr *spanning.Tree
	var err error
	switch kind {
	case TreeBFS:
		tr, err = spanning.BFSTree(in.G, root)
	case TreeDeepDFS:
		tr, err = spanning.DeepDFSTree(in.G, root)
	default:
		return nil, fmt.Errorf("pipeline: unknown tree kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	return config(in, tr)
}

// config is the configuration step: in's configuration over tr.
func config(in *gen.Instance, tr *spanning.Tree) (*weights.Config, error) {
	cfg, err := weights.NewConfig(in.G, in.Emb, in.OuterDart, tr)
	if err != nil {
		return nil, fmt.Errorf("pipeline: configuration: %w", err)
	}
	return cfg, nil
}

// findSeparator is the engine call: the cycle separator of cfg, traced into tr.
func findSeparator(eng sepengine.Engine, cfg *weights.Config, tr trace.Tracer) (*sepengine.Result, error) {
	res, err := eng.FindCycleSeparator(cfg, sepengine.Options{Tracer: tr})
	if err != nil {
		return nil, fmt.Errorf("pipeline: separator: %w", err)
	}
	return res, nil
}

// certify is the certify step: the BFS tree's certificate on vf, then the
// verdict the supervised stage accepted on vf, which stands.
func certify(vf *cert.Verifier, res *Result, accepted *cert.Verdict) error {
	v, err := vf.CertifySpanningTree(res.BFS)
	if err != nil {
		return fmt.Errorf("pipeline: certify spanning: %w", err)
	}
	res.Verdicts = append(res.Verdicts, v, accepted)
	return nil
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

// supervise runs a stage and its fallback under the recovery runtime,
// reports it as Result.Recovery, and returns the accepted output and its
// verdict of scheme, which names the pipeline stage.
func supervise[T any](ctx context.Context, scheme string, primary chaos.Stage[T], fallback *chaos.Stage[T], opts Options, res *Result) (T, *cert.Verdict, error) {
	var zero T
	pol := chaos.Policy{MaxAttempts: opts.MaxAttempts, Tracer: opts.Tracer}
	out, rep, err := chaos.RunWithRecoveryContext(ctx, primary, fallback, pol)
	res.Recovery = rep
	if err != nil {
		return zero, nil, fmt.Errorf("pipeline: %s: %w", scheme, err)
	}
	if rep.Outcome == chaos.OutcomeFailed {
		last := rep.Attempts[len(rep.Attempts)-1]
		return zero, nil, fmt.Errorf("%w (%s stage, %d attempts, the last: %s)", ErrUnrecovered, scheme, len(rep.Attempts), last.Err)
	}
	v, err := acceptedVerdict(rep, scheme)
	if err != nil {
		return zero, nil, err
	}
	return out, v, nil
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
	parent, verdict, err := supervise(ctx, "dfs", primary, &fallback, opts, res)
	if err != nil {
		return nil, err
	}
	res.Parent = parent
	res.DFS = certifier.Tree
	return verdict, nil
}

// separatorStage is the engine's whole-instance separator as a supervised
// stage: each attempt runs the engine on cfg, the plan's structural faults
// corrupt a copy of the claimed cycle path (decaying across attempts), and
// the separator proof-labeling scheme decides acceptance on vf. A nil plan
// yields the fault-free fallback stage.
func separatorStage(ctx context.Context, eng sepengine.Engine, cfg *weights.Config, plan *chaos.Plan, tr trace.Tracer, vf *cert.Verifier) chaos.Stage[*sepengine.Result] {
	n := cfg.G.N()
	var structural chaos.Counts
	return chaos.Stage[*sepengine.Result]{
		Name:          "separator",
		DefaultBudget: 10*n + 100,
		Run: func(attempt, budget int) (*sepengine.Result, int, error) {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			r, err := findSeparator(eng, cfg, tr)
			if err != nil {
				return nil, 0, err
			}
			out, sep := *r, *r.Sep
			sep.Path = append([]int(nil), r.Sep.Path...)
			out.Sep = &sep
			if hit := plan.CorruptInts(attempt, n, sep.Path); hit > 0 {
				structural.Structural += int64(hit)
				// A corrupted path can still certify, so its sides and
				// balance must be its own. A path without a balanced side
				// assignment gets none; the certify step rejects it.
				side, maxComp, _ := cert.SeparatorSides(cfg.G, sep.Path)
				out.Side, out.Balance = side, float64(maxComp)/float64(n)
			}
			return &out, out.Rounds, nil
		},
		Certify: func(r *sepengine.Result) (chaos.Certification, error) {
			v, err := vf.CertifySeparator(r.Sep)
			if err != nil {
				// A corrupted path can break the prover itself; that is an
				// explicit rejection, not an infrastructure failure.
				return chaos.Certification{Detail: "structural precheck: " + err.Error()}, nil
			}
			return chaos.FromVerdict(v), nil
		},
		Faults: func() chaos.Counts { return structural },
	}
}

// acceptedVerdict returns the verdict of the attempt the recovery runtime
// accepted. The runtime stops at the first accepted attempt, and both
// producers of a stage are certified by one certifier of scheme, so that
// verdict is the last one collected and a passing verdict of scheme.
func acceptedVerdict(rep *chaos.Report, scheme string) (*cert.Verdict, error) {
	if len(rep.Verdicts) == 0 {
		return nil, fmt.Errorf("%w (no verdicts after %d attempts)", ErrNoVerdict, len(rep.Attempts))
	}
	v := rep.Verdicts[len(rep.Verdicts)-1]
	if v == nil || v.Scheme != scheme || !v.OK {
		return nil, fmt.Errorf("%w (last of %d verdicts is not an accepting %s verdict)", ErrNoVerdict, len(rep.Verdicts), scheme)
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
