// Package sepengine is the multi-backend cycle-separator subsystem: a
// registry of separator engines behind one interface, every output
// cross-validated by the engine-agnostic certifier of internal/cert.
//
// An engine consumes a planar configuration (G, ℰ, T) and produces a
// Result: the separator path, the greedy two-coloring of the remaining
// components, the achieved balance, and the charged CONGEST round cost
// under the paper cost model. No engine is trusted: before a Result leaves
// this package its separator is checked by cert.CheckSeparator (simple
// G-path, endpoints matching, components at most 2n/3) and its side masks
// by cert.CheckSeparatorSides. An engine that cannot produce a balanced
// cycle on an instance returns a typed error wrapping ErrNoSeparator — it
// never returns an unvalidated separator.
//
// Engines register themselves in an ordered registry (Register/Get/Names);
// unknown names resolve to an *UnknownEngineError naming the available
// set, so CLIs can surface discovery instead of panicking.
package sepengine

import (
	"errors"
	"fmt"
	"sort"

	"planardfs/internal/cert"
	"planardfs/internal/dist"
	"planardfs/internal/separator"
	"planardfs/internal/shortcut"
	"planardfs/internal/trace"
	"planardfs/internal/weights"
)

// Engine is one separator backend. Implementations must be stateless and
// safe for concurrent use: all per-call state lives on the stack.
type Engine interface {
	// Name is the registry key (kebab-case, e.g. "har-peled-nayyeri").
	Name() string
	// FindCycleSeparator computes a validated cycle separator of the
	// configuration's graph. On failure the error wraps ErrNoSeparator
	// when the engine ran to completion without finding a balanced cycle
	// (a legitimate outcome for incomplete engines), or reports an
	// infrastructure fault otherwise.
	FindCycleSeparator(cfg *weights.Config, opts Options) (*Result, error)
}

// Options carry the per-call knobs shared by all engines. The zero value
// is valid: no tracing, deterministic engines use their defaults, and the
// randomized engine derives its generator from Seed 0.
type Options struct {
	// Tracer records the call (nil disables): one lemma-layer span named
	// "sepengine.<engine>" charging the engine's primitive tally, which
	// advances the round clock by exactly Result.Rounds. It is the one
	// entry point for tracing a separator computation.
	Tracer trace.Tracer
	// Seed drives the randomized engine. The seed-threading contract of
	// internal/randsep is preserved: the RNG is always derived from this
	// caller-supplied seed, never from a process-global generator, so a
	// run is reproducible from its arguments alone.
	Seed int64
	// SampleRate is the randomized engine's vertex-sampling rate in
	// (0, 1]; 0 selects the default 0.25.
	SampleRate float64
	// Margin is the randomized engine's safety band margin; 0 selects the
	// default 0.03.
	Margin float64
}

// Result is a validated engine output.
type Result struct {
	// Engine is the producing engine's registry name.
	Engine string
	// Sep is the cycle separator: a simple G-path whose removal leaves
	// components of at most 2n/3 vertices. The cycle closes between EndA
	// and EndB through a real edge or an ℰ-compatible virtual edge; as in
	// the proof-labeling scheme, the virtual closure itself has no local
	// witness and is outside the validated scope.
	Sep *separator.Separator
	// Side is the greedy two-coloring of G minus the path: 0 = separator
	// vertex, 1 = side A, 2 = side B (cert.SeparatorSides).
	Side []int
	// Balance is the largest component of G minus the path divided by n;
	// validation guarantees Balance <= 2/3.
	Balance float64
	// CycleLen is the number of vertices on the separator cycle.
	CycleLen int
	// Rounds is the charged CONGEST round cost of the engine under the
	// paper cost model (tree depth standing in for the diameter).
	Rounds int
	// Samples is the number of sampled vertices (randomized engine only;
	// zero for the deterministic engines).
	Samples int
}

// ErrNoSeparator marks a legitimate engine failure: the engine ran to
// completion without finding a balanced cycle separator. Callers fall back
// to another engine (the DFS pipeline falls back to theorem1) or report
// the instance as uncovered.
var ErrNoSeparator = errors.New("sepengine: no balanced cycle separator found")

// NoSeparatorError is the diagnostic form of ErrNoSeparator (errors.Is
// matches the sentinel through Unwrap): it names the failing engine and
// carries its run statistics, so experiment drivers can account for work
// done on failed attempts without bespoke entry points into the engine.
type NoSeparatorError struct {
	// Engine is the failing engine's registry name.
	Engine string
	// Samples is the randomized engine's sample count (zero elsewhere).
	Samples int
	// Reason is a human-readable account of why no cycle was found.
	Reason string
}

func (e *NoSeparatorError) Error() string {
	return fmt.Sprintf("%v: engine %s: %s", ErrNoSeparator, e.Engine, e.Reason)
}

func (e *NoSeparatorError) Unwrap() error { return ErrNoSeparator }

// UnknownEngineError reports a name that resolves to no registered engine,
// carrying the available set for discovery.
type UnknownEngineError struct {
	Name      string
	Available []string
}

func (e *UnknownEngineError) Error() string {
	return fmt.Sprintf("sepengine: unknown engine %q (available: %v)", e.Name, e.Available)
}

// The registry keeps insertion order in a slice next to the lookup map, so
// Names needs no map iteration and the listing is deterministic.
var (
	registryNames []string
	registryByKey = map[string]Engine{}
)

// Register adds an engine to the registry. It panics on duplicate names —
// registration happens only from package init functions.
func Register(e Engine) {
	name := e.Name()
	if _, dup := registryByKey[name]; dup {
		panic(fmt.Sprintf("sepengine: duplicate engine %q", name))
	}
	registryByKey[name] = e
	registryNames = append(registryNames, name)
}

// Names returns the registered engine names, sorted.
func Names() []string {
	out := append([]string(nil), registryNames...)
	sort.Strings(out)
	return out
}

// Get resolves an engine by name. The empty name resolves to the default
// engine (theorem1, the paper's constructive algorithm). Unknown names
// return an *UnknownEngineError listing the available set.
func Get(name string) (Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	e, ok := registryByKey[name]
	if !ok {
		return nil, &UnknownEngineError{Name: name, Available: Names()}
	}
	return e, nil
}

// DefaultEngine is the registry name of the paper's Theorem 1 engine.
const DefaultEngine = "theorem1"

// Find resolves name and runs the engine in one step.
func Find(name string, cfg *weights.Config, opts Options) (*Result, error) {
	e, err := Get(name)
	if err != nil {
		return nil, err
	}
	return e.FindCycleSeparator(cfg, opts)
}

// Finder adapts e to the separator.FindFunc shape the region callers take
// (separator.ForSubset, ForPartition, Decompose): each call runs e
// untraced with the zero Options and returns the validated separator, or
// e's error unchanged, so a caller can still match ErrNoSeparator.
func Finder(e Engine) separator.FindFunc {
	return func(cfg *weights.Config) (*separator.Separator, error) {
		r, err := e.FindCycleSeparator(cfg, Options{})
		if err != nil {
			return nil, err
		}
		return r.Sep, nil
	}
}

// costModel is the paper cost model of a configuration: the spanning
// tree's depth stands in for the diameter (depth <= D <= 2·depth).
func costModel(cfg *weights.Config) shortcut.CostModel {
	return shortcut.PaperCost{D: cfg.Tree.MaxDepth(), N: cfg.G.N()}
}

// finish validates a candidate separator and assembles the Result: the
// centralized separator oracle must accept the path, and the greedy side
// assignment must pass the side oracle. Validation failures from engine
// output are reported as infrastructure errors — an engine that wants to
// fail softly must check balance before calling finish.
func finish(cfg *weights.Config, name string, sep *separator.Separator, ops dist.Ops) (*Result, error) {
	g := cfg.G
	if err := cert.CheckSeparator(g, sep); err != nil {
		return nil, fmt.Errorf("sepengine: %s produced an invalid separator: %w", name, err)
	}
	side, maxComp, err := cert.SeparatorSides(g, sep.Path)
	if err != nil {
		return nil, fmt.Errorf("sepengine: %s side assignment: %w", name, err)
	}
	if err := cert.CheckSeparatorSides(g, sep.Path, side); err != nil {
		return nil, fmt.Errorf("sepengine: %s side validation: %w", name, err)
	}
	n := g.N()
	return &Result{
		Engine:   name,
		Sep:      sep,
		Side:     side,
		Balance:  float64(maxComp) / float64(n),
		CycleLen: len(sep.Path),
		Rounds:   ops.Rounds(costModel(cfg), 1),
	}, nil
}

// charge records an engine's primitive tally on opts.Tracer (one
// lemma-layer span with its primitive children) when tracing is on, so a
// traced call advances the round clock by exactly the Rounds its Result
// reports.
func charge(cfg *weights.Config, opts Options, name string, ops dist.Ops) {
	m := dist.NewMeter(opts.Tracer, costModel(cfg))
	m.Charge(trace.LayerLemma, "sepengine."+name, ops,
		trace.Attr{Key: "n", Val: int64(cfg.G.N())})
}
