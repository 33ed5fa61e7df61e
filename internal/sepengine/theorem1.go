package sepengine

import (
	"planardfs/internal/dist"
	"planardfs/internal/separator"
	"planardfs/internal/weights"
)

// theorem1Engine wraps the paper's constructive Theorem 1 algorithm
// (internal/separator): the deterministic fundamental-face weight
// machinery with augmentations, hidden fallbacks and virtual closures.
// It is the registry default and the only engine with a balance guarantee
// on every planar configuration.
type theorem1Engine struct{}

func (theorem1Engine) Name() string { return DefaultEngine }

func (theorem1Engine) FindCycleSeparator(cfg *weights.Config, opts Options) (*Result, error) {
	// Thread the caller's tracer through the configuration so the full
	// phase/lemma span structure of the run lands on it, exactly like a
	// direct separator.Find call.
	run := cfg
	if opts.Tracer != nil && cfg.Tracer == nil {
		c := *cfg
		c.Tracer = opts.Tracer
		run = &c
	}
	sep, err := separator.Find(run)
	if err != nil {
		return nil, err
	}
	return finish(cfg, DefaultEngine, sep, dist.SeparatorOps(cfg.G.N()))
}

func init() { Register(theorem1Engine{}) }
