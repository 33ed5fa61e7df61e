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
// on every planar configuration. A call is charged Theorem 1's fixed
// schedule, dist.SeparatorOps, whichever Lemma 1 case answers.
type theorem1Engine struct{}

func (theorem1Engine) Name() string { return DefaultEngine }

func (theorem1Engine) FindCycleSeparator(cfg *weights.Config, opts Options) (*Result, error) {
	ops := dist.SeparatorOps(cfg.G.N())
	charge(cfg, opts, DefaultEngine, ops)
	sep, err := separator.Find(cfg)
	if err != nil {
		return nil, err
	}
	return finish(cfg, DefaultEngine, sep, ops)
}

func init() { Register(theorem1Engine{}) }
