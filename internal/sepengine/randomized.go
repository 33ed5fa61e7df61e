package sepengine

import (
	"fmt"
	"math/rand"

	"planardfs/internal/dist"
	"planardfs/internal/separator"
	"planardfs/internal/weights"
)

// randomizedEngine is the sampling-estimation baseline in the style of
// Ghaffari and Parter (DISC 2017): face extents are estimated from a
// uniform vertex sample instead of the paper's deterministic formula. It
// exists to quantify what the deterministic algorithm buys (experiment
// E10): the estimator needs Θ(log n / ε²) samples per face to stay inside
// the safety band with high probability, so the engine can fail (no
// estimate in the band) or propose an unbalanced face — both surface as a
// typed ErrNoSeparator, never as an unvalidated separator.
//
// Seed threading follows the repo's determinism policy: the RNG is
// derived from Options.Seed via rand.NewSource, never from the
// process-global generator, so a run is reproducible from its arguments.
type randomizedEngine struct{}

func (randomizedEngine) Name() string { return "randomized" }

// Defaults for the sampling knobs when Options leaves them zero.
const (
	defaultSampleRate = 0.25
	defaultMargin     = 0.03
)

func (randomizedEngine) FindCycleSeparator(cfg *weights.Config, opts Options) (*Result, error) {
	rate := opts.SampleRate
	if rate == 0 {
		rate = defaultSampleRate
	}
	margin := opts.Margin
	if margin == 0 {
		margin = defaultMargin
	}
	n := cfg.G.N()
	ops := randOps(n)
	charge(cfg, opts, "randomized", ops)

	//planarvet:rng caller-seeded baseline: the seed is threaded from Options.
	rng := rand.New(rand.NewSource(opts.Seed))
	res, err := findSampled(cfg, rate, margin, rng)
	if err != nil {
		return nil, err
	}
	if res.sep == nil {
		return nil, &NoSeparatorError{
			Engine:  "randomized",
			Samples: res.samples,
			Reason:  fmt.Sprintf("no face estimate within the safety band (samples=%d)", res.samples),
		}
	}
	// The estimate may have passed the band on an unbalanced face; check
	// before finish so the failure stays a typed soft error.
	if 3*separator.VerifyBalance(cfg.G, res.sep.Path) > 2*n {
		return nil, &NoSeparatorError{
			Engine:  "randomized",
			Samples: res.samples,
			Reason:  fmt.Sprintf("sampled face is unbalanced (samples=%d, estErr=%d)", res.samples, res.estimateErr),
		}
	}
	out, err := finish(cfg, "randomized", res.sep, ops)
	if err != nil {
		return nil, err
	}
	out.Samples = res.samples
	return out, nil
}

// sampled is the outcome of one sampling attempt.
type sampled struct {
	// sep is the T-path of the first face whose estimate landed in the
	// safety band, nil when none did.
	sep *separator.Separator
	// samples is the number of sampled vertices.
	samples int
	// estimateErr is the largest absolute estimation error observed across
	// the faces examined (diagnostic; computed against the deterministic
	// formula).
	estimateErr int
}

// findSampled estimates every real fundamental face's extent |F̄_e| (inside
// plus border) from a uniform sample of the given rate, and returns the
// T-path of the first face whose estimate lies within
// [(1/3+margin)n, (2/3-margin)n]. The returned separator is NOT guaranteed
// balanced — that is the point of the baseline.
func findSampled(cfg *weights.Config, sampleRate, margin float64, rng *rand.Rand) (sampled, error) {
	n := cfg.G.N()
	if sampleRate <= 0 || sampleRate > 1 {
		return sampled{}, fmt.Errorf("sepengine: sample rate %v out of (0,1]", sampleRate)
	}
	var sample []int
	for v := 0; v < n; v++ {
		if rng.Float64() < sampleRate {
			sample = append(sample, v)
		}
	}
	res := sampled{samples: len(sample)}
	if len(sample) == 0 {
		return res, nil
	}
	lo := (1.0/3.0 + margin) * float64(n)
	hi := (2.0/3.0 - margin) * float64(n)
	scale := float64(n) / float64(len(sample))
	for _, e := range cfg.FundamentalEdges() {
		ec := cfg.Classify(e)
		hits := 0
		for _, z := range sample {
			b, in := cfg.InFace(ec, z)
			if b || in {
				hits++
			}
		}
		est := scale * float64(hits)
		exact := len(cfg.InsideNodes(ec)) + len(cfg.BorderNodes(ec))
		if d := int(est) - exact; d > res.estimateErr {
			res.estimateErr = d
		} else if -d > res.estimateErr {
			res.estimateErr = -d
		}
		if est >= lo && est <= hi {
			res.sep = &separator.Separator{
				Path:  cfg.Tree.TPath(ec.U, ec.V),
				EndA:  ec.U,
				EndB:  ec.V,
				Phase: separator.PhaseDirect,
			}
			return res, nil
		}
	}
	return res, nil
}

// randOps is the charged profile: the sampling broadcast plus one
// estimate aggregation per range query and the final path marking.
func randOps(n int) dist.Ops {
	return dist.PAProblemOps().Times(3).Plus(dist.MarkPathOps(n))
}

func init() { Register(randomizedEngine{}) }
