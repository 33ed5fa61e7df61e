package sepengine

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"planardfs/internal/separator"
)

func TestRandomizedValidatesRate(t *testing.T) {
	cfg := buildConfig(t, "grid", 25, 1)
	rng := rand.New(rand.NewSource(1))
	if _, err := findSampled(cfg, 0, 0.02, rng); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := findSampled(cfg, 1.5, 0.02, rng); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	_, err := Find("randomized", cfg, Options{SampleRate: -0.5})
	if err == nil || errors.Is(err, ErrNoSeparator) {
		t.Fatalf("negative rate through the engine: got %v, want a hard error", err)
	}
}

// The engine derives its generator from Options.Seed alone, so equal
// arguments give equal results and the seed is what varies the sample.
func TestRandomizedSeededReproducibility(t *testing.T) {
	cfg := buildConfig(t, "stacked", 200, 3)
	run := func(seed int64) (*Result, error) {
		return Find("randomized", cfg, Options{Seed: seed, SampleRate: 0.5})
	}
	samples := map[int]bool{}
	for seed := int64(1); seed <= 5; seed++ {
		a, errA := run(seed)
		b, errB := run(seed)
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("seed %d: errors differ: %v vs %v", seed, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: results differ", seed)
		}
		if a != nil {
			samples[a.Samples] = true
		}
		var nse *NoSeparatorError
		if errors.As(errA, &nse) {
			samples[nse.Samples] = true
		}
	}
	if len(samples) < 2 {
		t.Fatalf("five seeds drew the same sample count %v: the seed is not threaded", samples)
	}
}

// With a full sample the estimator is exact: if a face exists in the band,
// the result is balanced.
func TestRandomizedFullSampleIsExact(t *testing.T) {
	okCnt, tried := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		cfg := buildConfig(t, "stacked", 60, seed)
		res, err := findSampled(cfg, 1.0, 0.0, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		tried++
		if res.sep == nil {
			continue
		}
		if res.estimateErr != 0 {
			t.Fatalf("full sample had estimation error %d", res.estimateErr)
		}
		n := cfg.G.N()
		if maxC := separator.VerifyBalance(cfg.G, res.sep.Path); 3*maxC > 2*n {
			t.Fatalf("full-sample separator unbalanced: %d of %d", maxC, n)
		}
		okCnt++
	}
	if okCnt == 0 {
		t.Fatalf("no instance had a direct in-band face (%d tried)", tried)
	}
}

// Small samples must fail (no face in the band, or an unbalanced one)
// noticeably more often than large samples — the quantitative story of
// E10.
func TestRandomizedBandFailureDropsWithSamples(t *testing.T) {
	fail := func(rate float64) int {
		fails := 0
		for seed := int64(1); seed <= 30; seed++ {
			cfg := buildConfig(t, "stacked", 80, seed)
			res, err := findSampled(cfg, rate, 0.05, rand.New(rand.NewSource(seed*77)))
			if err != nil {
				t.Fatal(err)
			}
			if res.sep == nil {
				fails++
				continue
			}
			n := cfg.G.N()
			if maxC := separator.VerifyBalance(cfg.G, res.sep.Path); 3*maxC > 2*n {
				fails++
			}
		}
		return fails
	}
	small, large := fail(0.05), fail(0.9)
	if small < large {
		t.Fatalf("failure did not drop with sample size: %d (5%%) vs %d (90%%)", small, large)
	}
	t.Logf("failures out of 30: rate 0.05 -> %d, rate 0.9 -> %d", small, large)
}
