package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"planardfs/internal/serve"
)

// smokeSizes shrinks every workload to a few small instances.
var smokeSizes = sizes{
	stackedN:      60,
	stackedCount:  3,
	gridSides:     []int{6, 7},
	cylinderN:     []int{40, 60},
	queryStackedN: 60,
	queryGridN:    49,
	queryCount:    50,
	setupRepeats:  2,
	minOps:        1,
	warmupOps:     1,
	warmupQueries: 10,
}

// metricSpec is the metric list of BENCHMARK.json.
type metricSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readMetricSpec(t *testing.T) metricSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c metricSpec
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmoke runs every workload untraced and traced on small inputs: all
// output checks must pass and the printed metrics must be exactly the
// ones BENCHMARK.json lists, with the units it names.
func TestSmoke(t *testing.T) {
	c := readMetricSpec(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			out, err := runWorkload(ctx, runConfig{workload: name, seed: 7, seconds: 0.3, traced: traced}, smokeSizes)
			cancel()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			r := out.res
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					name, traced, r.Correct, r.Attempted, r.Failed, out.det.Failures)
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced {
				for _, m := range want {
					if r.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", name, m.Name, r.Metrics[m.Name].Value)
					}
				}
				continue
			}
			wantHit := 0.0
			if name == "query-cached" {
				wantHit = 1
			}
			if got := r.Metrics["serve.cache_hit_ratio"].Value; got != wantHit {
				t.Errorf("%s: serve.cache_hit_ratio = %v, want %v", name, got, wantHit)
			}
			if got := r.Metrics["replay.coverage"].Value; got <= 0 {
				t.Errorf("%s: replay.coverage = %v", name, got)
			}
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := out.spans.write(path); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestColdChecksCatchCacheHit submits every cold input twice to one
// server: the first submission must pass the cold checks and the second,
// a cache hit, must fail them.
func TestColdChecksCatchCacheHit(t *testing.T) {
	ctx := context.Background()
	w := &coldWorkload{kind: "grid", seed: 1, sz: smokeSizes}
	h := newHarness(false)
	defer h.close()
	if err := w.setup(ctx, h, nil); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{})
	defer srv.Shutdown(ctx)
	h.install(srv)
	for i, x := range w.inputs {
		for round := 0; round < 2; round++ {
			r, err := h.runJob(ctx, x.body)
			if err != nil {
				t.Fatal(err)
			}
			err = w.check(ctx, h, i, r)
			if (err == nil) != (round == 0) {
				t.Errorf("%s submission %d: check error %v", x.label, round+1, err)
			}
		}
	}
}
