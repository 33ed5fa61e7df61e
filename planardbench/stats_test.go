package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n, p   int
		want   float64
		beyond int
	}{
		{100, 90, 90, 10},
		{100, 50, 50, 50},
		{1000, 99, 990, 10},
		{4, 50, 2, 2},
		{5, 50, 3, 2},
		{1, 99, 1, 0},
		{10, 100, 10, 0},
	}
	for _, c := range cases {
		got, beyond := percentile(seq(c.n), c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%d of 1..%d = %v (%d beyond), want %v (%d beyond)", c.p, c.n, got, beyond, c.want, c.beyond)
		}
	}
	if v, b := percentile(nil, 50); v != 0 || b != 0 {
		t.Errorf("empty percentile = %v, %d", v, b)
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 {
		t.Error("percentile reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: rootSpan, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "dfs.build", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "separator.find", Start: 20, End: 40},
		{ID: 3, Parent: 1, Name: "separator.find", Start: 30, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "separator.find", Start: 85, End: 95}, // runs past its parent
	}
	want := []int64{20, 80 - 30 - 5, 20, 20, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCoverage(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Name: rootSpan, Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Op: 0, Name: "gen.decode", Start: 0, End: 2 * ms},
		{ID: 2, Parent: 0, Op: 0, Name: "chaos.supervise", Start: 2 * ms, End: 8 * ms},
		{ID: 3, Parent: 2, Op: 0, Name: "dfs.build", Start: 2 * ms, End: 7 * ms}, // nested: not summed
		{ID: 4, Parent: -1, Op: 0, Name: "dfs.untraced", Start: 10 * ms, End: 14 * ms},
		{ID: 5, Parent: -1, Op: 1, Name: rootSpan, Start: 20 * ms, End: 30 * ms},
		{ID: 6, Parent: 5, Op: 1, Name: "gen.decode", Start: 20 * ms, End: 30 * ms},
		{ID: 7, Parent: -1, Op: 2, Name: rootSpan, Start: 40 * ms, End: 50 * ms},
		{ID: 8, Parent: 7, Op: 2, Name: "gen.decode", Start: 40 * ms, End: 49 * ms},
	}
	// Per-op top-level sums are 8, 10 and 9 ms; their median over a 10 ms
	// untraced op is 0.9.
	if got := coverage(spans, 10); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("coverage = %v, want 0.9", got)
	}
	if got := coverage(spans, 0); got != 0 {
		t.Errorf("coverage with no untraced time = %v, want 0", got)
	}
}
