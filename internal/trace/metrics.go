package trace

import (
	"fmt"
	"io"
	"slices"
)

// DefaultBounds are the histogram bucket upper bounds used when none are
// given: powers of two from 1 to 2^20, with an overflow bucket above.
// Everything the stack observes (rounds per invocation, messages per round,
// per-edge loads, part sizes) is a count whose interesting structure is its
// order of magnitude, so power-of-two buckets fit every metric.
var DefaultBounds = func() []int64 {
	var b []int64
	for x := int64(1); x <= 1<<20; x *= 2 {
		b = append(b, x)
	}
	return b
}()

// Histogram is a fixed-bucket histogram over int64 observations. Counts[i]
// tallies observations <= Bounds[i] (and greater than Bounds[i-1]); the
// final Counts entry is the overflow bucket.
type Histogram struct {
	Bounds []int64
	Counts []int64
	N      int64
	Sum    int64
	Min    int64
	Max    int64
}

// NewHistogram returns a histogram with the given bucket upper bounds
// (strictly increasing), or DefaultBounds when nil.
func NewHistogram(bounds []int64) *Histogram {
	if bounds == nil {
		bounds = DefaultBounds
	}
	return &Histogram{
		Bounds: append([]int64(nil), bounds...),
		Counts: make([]int64, len(bounds)+1),
	}
}

// Observe adds one observation.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN adds k observations of v; k <= 0 adds none.
func (h *Histogram) ObserveN(v, k int64) {
	if k <= 0 {
		return
	}
	i := 0
	for i < len(h.Bounds) && v > h.Bounds[i] {
		i++
	}
	h.Counts[i] += k
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if h.N == 0 || v > h.Max {
		h.Max = v
	}
	h.N += k
	h.Sum += k * v
}

// Merge adds o's observations, as if each had been observed on h. The two
// histograms must have the same bounds.
func (h *Histogram) Merge(o *Histogram) {
	if !slices.Equal(h.Bounds, o.Bounds) {
		panic("trace: merging histograms with different bounds")
	}
	if o.N == 0 {
		return
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	if h.N == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if h.N == 0 || o.Max > h.Max {
		h.Max = o.Max
	}
	h.N += o.N
	h.Sum += o.Sum
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.Bounds = append([]int64(nil), h.Bounds...)
	c.Counts = append([]int64(nil), h.Counts...)
	return &c
}

// WriteMetrics writes a human-readable table of every counter, gauge and
// histogram to w, names sorted, suitable for the -metrics flag of the CLIs.
// It prints one MetricsSnapshot.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	m := r.MetricsSnapshot()
	if len(m.Counters) > 0 {
		fmt.Fprintf(w, "%-40s %14s\n", "counter", "value")
		for _, c := range m.Counters {
			fmt.Fprintf(w, "%-40s %14d\n", c.Name, c.Value)
		}
	}
	if len(m.Gauges) > 0 {
		fmt.Fprintf(w, "%-40s %14s\n", "gauge", "value")
		for _, g := range m.Gauges {
			fmt.Fprintf(w, "%-40s %14d\n", g.Name, g.Value)
		}
	}
	for _, nh := range m.Histograms {
		h := nh.Hist
		fmt.Fprintf(w, "histogram %s: n=%d sum=%d min=%d max=%d mean=%.2f\n",
			nh.Name, h.N, h.Sum, h.Min, h.Max, h.Mean())
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(w, "  le %-12d %10d\n", h.Bounds[i], c)
			} else {
				fmt.Fprintf(w, "  le %-12s %10d\n", "+inf", c)
			}
		}
	}
	return nil
}
