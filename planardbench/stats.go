package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs and how many samples rank strictly beyond it. Integer rank
// arithmetic keeps p90 of 100 samples at rank 90, not 91.
func percentile(xs []float64, p int) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := (p*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// mean is the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// meanInts is mean over integer samples.
func meanInts(xs []int) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return mean(fs)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its direct children (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, children[i], s.Start, s.End)
	}
	return self
}

// covered measures the union of the child intervals clipped to [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, x := range ivs {
		if x.b <= end {
			continue
		}
		total += x.b - max(x.a, end)
		end = x.b
	}
	return total
}

// coverage is the median over ops of the summed top-level layer spans
// (the direct children of each op's root span) divided by the untraced
// median op time. A value far from 1 flags a replay that has drifted from
// the real serve path.
func coverage(spans []span, untracedP50ms float64) float64 {
	if untracedP50ms <= 0 {
		return 0
	}
	perOp := map[int]float64{}
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == rootSpan {
			perOp[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	sums := make([]float64, 0, len(perOp))
	for _, v := range perOp {
		sums = append(sums, v)
	}
	return median(sums) / untracedP50ms
}

// rtSample reads the runtime/metrics counters the benchmark reports:
// heap bytes allocated, GC cycles, and GC and total CPU seconds.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	liveBytes  uint64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// rtReader reuses one sample slice so a read does not allocate.
type rtReader struct{ s []metrics.Sample }

func newRTReader() *rtReader {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	return &rtReader{s: s}
}

func (r *rtReader) read() rtSample {
	metrics.Read(r.s)
	return rtSample{
		allocBytes: r.s[0].Value.Uint64(),
		gcCycles:   r.s[1].Value.Uint64(),
		gcCPU:      r.s[2].Value.Float64(),
		totalCPU:   r.s[3].Value.Float64(),
		liveBytes:  r.s[4].Value.Uint64(),
	}
}

// allocBytes reads only the cumulative heap allocation counter.
func (r *rtReader) allocBytes() uint64 {
	metrics.Read(r.s[:1])
	return r.s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// environment is the block every result carries so a number can be
// traced to the machine and build that produced it.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

func readEnvironment() environment {
	return environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Revision:   revision(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
