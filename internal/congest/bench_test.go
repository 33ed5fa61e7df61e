package congest

// Round-engine benchmarks over the standard generator families. The
// quiescent benchmark measures one steady-state round per op (the whole
// Run spans b.N rounds), so `go test -bench BenchmarkRun -benchmem` must
// report 0 allocs/op there: the round loop's only amortized growth is the
// RoundMessages histogram. The program benchmarks measure full runs of
// BFS flooding, part-wise aggregation, and the Awerbuch message-level DFS;
// `benchjson -mode congest` (the default mode) records the same runs in
// BENCH_congest.json, with rounds and messages under det and ns, bytes and
// allocs per op under host.

import (
	"errors"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/spanning"
)

func benchGraph(b *testing.B, family string, n int) *graph.Graph {
	b.Helper()
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	return in.G
}

// BenchmarkRunQuiescentRound: op = one round of a network where every node
// is silent and never done, so the run spans exactly b.N rounds and ends at
// the round limit. Steady state must be allocation-free.
func BenchmarkRunQuiescentRound(b *testing.B) {
	g := benchGraph(b, "grid", 1024)
	nodes := make([]Node, g.N())
	for i := range nodes {
		nodes[i] = &silentNode{}
	}
	nw := New(g)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := nw.Run(nodes, b.N); !errors.Is(err, ErrRoundLimit) {
		b.Fatal(err)
	}
}

func benchFamilies() []string { return []string{"grid", "cylinderish", "stacked"} }

// BenchmarkRunBFS: op = a full BFS flood from vertex 0.
func BenchmarkRunBFS(b *testing.B) {
	for _, fam := range benchFamilies() {
		b.Run(fam, func(b *testing.B) {
			g := benchGraph(b, fam, 1024)
			nw := New(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Run(NewBFSNodes(nw, 0), 10*g.N()+100); err != nil {
					b.Fatal(err)
				}
			}
			st := nw.Stats()
			b.ReportMetric(float64(st.Rounds), "rounds")
			b.ReportMetric(float64(st.Messages), "msgs")
		})
	}
}

// BenchmarkRunPA: op = a pipelined part-wise aggregation (16 parts, OpSum)
// over a BFS tree.
func BenchmarkRunPA(b *testing.B) {
	for _, fam := range benchFamilies() {
		b.Run(fam, func(b *testing.B) {
			g := benchGraph(b, fam, 1024)
			tree, err := spanning.BFSTree(g, 0)
			if err != nil {
				b.Fatal(err)
			}
			partOf := make([]int, g.N())
			value := make([]int, g.N())
			for v := range partOf {
				partOf[v] = v % 16
				value[v] = 1
			}
			nw := New(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nodes := NewPANodes(nw, tree.Parent, 0, partOf, value, OpSum)
				if _, err := nw.Run(nodes, 100*g.N()+1000); err != nil {
					b.Fatal(err)
				}
			}
			st := nw.Stats()
			b.ReportMetric(float64(st.Rounds), "rounds")
			b.ReportMetric(float64(st.Messages), "msgs")
		})
	}
}

// BenchmarkRunDFS: op = a full message-level Awerbuch DFS from vertex 0.
func BenchmarkRunDFS(b *testing.B) {
	for _, fam := range benchFamilies() {
		b.Run(fam, func(b *testing.B) {
			g := benchGraph(b, fam, 1024)
			nw := New(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Run(NewAwerbuchNodes(nw, 0), 10*g.N()); err != nil {
					b.Fatal(err)
				}
			}
			st := nw.Stats()
			b.ReportMetric(float64(st.Rounds), "rounds")
			b.ReportMetric(float64(st.Messages), "msgs")
		})
	}
}
