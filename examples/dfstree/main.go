// DFS tree construction (Theorem 2) on a grid, with verification and a
// round-cost comparison against Awerbuch's classical O(n) algorithm.
package main

import (
	"context"
	"fmt"
	"log"

	"planardfs"
)

func main() {
	in, err := planardfs.NewGrid(24, 24)
	if err != nil {
		log.Fatal(err)
	}
	n := in.G.N()
	root := planardfs.OuterRoot(in)
	// The depth of the BFS tree from root, which prices the rounds.
	depth := in.G.Eccentricity(root)
	fmt.Printf("graph: %s  n=%d  BFS depth=%d  root=%d\n", in.Name, n, depth, root)

	// Theorem 2 through the certified pipeline, rooted at OuterRoot.
	res, err := planardfs.Run(context.Background(), in, planardfs.PipelineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := planardfs.VerifyDFSTree(in.G, root, res.Parent); err != nil {
		log.Fatal(err)
	}
	trace := res.DFSTrace
	fmt.Printf("DFS tree verified: every edge connects an ancestor-descendant pair\n")
	fmt.Printf("recursion phases: %d (log_{3/2} n ≈ %.1f)\n", trace.Phases, logBase(1.5, n))
	fmt.Printf("max component per phase: %v\n", trace.MaxComponent)
	fmt.Printf("separator phases used: %v\n", trace.SeparatorPhases)
	fmt.Printf("join sub-phases: total %d, max per join %d\n",
		trace.JoinSubPhases, trace.MaxJoinSubPhases)

	// The rounds the build charged, priced at the BFS depth.
	fmt.Printf("simulated rounds: deterministic Õ(D) = %d, Awerbuch Θ(n) = %d\n",
		res.DFSRounds, planardfs.AwerbuchRounds(n))

	// Run Awerbuch for real at the message level.
	parent, stats, err := planardfs.RunAwerbuchDFS(in.G, root)
	if err != nil {
		log.Fatal(err)
	}
	if err := planardfs.VerifyDFSTree(in.G, root, parent); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Awerbuch (message-level): %d rounds, %d messages\n",
		stats.Rounds, stats.Messages)
}

func logBase(b float64, n int) float64 {
	x, c := float64(n), 0.0
	for x > 1 {
		x /= b
		c++
	}
	return c
}
