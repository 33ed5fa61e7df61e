// Message-level CONGEST demo: run the pipelined part-wise aggregation and
// Awerbuch's DFS as real node programs with enforced O(log n)-bit messages,
// and compare the measured rounds with the charged cost models.
package main

import (
	"fmt"
	"log"

	"planardfs"
)

func main() {
	in, err := planardfs.NewGrid(20, 20)
	if err != nil {
		log.Fatal(err)
	}
	g := in.G
	n := g.N()
	// The aggregation runs over the BFS tree from vertex 0; its depth
	// prices the estimates.
	depth := g.Eccentricity(0)
	fmt.Printf("graph: %s  n=%d  BFS depth=%d\n", in.Name, n, depth)

	// Part-wise aggregation with a growing number of parts: the measured
	// rounds follow O(depth + k).
	fmt.Println("\npipelined part-wise aggregation (message level):")
	fmt.Printf("%6s %10s %14s %14s\n", "k", "rounds", "pipelined-est", "paper-est")
	for _, k := range []int{1, 4, 16, 64} {
		partOf := make([]int, n)
		value := make([]int, n)
		for v := range partOf {
			partOf[v] = v % k
			value[v] = 1
		}
		part, err := planardfs.NewPartition(partOf)
		if err != nil {
			log.Fatal(err)
		}
		_, stats, err := planardfs.RunPartwiseSum(g, 0, part, value)
		if err != nil {
			log.Fatal(err)
		}
		pipe := planardfs.PipelinedCost{Depth: depth}
		paper := planardfs.PaperCost{D: depth, N: n}
		fmt.Printf("%6d %10d %14d %14d\n", k, stats.Rounds,
			(planardfs.Ops{PA: 1}).Rounds(pipe, k),
			(planardfs.Ops{PA: 1}).Rounds(paper, k))
	}

	// Awerbuch's DFS at the message level: Θ(n) rounds, verified output.
	fmt.Println("\nAwerbuch token DFS (message level):")
	parent, stats, err := planardfs.RunAwerbuchDFS(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := planardfs.VerifyDFSTree(g, 0, parent); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rounds %d (bound %d), messages %d, max edge load %d\n",
		stats.Rounds, planardfs.AwerbuchRounds(n), stats.Messages, stats.MaxEdgeLoad)
}
