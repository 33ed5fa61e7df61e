// Quickstart: build an embedded planar graph, compute a deterministic cycle
// separator (Theorem 1), and verify the guarantees.
package main

import (
	"fmt"
	"log"

	"planardfs"
)

func main() {
	// A random maximal planar graph with 500 vertices.
	in, err := planardfs.NewStackedTriangulation(500, 42)
	if err != nil {
		log.Fatal(err)
	}
	n := in.G.N()
	fmt.Printf("graph: %s  n=%d m=%d\n", in.Name, n, in.G.M())

	// A planar configuration: embedding + BFS spanning tree rooted on the
	// outer face.
	cfg, err := planardfs.NewConfig(in, planardfs.TreeBFS, planardfs.OuterRoot(in))
	if err != nil {
		log.Fatal(err)
	}

	// Theorem 1: the deterministic cycle separator (the empty engine name
	// selects the Theorem 1 engine), validated before it is returned.
	res, err := planardfs.FindCycleSeparator(cfg, "", planardfs.SeparatorEngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sep := res.Sep
	fmt.Printf("separator: %d vertices (T-path %d..%d), found by phase %q\n",
		len(sep.Path), sep.EndA, sep.EndB, sep.Phase)

	// Verify the 2n/3 balance guarantee.
	maxComp := planardfs.VerifySeparatorBalance(in.G, sep.Path)
	fmt.Printf("largest remaining component: %d of %d (bound %d)\n", maxComp, n, 2*n/3)
	if 3*maxComp > 2*n {
		log.Fatal("unbalanced separator — this must never happen")
	}

	// The rounds the call charged under the paper's shortcut bound, priced
	// at the depth of the configuration's BFS tree (depth <= D <= 2·depth).
	fmt.Printf("simulated CONGEST rounds (paper model, BFS depth %d): %d\n",
		cfg.Tree.MaxDepth(), res.Rounds)
}
