package planardfs_test

import (
	"context"
	"fmt"

	"planardfs"
)

// ExampleFindCycleSeparator demonstrates Theorem 1: a deterministic cycle
// separator with the 2n/3 balance guarantee.
func ExampleFindCycleSeparator() {
	in, _ := planardfs.NewStackedTriangulation(200, 7)
	cfg, _ := planardfs.NewConfig(in, planardfs.TreeBFS, planardfs.OuterRoot(in))
	res, _ := planardfs.FindCycleSeparator(cfg, "", planardfs.SeparatorEngineOptions{})
	maxComp := planardfs.VerifySeparatorBalance(in.G, res.Sep.Path)
	fmt.Println("balanced:", 3*maxComp <= 2*in.G.N())
	// Output: balanced: true
}

// ExampleRun demonstrates Theorem 2: a certified DFS tree built by
// recursive separator joining.
func ExampleRun() {
	in, _ := planardfs.NewGrid(10, 10)
	res, _ := planardfs.Run(context.Background(), in, planardfs.PipelineOptions{})
	fmt.Println("certified:", res.Recovery.Outcome == planardfs.RecoveryCertified)
	fmt.Println("valid DFS tree:", planardfs.VerifyDFSTree(in.G, planardfs.OuterRoot(in), res.Parent) == nil)
	// Output:
	// certified: true
	// valid DFS tree: true
}
