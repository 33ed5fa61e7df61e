// Package shortcut implements the part-wise aggregation (PA) layer the
// paper builds on (Definition 6, Propositions 2, 4 and 5): the primitive
// "every part of a vertex partition learns an aggregate of its members'
// values in Õ(D) rounds", provided for planar graphs by the deterministic
// low-congestion shortcuts of Haeupler, Hershkowitz and Wajc [10].
//
// Three forms are provided, all computing identical outputs:
//
//   - PaperCost: a round-cost oracle charging the cited deterministic bound
//     Õ(D) = (D+1)·⌈log₂ n⌉² per PA call (the paper treats [10] as a black
//     box; so do we, with the cost made explicit).
//   - PipelinedCost: the cost of the message-level pipelined aggregation
//     over a global BFS tree implemented in package congest — O(D + k).
//   - RunPA: the actual message-level execution (used to cross-validate
//     both the values and the PipelinedCost estimate).
//
// The package also measures the quality (congestion, dilation) of
// tree-restricted shortcuts on planar partitions, the structural quantity
// behind Proposition 2.
package shortcut

import (
	"fmt"
	"math/bits"

	"planardfs/internal/congest"
	"planardfs/internal/graph"
	"planardfs/internal/spanning"
)

// Partition is a vertex partition with connected parts.
type Partition struct {
	PartOf []int   // PartOf[v] is the part index of v
	Parts  [][]int // Parts[i] lists the vertices of part i
}

// NewPartition builds a Partition from a part-of array; part indices must be
// 0..k-1 with every index used.
func NewPartition(partOf []int) (*Partition, error) {
	k := 0
	for _, p := range partOf {
		if p < 0 {
			return nil, fmt.Errorf("shortcut: negative part id %d", p)
		}
		if p+1 > k {
			k = p + 1
		}
	}
	parts := make([][]int, k)
	for v, p := range partOf {
		parts[p] = append(parts[p], v)
	}
	for i, part := range parts {
		if len(part) == 0 {
			return nil, fmt.Errorf("shortcut: part %d is empty", i)
		}
	}
	return &Partition{PartOf: append([]int(nil), partOf...), Parts: parts}, nil
}

// K returns the number of parts.
func (p *Partition) K() int { return len(p.Parts) }

// Validate checks that each part induces a connected subgraph of g.
func (p *Partition) Validate(g *graph.Graph) error {
	ind := graph.NewInducer(g)
	if err := ind.Split(p.Parts); err != nil {
		return err
	}
	for i := range p.Parts {
		if !ind.Induce(i).Connected() {
			return fmt.Errorf("shortcut: part %d induces a disconnected subgraph", i)
		}
	}
	return nil
}

// Op identifies a communication primitive for cost accounting.
type Op int

// Primitives charged by cost models.
const (
	// OpPA is one part-wise aggregation or part-wide broadcast: every part
	// learns one O(log n)-bit aggregate (Prop. 4).
	OpPA Op = iota + 1
	// OpTreeAgg is one ancestor- or descendant-sum over the per-part
	// spanning trees (Prop. 5, ANCESTOR-SUM / DESCENDANT-SUM).
	OpTreeAgg
	// OpLocal is one round of local exchange with direct neighbours.
	OpLocal
)

// CostModel converts communication primitives into round costs.
type CostModel interface {
	// Cost returns the rounds charged for one invocation of op with k parts.
	Cost(op Op, k int) int
	// Name identifies the model in experiment output.
	Name() string
}

// Log2Ceil returns ⌈log₂ x⌉ for x >= 1 (and 1 for x <= 2).
func Log2Ceil(x int) int {
	if x <= 2 {
		return 1
	}
	return bits.Len(uint(x - 1))
}

// PaperCost charges the deterministic planar bounds the paper cites:
// Õ(D) = (D+1)·⌈log₂ n⌉² rounds per PA or tree-aggregation call.
type PaperCost struct {
	D int // depth of the aggregation tree (depth ≤ diameter ≤ 2·depth)
	N int // vertex count
}

// Cost implements CostModel.
func (c PaperCost) Cost(op Op, k int) int {
	switch op {
	case OpPA, OpTreeAgg:
		l := Log2Ceil(c.N + 1)
		return (c.D + 1) * l * l
	case OpLocal:
		return 1
	}
	panic(fmt.Sprintf("shortcut: unknown op %d", int(op)))
}

// Name implements CostModel.
func (c PaperCost) Name() string { return "paper-shortcuts" }

// PipelinedCost charges the measured shape of the message-level pipelined
// BFS-tree aggregation: 2·(depth + k) + O(1) rounds per PA call.
type PipelinedCost struct {
	Depth int // global BFS tree depth (<= D)
}

// Cost implements CostModel.
func (c PipelinedCost) Cost(op Op, k int) int {
	switch op {
	case OpPA, OpTreeAgg:
		return 2*(c.Depth+k) + 4
	case OpLocal:
		return 1
	}
	panic(fmt.Sprintf("shortcut: unknown op %d", int(op)))
}

// Name implements CostModel.
func (c PipelinedCost) Name() string { return "pipelined-bfs" }

// PAResult is the outcome of a message-level part-wise aggregation.
type PAResult struct {
	Values []int // Values[v] is the aggregate of v's part
	Rounds int
	Stats  congest.Stats
}

// RunPA executes the pipelined part-wise aggregation as a real CONGEST
// program over the BFS tree of g rooted at root, aggregating value with op
// per part of the partition.
func RunPA(g *graph.Graph, root int, part *Partition, value []int, op congest.AggOp) (*PAResult, error) {
	tree, err := spanning.BFSTree(g, root)
	if err != nil {
		return nil, err
	}
	return RunPAOn(congest.New(g), tree, part, value, op)
}

// RunPAOn is RunPA over a caller-configured network and a caller-built
// spanning tree of its graph: the word budget and tracer are taken from nw
// as-is, and the aggregation runs over tree from tree.Root. It rejects a
// value array, a partition or a tree whose length is not the graph's vertex
// count, and a tree whose root or parents are not vertices of the graph.
func RunPAOn(nw *congest.Network, tree *spanning.Tree, part *Partition, value []int, op congest.AggOp) (*PAResult, error) {
	g := nw.G
	if err := checkTree(g, tree); err != nil {
		return nil, err
	}
	if len(value) != g.N() {
		return nil, fmt.Errorf("shortcut: %d values for %d vertices", len(value), g.N())
	}
	if len(part.PartOf) != g.N() {
		return nil, fmt.Errorf("shortcut: partition of %d vertices for %d vertices", len(part.PartOf), g.N())
	}
	prog := congest.NewPAProgram(nw, tree.Parent, tree.Root)
	rounds, err := runPA(nw, prog, part.PartOf, value, op, paBudget(tree, part.K()))
	if err != nil {
		return nil, err
	}
	out := make([]int, g.N())
	for v := range out {
		out[v] = prog.Node(v).Result
	}
	return &PAResult{Values: out, Rounds: rounds, Stats: nw.Stats()}, nil
}

// checkTree rejects a spanning tree whose length is not g's vertex count,
// or whose root or non-root parents are not vertices of g.
func checkTree(g *graph.Graph, tree *spanning.Tree) error {
	if len(tree.Parent) != g.N() {
		return fmt.Errorf("shortcut: spanning tree of %d vertices for %d vertices", len(tree.Parent), g.N())
	}
	if tree.Root < 0 || tree.Root >= g.N() {
		return fmt.Errorf("shortcut: tree root %d out of range [0,%d)", tree.Root, g.N())
	}
	for v, p := range tree.Parent {
		if v != tree.Root && (p < 0 || p >= g.N()) {
			return fmt.Errorf("shortcut: tree parent %d of vertex %d out of range [0,%d)", p, v, g.N())
		}
	}
	return nil
}

// paBudget is the round limit of a k-part aggregation over tree.
func paBudget(tree *spanning.Tree, k int) int { return 20 * (tree.MaxDepth() + k + 10) }

// runPA resets prog for an aggregation of value under op over the parts
// partOf, runs it on nw and checks that every node received its part's
// aggregate.
func runPA(nw *congest.Network, prog *congest.PAProgram, partOf, value []int, op congest.AggOp, maxRounds int) (int, error) {
	nodes := prog.Reset(partOf, value, op)
	rounds, err := nw.Run(nodes, maxRounds)
	if err != nil {
		return 0, err
	}
	for v := range nodes {
		if !prog.Node(v).HasResult {
			return 0, fmt.Errorf("shortcut: node %d missing PA result", v)
		}
	}
	return rounds, nil
}
