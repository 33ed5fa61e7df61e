package separator

import (
	"fmt"
	"sort"

	"planardfs/internal/planar"
)

// DecompositionNode is one node of a separator decomposition tree: a piece
// of the graph, the cycle separator that split it (empty at leaves), and
// its children (the components after removing the separator).
type DecompositionNode struct {
	// Vertices of the piece, ascending.
	Vertices []int
	// Separator vertices removed at this node (nil at leaf pieces).
	Separator []int
	// Phase of the separator computation (leaves: 0).
	Phase Phase
	// Children pieces.
	Children []*DecompositionNode
	// Depth in the decomposition tree (root: 0).
	Depth int
}

// Decomposition is a full recursive separator decomposition of an embedded
// planar graph — the divide-and-conquer skeleton behind the classical
// separator applications (Lipton–Tarjan) and the paper's DFS recursion.
type Decomposition struct {
	Root *DecompositionNode
	// MaxDepth of the tree; O(log n) by the 2/3 balance.
	MaxDepth int
	// SeparatorMass is the total number of separator vertices over all
	// internal nodes.
	SeparatorMass int
	// Leaves counts the leaf pieces.
	Leaves int
}

// Decompose recursively splits the embedded graph with find's cycle
// separators until pieces have at most leafSize vertices. Each piece is
// split as ForPartition splits a part, rooted in the region of outerDart's
// face, on one workspace that splits each piece on its own.
func Decompose(emb *planar.Embedding, outerDart, leafSize int, find FindFunc) (*Decomposition, error) {
	g := emb.Graph()
	if leafSize < 1 {
		return nil, fmt.Errorf("separator: leaf size %d < 1", leafSize)
	}
	if err := emb.CheckOuterDart(outerDart); err != nil {
		return nil, err
	}
	if !g.Connected() {
		return nil, fmt.Errorf("separator: graph is not connected")
	}
	d := &Decomposition{}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	ws := NewWorkspace(emb)
	var build func(vs []int, depth int) (*DecompositionNode, error)
	build = func(vs []int, depth int) (*DecompositionNode, error) {
		node := &DecompositionNode{Vertices: vs, Depth: depth}
		if depth > d.MaxDepth {
			d.MaxDepth = depth
		}
		if len(vs) <= leafSize {
			d.Leaves++
			return node, nil
		}
		dart, err := emb.OuterRegionDart(vs, outerDart)
		if err != nil {
			return nil, fmt.Errorf("depth %d piece of %d: %w", depth, len(vs), err)
		}
		if err := ws.Split([][]int{vs}); err != nil {
			return nil, fmt.Errorf("depth %d piece of %d: %w", depth, len(vs), err)
		}
		sep, err := ForSubset(ws, 0, dart, find)
		if err != nil {
			return nil, fmt.Errorf("depth %d piece of %d: %w", depth, len(vs), err)
		}
		node.Separator = sep.Path
		node.Phase = sep.Phase
		d.SeparatorMass += len(sep.Path)
		// The children are the components of the piece minus the
		// separator, ordered by smallest vertex.
		removed := make([]bool, g.N())
		for v := range removed {
			removed[v] = true
		}
		for _, v := range vs {
			removed[v] = false
		}
		for _, v := range sep.Path {
			removed[v] = true
		}
		for _, comp := range g.ComponentsAvoidingMask(removed) {
			sort.Ints(comp)
			child, err := build(comp, depth+1)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, child)
		}
		return node, nil
	}
	root, err := build(all, 0)
	if err != nil {
		return nil, err
	}
	d.Root = root
	return d, nil
}

// Walk visits every node of the decomposition tree in preorder.
func (d *Decomposition) Walk(fn func(*DecompositionNode)) {
	var rec func(n *DecompositionNode)
	rec = func(n *DecompositionNode) {
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(d.Root)
}
