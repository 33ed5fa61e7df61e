package congest

// AncestorSumNode solves the ANCESTOR-SUM-PROBLEM of Proposition 5 at the
// message level over a given tree: every node learns the aggregate of the
// inputs of its ancestors (inclusive of itself). The root seeds the
// downcast; each node combines the prefix received from its parent with its
// own input and forwards the result to its children — depth(T) rounds.
// The convergecast half of FoldProgram is the other direction of Prop. 5
// (the whole-tree descendant sum).
type AncestorSumNode struct {
	info       NodeInfo
	op         AggOp
	value      int
	parentPort int
	childPorts []int
	have       bool
	sent       bool

	// Prefix is the aggregate over the node's ancestors including itself.
	Prefix int
}

const msgAncestor = 110

// NewAncestorSumNodes builds the ancestor-sum programs over the tree given
// by parent (parent[root] == -1).
func NewAncestorSumNodes(nw *Network, parent []int, root int, value []int, op AggOp) []Node {
	n := nw.G.N()
	children := make([][]int, n)
	for v := 0; v < n; v++ {
		if v != root {
			children[parent[v]] = append(children[parent[v]], v)
		}
	}
	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		an := &AncestorSumNode{
			info:       nw.Info(v),
			op:         op,
			value:      value[v],
			parentPort: -1,
		}
		if v != root {
			an.parentPort = an.info.PortTo(parent[v])
		} else {
			an.have = true
			an.Prefix = value[v]
		}
		for _, c := range children[v] {
			an.childPorts = append(an.childPorts, an.info.PortTo(c))
		}
		nodes[v] = an
	}
	return nodes
}

// Round implements Node.
func (an *AncestorSumNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	for _, in := range recv {
		if in.Msg.Kind == msgAncestor && in.Port == an.parentPort && !an.have {
			an.have = true
			an.Prefix = an.op.combine(in.Msg.Args[0], an.value)
		}
	}
	if !an.have || an.sent {
		return nil, an.have
	}
	an.sent = true
	out := make([]Outgoing, 0, len(an.childPorts))
	for _, p := range an.childPorts {
		out = append(out, Outgoing{Port: p, Msg: Message{Kind: msgAncestor, Args: []int{an.Prefix}}})
	}
	return out, true
}
