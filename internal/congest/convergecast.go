package congest

// ConvergecastNode aggregates a value up a given tree: every node combines
// its own input with its children's aggregates and forwards the result to
// its parent; the root learns the aggregate of the whole tree in depth(T)
// rounds. The classic building block behind the SUM-TREE and
// DESCENDANT-SUM problems (Prop. 5) when run over a BFS tree.
//
// After the run, every node's Subtree field holds the aggregate of its own
// subtree (so the program simultaneously solves the descendant-sum
// problem).
type ConvergecastNode struct {
	info       NodeInfo
	op         AggOp
	parentPort int
	waiting    map[int]bool // child ports not yet reported
	acc        int
	sent       bool

	// Subtree is the aggregate over the node's subtree (valid once the
	// node has reported; always valid after the run).
	Subtree int
}

const msgConverge = 100

// NewConvergecastNodes builds the convergecast programs over the tree given
// by parent (parent[root] == -1), aggregating value with op.
func NewConvergecastNodes(nw *Network, parent []int, root int, value []int, op AggOp) []Node {
	n := nw.G.N()
	children := make([][]int, n)
	for v := 0; v < n; v++ {
		if v != root {
			children[parent[v]] = append(children[parent[v]], v)
		}
	}
	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		cn := &ConvergecastNode{
			info:       nw.Info(v),
			op:         op,
			parentPort: -1,
			waiting:    map[int]bool{},
			acc:        value[v],
		}
		if v != root {
			cn.parentPort = cn.info.PortTo(parent[v])
		}
		for _, c := range children[v] {
			cn.waiting[cn.info.PortTo(c)] = true
		}
		nodes[v] = cn
	}
	return nodes
}

// Round implements Node.
func (cn *ConvergecastNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	for _, in := range recv {
		if in.Msg.Kind != msgConverge {
			continue
		}
		if cn.waiting[in.Port] {
			delete(cn.waiting, in.Port)
			var p intPayload
			Unpack(in.Msg, &p)
			cn.acc = cn.op.combine(cn.acc, p.Val)
		}
	}
	if len(cn.waiting) > 0 || cn.sent {
		return nil, cn.sent
	}
	cn.Subtree = cn.acc
	cn.sent = true
	if cn.parentPort < 0 {
		return nil, true
	}
	return []Outgoing{{Port: cn.parentPort, Msg: Pack(msgConverge, &intPayload{Val: cn.acc})}}, true
}
