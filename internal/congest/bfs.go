package congest

// PortTo returns the port leading to the neighbour with the given ID, or -1.
func (ni NodeInfo) PortTo(id int) int {
	for p, w := range ni.Neighbors {
		if w == id {
			return p
		}
	}
	return -1
}

// Message kinds shared by the built-in programs.
const (
	msgBFS = iota + 1
	msgPAPair
	msgPAEnd
	msgDownPair
	msgDownEnd
	msgVisited
	msgToken
	msgReturn
	msgCast
)

// BFSNode is the per-vertex program of distributed BFS flooding from a root.
// After the run, Dist and ParentID hold the BFS distance and tree parent.
type BFSNode struct {
	info     NodeInfo
	root     int
	Dist     int
	ParentID int
	pending  bool // a better distance was adopted and must be re-announced
}

// NewBFSNodes builds the node programs for a BFS from root.
func NewBFSNodes(nw *Network, root int) []Node {
	nodes := make([]Node, nw.G.N())
	for v := 0; v < nw.G.N(); v++ {
		bn := &BFSNode{info: nw.Info(v), root: root, Dist: -1, ParentID: -1}
		if v == root {
			bn.Dist = 0
			bn.pending = true
		}
		nodes[v] = bn
	}
	return nodes
}

// Round implements Node.
func (bn *BFSNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	for _, in := range recv {
		if in.Msg.Kind != msgBFS {
			continue
		}
		var p intPayload
		Unpack(in.Msg, &p)
		d := p.Val + 1
		if bn.Dist < 0 || d < bn.Dist {
			bn.Dist = d
			bn.ParentID = bn.info.Neighbors[in.Port]
			bn.pending = true
		}
	}
	if !bn.pending {
		return nil, true
	}
	bn.pending = false
	out := make([]Outgoing, 0, len(bn.info.Neighbors))
	announce := Pack(msgBFS, &intPayload{Val: bn.Dist})
	for p := range bn.info.Neighbors {
		out = append(out, Outgoing{Port: p, Msg: announce})
	}
	return out, true
}

// CastNode floods a single value down a given tree from the root
// (a tree broadcast): each node learns the root's value in depth(v) rounds.
type CastNode struct {
	info       NodeInfo
	parentPort int // -1 at root
	Value      int
	Has        bool
	pending    bool
}

// NewBroadcastNodes builds a broadcast of value from root over the tree
// given by the parent array (parent[root] == -1).
func NewBroadcastNodes(nw *Network, parent []int, root, value int) []Node {
	nodes := make([]Node, nw.G.N())
	for v := 0; v < nw.G.N(); v++ {
		cn := &CastNode{info: nw.Info(v), parentPort: -1}
		if v != root {
			cn.parentPort = cn.info.PortTo(parent[v])
		} else {
			cn.Value = value
			cn.Has = true
			cn.pending = true
		}
		nodes[v] = cn
	}
	return nodes
}

// Round implements Node.
func (cn *CastNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	for _, in := range recv {
		if in.Msg.Kind == msgCast && !cn.Has {
			var p intPayload
			Unpack(in.Msg, &p)
			cn.Value = p.Val
			cn.Has = true
			cn.pending = true
		}
	}
	if !cn.pending {
		return nil, cn.Has
	}
	cn.pending = false
	var out []Outgoing
	for p := range cn.info.Neighbors {
		if p != cn.parentPort {
			out = append(out, Outgoing{Port: p, Msg: Pack(msgCast, &intPayload{Val: cn.Value})})
		}
	}
	return out, true
}
