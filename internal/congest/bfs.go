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
	msgFoldUp
	msgFoldDown
)

// BFSNode is the per-vertex program of distributed BFS flooding from a root.
// After the run, Dist and ParentID hold the BFS distance and tree parent.
type BFSNode struct {
	info     NodeInfo
	root     int
	Dist     int
	ParentID int
	pending  bool // a better distance was adopted and must be re-announced
	// out is the announce, one EveryPort send. Its word alternates between
	// the two slots of words by round parity: a node can re-announce the
	// round after it announced, while the receivers of the first announce
	// still read its word, so a send never rewrites the word in flight.
	out   [1]Outgoing
	words [2][1]int
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
	announce := intPayload{Val: bn.Dist}
	bn.out[0] = Outgoing{Port: EveryPort, Msg: Message{Kind: msgBFS, Args: announce.AppendWords(bn.words[round&1][:0])}}
	return bn.out[:], true
}
