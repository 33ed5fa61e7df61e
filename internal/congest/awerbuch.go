package congest

// AwerbuchNode is the per-vertex program of the classic distributed DFS of
// Awerbuch (1985), with the standard neighbour-notification improvement: a
// single token performs a depth-first traversal; when a node is first
// visited it announces VISITED to its neighbours, so the token is only ever
// forwarded to unvisited nodes and never traverses a non-tree edge. The
// traversal completes in at most 2(n-1)+1 rounds.
//
// After the run, ParentID and Depth describe the DFS tree rooted at the
// start node.
type AwerbuchNode struct {
	info         NodeInfo
	visited      bool
	holdsToken   bool
	justVisited  bool
	parentPort   int
	knownVisited []bool

	ParentID int
	Depth    int
}

// NewAwerbuchNodes builds the DFS programs with the token starting at root.
func NewAwerbuchNodes(nw *Network, root int) []Node {
	nodes := make([]Node, nw.G.N())
	for v := 0; v < nw.G.N(); v++ {
		an := &AwerbuchNode{
			info:         nw.Info(v),
			parentPort:   -1,
			knownVisited: make([]bool, nw.G.Degree(v)),
			ParentID:     -1,
		}
		if v == root {
			an.visited = true
			an.holdsToken = true
			an.justVisited = true
		}
		nodes[v] = an
	}
	return nodes
}

// RunAwerbuch runs the token DFS from root on nw for at most maxRounds
// rounds and returns the DFS parent array it leaves (-1 at root) with the
// rounds executed. On error the rounds executed so far are returned
// without a parent array.
func RunAwerbuch(nw *Network, root, maxRounds int) ([]int, int, error) {
	nodes := NewAwerbuchNodes(nw, root)
	rounds, err := nw.Run(nodes, maxRounds)
	if err != nil {
		return nil, rounds, err
	}
	parent := make([]int, len(nodes))
	for v, nd := range nodes {
		parent[v] = nd.(*AwerbuchNode).ParentID
	}
	return parent, rounds, nil
}

// Round implements Node.
func (an *AwerbuchNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	for _, in := range recv {
		switch in.Msg.Kind {
		case msgVisited:
			an.knownVisited[in.Port] = true
		case msgToken:
			// The token is only ever sent to unvisited nodes.
			an.visited = true
			an.justVisited = true
			an.holdsToken = true
			an.parentPort = in.Port
			an.ParentID = an.info.Neighbors[in.Port]
			an.Depth = in.Msg.Args[0] + 1
			an.knownVisited[in.Port] = true
		case msgReturn:
			an.knownVisited[in.Port] = true
			an.holdsToken = true
		}
	}
	if !an.holdsToken {
		return nil, an.visited
	}

	var out []Outgoing
	// Forward the token to the first unvisited neighbour, if any.
	target := -1
	for p := range an.info.Neighbors {
		if !an.knownVisited[p] && p != an.parentPort {
			target = p
			break
		}
	}
	if target >= 0 {
		out = append(out, Outgoing{Port: target, Msg: Message{Kind: msgToken, Args: []int{an.Depth}}})
		an.holdsToken = false
	} else if an.parentPort >= 0 {
		out = append(out, Outgoing{Port: an.parentPort, Msg: Message{Kind: msgReturn}})
		an.holdsToken = false
	} else {
		// Root with no unvisited neighbours: traversal complete.
		an.holdsToken = false
	}
	if an.justVisited {
		an.justVisited = false
		for p := range an.info.Neighbors {
			if p != an.parentPort && p != target {
				out = append(out, Outgoing{Port: p, Msg: Message{Kind: msgVisited}})
			}
		}
	}
	return out, an.visited && !an.holdsToken
}
