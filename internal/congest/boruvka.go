package congest

// BoruvkaNode is the per-vertex program of a synchronous, message-level
// Borůvka spanning-forest construction per part (Lemma 9's algorithm with
// the 0/1 weight rule: only intra-part edges are ever chosen, so each part
// ends with its own spanning tree).
//
// Phases are clocked by round arithmetic (every node knows n) and the
// node's wake timer (see NextWake). Each phase exchanges fragment IDs (1
// round), floods the fragment's minimum outgoing intra-part edge (n
// rounds; edge IDs serve as distinct weights, so the chosen edge set stays
// acyclic), bridges the chosen edge (1 round), and
// floods the merged fragment's new ID — the minimum member ID — over
// fragment and forest edges (n+1 rounds). Fragment count halves per phase,
// so O(log n) phases and O(n log n) rounds total — the classic unoptimized
// bound; the Õ(D) version replaces the floods with low-congestion-shortcut
// aggregation (charged by dist.SpanningForestOps).
//
// After the run, ForestPorts marks the ports whose edges form the spanning
// forest, and Fragment holds the final fragment ID (the minimum vertex ID
// of the node's part).
type BoruvkaNode struct {
	info NodeInfo
	part int

	frag      int
	nbrFrag   []int // neighbour fragment IDs as of this phase
	nbrPart   []int // neighbour part IDs (learned in the first exchange)
	best      int   // best (minimum) outgoing edge ID seen this phase
	bestMine  int   // my own candidate edge ID (or infinity)
	fragDone  bool
	improved  bool
	newFrag   int
	fragFlood bool

	// announce is the fragment announce of a phase's round 0, one EveryPort
	// send of fragWords. A phase rewrites the words only at its own round
	// 0, a phase after its receivers read the previous announce.
	announce  [1]Outgoing
	fragWords [2]int

	// ForestPorts[p] reports whether port p's edge belongs to the forest.
	ForestPorts []bool
	// Fragment is the node's final fragment identifier.
	Fragment int
}

const (
	msgBorFrag = iota + 200
	msgBorBest
	msgBorMerge
	msgBorNewFrag
)

const borInf = int(^uint(0) >> 1)

// NewBoruvkaNodes builds the per-part Borůvka programs.
func NewBoruvkaNodes(nw *Network, partOf []int) []Node {
	nodes := make([]Node, nw.G.N())
	for v := 0; v < nw.G.N(); v++ {
		info := nw.Info(v)
		bn := &BoruvkaNode{
			info:        info,
			part:        partOf[v],
			frag:        v,
			nbrFrag:     make([]int, len(info.Neighbors)),
			nbrPart:     make([]int, len(info.Neighbors)),
			ForestPorts: make([]bool, len(info.Neighbors)),
			Fragment:    v,
		}
		for p := range bn.nbrFrag {
			bn.nbrFrag[p] = -1
			bn.nbrPart[p] = -1
		}
		nodes[v] = bn
	}
	return nodes
}

// edgeIDOfPort derives a globally unique, order-consistent edge key for
// port p: the pair (min endpoint, max endpoint) packed into one word.
func (bn *BoruvkaNode) edgeKey(p int) int {
	a, b := bn.info.ID, bn.info.Neighbors[p]
	if a > b {
		a, b = b, a
	}
	return a*bn.info.N + b
}

// NextWake implements Waker. Within a phase the node acts spontaneously
// only at offsets 0 (announce), 1 (seed the flood), n+2 (bridge), n+3
// (seed the second flood) and 2n+3 (adopt the merged fragment); in between
// it only reacts to messages. A node whose part is spanned sets no timer.
func (bn *BoruvkaNode) NextWake(round int) int {
	if bn.fragDone {
		return -1
	}
	n := bn.info.N
	r := round % (2*n + 4)
	switch {
	case r >= 1 && r <= n+1:
		return round - r + n + 2
	case r >= n+3 && r <= 2*n+2:
		return round - r + 2*n + 3
	}
	return round + 1
}

// Round implements Node.
func (bn *BoruvkaNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	n := bn.info.N
	phaseLen := 2*n + 4
	r := round % phaseLen

	// Ingest messages first.
	for _, in := range recv {
		switch in.Msg.Kind {
		case msgBorFrag:
			bn.nbrFrag[in.Port] = in.Msg.Args[0]
			bn.nbrPart[in.Port] = in.Msg.Args[1]
		case msgBorBest:
			if x := in.Msg.Args[0]; x < bn.best {
				bn.best = x
				bn.improved = true
			}
		case msgBorMerge:
			bn.ForestPorts[in.Port] = true
		case msgBorNewFrag:
			if x := in.Msg.Args[0]; x < bn.newFrag {
				bn.newFrag = x
				bn.fragFlood = true
			}
		}
	}

	if bn.fragDone {
		return nil, true
	}

	var out []Outgoing
	switch {
	case r == 0:
		// Announce the (possibly just merged) fragment.
		bn.fragWords = [2]int{bn.frag, bn.part}
		bn.announce[0] = Outgoing{Port: EveryPort, Msg: Message{Kind: msgBorFrag, Args: bn.fragWords[:]}}
		out = bn.announce[:]
	case r == 1:
		// Determine my own MOE candidate; seed the flood.
		bn.bestMine = borInf
		for p := range bn.info.Neighbors {
			if bn.nbrPart[p] == bn.part && bn.nbrFrag[p] != bn.frag {
				if k := bn.edgeKey(p); k < bn.bestMine {
					bn.bestMine = k
				}
			}
		}
		bn.best = bn.bestMine
		bn.improved = true
		fallthrough
	case r > 1 && r <= n+1:
		// Flood window 1: broadcast the best seen on improvement.
		if bn.improved && bn.best < borInf {
			bn.improved = false
			for p := range bn.info.Neighbors {
				if bn.nbrFrag[p] == bn.frag && bn.nbrPart[p] == bn.part {
					out = append(out, Outgoing{Port: p, Msg: Message{
						Kind: msgBorBest, Args: []int{bn.best}}})
				}
			}
		}
	case r == n+2:
		// Bridge: if my own candidate is the fragment's best, choose it.
		if bn.best == borInf {
			// The whole fragment has no outgoing intra-part edge: its part
			// is spanned; this node is done.
			bn.fragDone = true
			bn.Fragment = bn.frag
			return nil, true
		}
		if bn.bestMine == bn.best {
			// Find the port realizing the key and mark + notify it.
			for p := range bn.info.Neighbors {
				if bn.nbrPart[p] == bn.part && bn.nbrFrag[p] != bn.frag && bn.edgeKey(p) == bn.best {
					bn.ForestPorts[p] = true
					out = append(out, Outgoing{Port: p, Msg: Message{Kind: msgBorMerge}})
					break
				}
			}
		}
		bn.newFrag = bn.frag
		bn.fragFlood = true
	case r >= n+3 && r <= 2*n+3:
		// Flood window 2: minimum fragment ID over fragment + forest edges.
		if bn.fragFlood {
			bn.fragFlood = false
			for p := range bn.info.Neighbors {
				if bn.ForestPorts[p] || (bn.nbrFrag[p] == bn.frag && bn.nbrPart[p] == bn.part) {
					out = append(out, Outgoing{Port: p, Msg: Message{
						Kind: msgBorNewFrag, Args: []int{bn.newFrag}}})
				}
			}
		}
		if r == 2*n+3 {
			bn.frag = bn.newFrag
			bn.Fragment = bn.frag
		}
	}
	return out, false
}
