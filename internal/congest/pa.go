package congest

import "fmt"

// AggOp is a part-wise aggregation operator.
type AggOp int

// Supported aggregation operators.
const (
	OpSum AggOp = iota + 1
	OpMin
	OpMax
)

func (op AggOp) combine(a, b int) int {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	}
	panic(fmt.Sprintf("congest: unknown AggOp %d", int(op)))
}

type paPair struct{ part, value int }

// PANode is the per-vertex program of the pipelined part-wise aggregation
// (Definition 6): every node holds a part ID and a value; at the end every
// node's Result holds the aggregate of the values in its part.
//
// The algorithm runs over a given global spanning tree: an upcast phase
// merges, at each node, the increasing-part-ID streams of its children with
// its own (part, value) pair, emitting one pair per round to the parent,
// followed by an end marker; a downcast phase streams each finalized
// aggregate back down exactly along the subtrees containing that part.
// Completion takes O(depth + k) rounds for k parts.
type PANode struct {
	info       NodeInfo
	op         AggOp
	part       int
	value      int
	parentPort int
	childPorts []int

	// Upcast state.
	buf        map[int][]paPair // child port -> buffered pairs (increasing part)
	ended      map[int]bool     // child port -> end marker received
	ownPending bool
	upDone     bool
	partsBelow map[int]map[int]bool // child port -> set of parts in its subtree

	// Root accumulates final aggregates during the upcast.
	isRoot bool
	finals []paPair // root only, in increasing part order

	// Downcast state.
	downQ     map[int][]paPair // child port -> queue of finalized pairs
	downEndAt map[int]bool     // child port -> end marker still to send
	recvEnd   bool             // parent's end marker received (root: upcast done)

	// Result is the aggregate of this node's part; HasResult reports
	// whether it has been delivered.
	Result    int
	HasResult bool
}

// NewPANodes builds the part-wise aggregation programs. parent describes a
// spanning tree of the whole network rooted at root; partOf and value give
// each node's part and input.
func NewPANodes(nw *Network, parent []int, root int, partOf, value []int, op AggOp) []Node {
	n := nw.G.N()
	children := make([][]int, n)
	for v := 0; v < n; v++ {
		if v != root {
			children[parent[v]] = append(children[parent[v]], v)
		}
	}
	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		pn := &PANode{
			info:       nw.Info(v),
			op:         op,
			part:       partOf[v],
			value:      value[v],
			parentPort: -1,
			isRoot:     v == root,
			ownPending: true,
			buf:        map[int][]paPair{},
			ended:      map[int]bool{},
			partsBelow: map[int]map[int]bool{},
			downQ:      map[int][]paPair{},
			downEndAt:  map[int]bool{},
		}
		if v != root {
			pn.parentPort = pn.info.PortTo(parent[v])
		}
		for _, c := range children[v] {
			p := pn.info.PortTo(c)
			pn.childPorts = append(pn.childPorts, p)
			pn.partsBelow[p] = map[int]bool{}
		}
		nodes[v] = pn
	}
	return nodes
}

// Round implements Node.
func (pn *PANode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	for _, in := range recv {
		switch in.Msg.Kind {
		case msgPAPair:
			var pp pairPayload
			Unpack(in.Msg, &pp)
			p, v := pp.Part, pp.Value
			pn.buf[in.Port] = append(pn.buf[in.Port], paPair{p, v})
			pn.partsBelow[in.Port][p] = true
		case msgPAEnd:
			pn.ended[in.Port] = true
		case msgDownPair:
			var pp pairPayload
			Unpack(in.Msg, &pp)
			p, v := pp.Part, pp.Value
			if p == pn.part {
				pn.Result = v
				pn.HasResult = true
			}
			for _, cp := range pn.childPorts {
				if pn.partsBelow[cp][p] {
					pn.downQ[cp] = append(pn.downQ[cp], paPair{p, v})
				}
			}
		case msgDownEnd:
			pn.recvEnd = true
			for _, cp := range pn.childPorts {
				pn.downEndAt[cp] = true
			}
		}
	}

	var out []Outgoing

	// Upcast: emit at most one merged pair per round.
	if !pn.upDone {
		sentPair := false
		if pair, ok := pn.nextMerged(); ok {
			if pn.isRoot {
				pn.finals = append(pn.finals, pair)
				// Root may consume several pairs per round locally: drain.
				for {
					p2, ok2 := pn.nextMerged()
					if !ok2 {
						break
					}
					pn.finals = append(pn.finals, p2)
				}
			} else {
				out = append(out, Outgoing{Port: pn.parentPort,
					Msg: Pack(msgPAPair, &pairPayload{Part: pair.part, Value: pair.value})})
				sentPair = true
			}
		}
		// The end marker must wait for a round in which no pair was sent
		// (one message per edge per round).
		if !sentPair && pn.streamsDrained() {
			pn.upDone = true
			if pn.isRoot {
				// Seed the downcast: queue finals per child; deliver own.
				for _, pr := range pn.finals {
					if pr.part == pn.part {
						pn.Result = pr.value
						pn.HasResult = true
					}
					for _, cp := range pn.childPorts {
						if pn.partsBelow[cp][pr.part] {
							pn.downQ[cp] = append(pn.downQ[cp], pr)
						}
					}
				}
				pn.recvEnd = true
				for _, cp := range pn.childPorts {
					pn.downEndAt[cp] = true
				}
			} else {
				out = append(out, Outgoing{Port: pn.parentPort, Msg: Message{Kind: msgPAEnd}})
			}
		}
	}

	// Downcast: one pair (or the end marker) per child per round.
	done := pn.upDone && pn.HasResult
	for _, cp := range pn.childPorts {
		if q := pn.downQ[cp]; len(q) > 0 {
			out = append(out, Outgoing{Port: cp,
				Msg: Pack(msgDownPair, &pairPayload{Part: q[0].part, Value: q[0].value})})
			pn.downQ[cp] = q[1:]
			done = false
		} else if pn.recvEnd && pn.downEndAt[cp] {
			out = append(out, Outgoing{Port: cp, Msg: Message{Kind: msgDownEnd}})
			pn.downEndAt[cp] = false
		}
	}
	if !pn.recvEnd {
		done = false
	}
	return out, done
}

// nextMerged pops the smallest emittable part across the node's own pair and
// its children's streams, combining equal parts, or reports none available
// this round.
func (pn *PANode) nextMerged() (paPair, bool) {
	// Every child must have either ended or have a buffered head.
	for _, cp := range pn.childPorts {
		if !pn.ended[cp] && len(pn.buf[cp]) == 0 {
			return paPair{}, false
		}
	}
	const none = int(^uint(0) >> 1) // max int
	cand := none
	if pn.ownPending {
		cand = pn.part
	}
	for _, cp := range pn.childPorts {
		if b := pn.buf[cp]; len(b) > 0 && b[0].part < cand {
			cand = b[0].part
		}
	}
	if cand == none {
		return paPair{}, false
	}
	var agg int
	first := true
	if pn.ownPending && pn.part == cand {
		agg = pn.value
		first = false
		pn.ownPending = false
	}
	for _, cp := range pn.childPorts {
		if b := pn.buf[cp]; len(b) > 0 && b[0].part == cand {
			if first {
				agg = b[0].value
				first = false
			} else {
				agg = pn.op.combine(agg, b[0].value)
			}
			pn.buf[cp] = b[1:]
		}
	}
	return paPair{cand, agg}, true
}

// streamsDrained reports whether the node has merged everything it will
// ever receive.
func (pn *PANode) streamsDrained() bool {
	if pn.ownPending {
		return false
	}
	for _, cp := range pn.childPorts {
		if !pn.ended[cp] || len(pn.buf[cp]) > 0 {
			return false
		}
	}
	return true
}
