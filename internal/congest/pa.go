package congest

import (
	"fmt"
	"slices"
)

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

// paQueue is a FIFO of pairs that rewinds onto its storage whenever it
// drains, so a queue that never holds more than its initial capacity never
// allocates.
type paQueue struct {
	items []paPair
	head  int
}

func (q *paQueue) len() int      { return len(q.items) - q.head }
func (q *paQueue) front() paPair { return q.items[q.head] }
func (q *paQueue) push(p paPair) { q.items = append(q.items, p) }
func (q *paQueue) pop() (p paPair) {
	p = q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return p
}

// paChild is a node's state for one tree child.
type paChild struct {
	port int
	// Upcast: pairs received in increasing part order, and whether the
	// child's end marker has arrived.
	buf   paQueue
	ended bool
	// below is the sorted set of part ids received from the child, i.e. the
	// parts present in its subtree; the downcast forwards exactly those.
	below []int
	// Downcast: finalized pairs still to send, and whether the end marker
	// is still to send.
	down    paQueue
	downEnd bool
}

// addBelow inserts part into the sorted set. Parts normally arrive in
// increasing order and append; a corrupted id is placed by binary search.
func (c *paChild) addBelow(part int) {
	b := c.below
	if len(b) == 0 || b[len(b)-1] < part {
		c.below = append(b, part)
		return
	}
	if i, found := slices.BinarySearch(b, part); !found {
		c.below = slices.Insert(b, i, part)
	}
}

func (c *paChild) hasBelow(part int) bool {
	_, found := slices.BinarySearch(c.below, part)
	return found
}

// paWords is an append-only arena for the arguments of the pair messages
// all nodes of one run send. A message's words are never overwritten:
// receivers read them a round later, and a sender may step again first.
type paWords struct {
	buf   []int
	chunk int
}

func (a *paWords) pack(kind int, p paPair) Message {
	if cap(a.buf)-len(a.buf) < 2 {
		a.buf = make([]int, 0, a.chunk)
	}
	i := len(a.buf)
	a.buf = (&pairPayload{Part: p.part, Value: p.value}).AppendWords(a.buf)
	return Message{Kind: kind, Args: a.buf[i:len(a.buf):len(a.buf)]}
}

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
//
// The state is flat: per-child state lives in a slice indexed by child, a
// port→child table routes upcast messages, and NewPAProgram carves every
// node's fixed state and its reused outbox from shared backing arrays.
type PANode struct {
	op         AggOp
	part       int
	value      int
	parentPort int
	isRoot     bool

	kids      []paChild  // tree children in increasing vertex ID
	portChild []int32    // portChild[port] indexes kids, or -1
	out       []Outgoing // outbox, reused every round: capacity 1+len(kids)
	words     *paWords   // arguments arena shared by the run's nodes

	// Upcast state.
	ownPending bool
	upDone     bool

	// Root accumulates final aggregates during the upcast.
	finals []paPair // root only, in increasing part order

	recvEnd bool // parent's end marker received (root: upcast done)

	// Result is the aggregate of this node's part; HasResult reports
	// whether it has been delivered.
	Result    int
	HasResult bool
}

// PAProgram is the set of part-wise aggregation programs of one network
// over one spanning tree. NewPAProgram builds the tree-shaped state once —
// the node array, the children and their queue backings, the port tables,
// the outboxes and the argument arena — and Reset readies it for another
// aggregation in place, so a caller that aggregates repeatedly over the same
// tree pays the setup once. The programs are not safe for concurrent runs.
type PAProgram struct {
	pns   []PANode
	nodes []Node
	words *paWords
}

// NewPAProgram builds the aggregation programs of nw over the spanning tree
// described by parent and rooted at root. Reset must set their parts,
// values and operator before each run.
func NewPAProgram(nw *Network, parent []int, root int) *PAProgram {
	g := nw.G
	n := g.N()
	// Children by counting sort, so each vertex's children are a contiguous
	// run of kids in increasing ID: first[v] is where v's run starts, and
	// slot[c] is child c's index in kids.
	first := make([]int, n+1)
	for v := 0; v < n; v++ {
		if v != root {
			first[parent[v]]++
		}
	}
	for v, sum := 0, 0; v <= n; v++ {
		first[v], sum = sum, sum+first[v]
	}
	kids := make([]paChild, first[n])
	next := make([]int, n)
	copy(next, first)
	slot := make([]int, n)
	for v := 0; v < n; v++ {
		if v != root {
			slot[v] = next[parent[v]]
			next[parent[v]]++
		}
	}

	bufBack := make([]paPair, 2*len(kids))
	belowBack := make([]int, len(kids))
	for i := range kids {
		kids[i] = paChild{
			port:  -1,
			buf:   paQueue{items: bufBack[2*i : 2*i : 2*i+1]},
			down:  paQueue{items: bufBack[2*i+1 : 2*i+1 : 2*i+2]},
			below: belowBack[i : i : i+1],
		}
	}
	ports := make([]int32, 2*g.M())
	outBack := make([]Outgoing, n+len(kids))
	// A single-part run sends at most 2(n-1) pairs of two words: one chunk.
	prog := &PAProgram{pns: make([]PANode, n), nodes: make([]Node, n), words: &paWords{chunk: 4*n + 4}}
	portBase, outBase := 0, 0
	for v := 0; v < n; v++ {
		inc := g.IncidentEdges(v)
		nk := first[v+1] - first[v]
		pn := &prog.pns[v]
		*pn = PANode{
			parentPort: -1,
			isRoot:     v == root,
			kids:       kids[first[v]:first[v+1]:first[v+1]],
			portChild:  ports[portBase : portBase+len(inc) : portBase+len(inc)],
			out:        outBack[outBase : outBase : outBase+1+nk],
			words:      prog.words,
		}
		portBase += len(inc)
		outBase += 1 + nk
		// Ports as NodeInfo.PortTo picks them: the first port to each
		// neighbour.
		for p, id := range inc {
			pn.portChild[p] = -1
			w := g.Other(int(id), v)
			if v != root && w == parent[v] && pn.parentPort < 0 {
				pn.parentPort = p
			}
			if w != root && parent[w] == v {
				if c := &kids[slot[w]]; c.port < 0 {
					c.port = p
					pn.portChild[p] = int32(slot[w] - first[v])
				}
			}
		}
		prog.nodes[v] = pn
	}
	return prog
}

// Reset readies every program for an aggregation of value under op, with
// partOf giving each node's part, and returns the nodes to run. It rewinds
// all run state in place — the children's queues, part sets and end flags,
// the pending, done and result flags, the root's finals and the argument
// arena — whether the previous run finished or was aborted. The previous
// run must be over: the arena is overwritten from its start.
//
//planarvet:noalloc TestPAProgramReuseAllocs
func (p *PAProgram) Reset(partOf, value []int, op AggOp) []Node {
	p.words.buf = p.words.buf[:0]
	for v := range p.pns {
		pn := &p.pns[v]
		pn.op, pn.part, pn.value = op, partOf[v], value[v]
		pn.ownPending, pn.upDone, pn.recvEnd = true, false, false
		pn.finals = pn.finals[:0]
		pn.Result, pn.HasResult = 0, false
		pn.out = pn.out[:0]
		for i := range pn.kids {
			c := &pn.kids[i]
			c.buf.items, c.buf.head = c.buf.items[:0], 0
			c.down.items, c.down.head = c.down.items[:0], 0
			c.below = c.below[:0]
			c.ended, c.downEnd = false, false
		}
	}
	return p.nodes
}

// Node returns the program of vertex v, whose Result and HasResult hold
// the outcome of the last run.
func (p *PAProgram) Node(v int) *PANode { return &p.pns[v] }

// NewPANodes builds the part-wise aggregation programs for one run. parent
// describes a spanning tree of the whole network rooted at root; partOf and
// value give each node's part and input.
func NewPANodes(nw *Network, parent []int, root int, partOf, value []int, op AggOp) []Node {
	return NewPAProgram(nw, parent, root).Reset(partOf, value, op)
}

// child returns the state of the child on port, or nil if port leads to
// no child.
func (pn *PANode) child(port int) *paChild {
	if ci := pn.portChild[port]; ci >= 0 {
		return &pn.kids[ci]
	}
	return nil
}

// Round implements Node.
func (pn *PANode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	for _, in := range recv {
		switch in.Msg.Kind {
		case msgPAPair:
			var pp pairPayload
			Unpack(in.Msg, &pp)
			if c := pn.child(in.Port); c != nil {
				c.buf.push(paPair{pp.Part, pp.Value})
				c.addBelow(pp.Part)
			}
		case msgPAEnd:
			if c := pn.child(in.Port); c != nil {
				c.ended = true
			}
		case msgDownPair:
			var pp pairPayload
			Unpack(in.Msg, &pp)
			p, v := pp.Part, pp.Value
			if p == pn.part {
				pn.Result = v
				pn.HasResult = true
			}
			for i := range pn.kids {
				if c := &pn.kids[i]; c.hasBelow(p) {
					c.down.push(paPair{p, v})
				}
			}
		case msgDownEnd:
			pn.recvEnd = true
			for i := range pn.kids {
				pn.kids[i].downEnd = true
			}
		}
	}

	out := pn.out[:0]

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
				out = append(out, Outgoing{Port: pn.parentPort, Msg: pn.words.pack(msgPAPair, pair)})
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
					for i := range pn.kids {
						if c := &pn.kids[i]; c.hasBelow(pr.part) {
							c.down.push(pr)
						}
					}
				}
				pn.recvEnd = true
				for i := range pn.kids {
					pn.kids[i].downEnd = true
				}
			} else {
				out = append(out, Outgoing{Port: pn.parentPort, Msg: Message{Kind: msgPAEnd}})
			}
		}
	}

	// Downcast: one pair (or the end marker) per child per round.
	done := pn.upDone && pn.HasResult
	for i := range pn.kids {
		c := &pn.kids[i]
		if c.down.len() > 0 {
			out = append(out, Outgoing{Port: c.port, Msg: pn.words.pack(msgDownPair, c.down.pop())})
			done = false
		} else if pn.recvEnd && c.downEnd {
			out = append(out, Outgoing{Port: c.port, Msg: Message{Kind: msgDownEnd}})
			c.downEnd = false
		}
	}
	if !pn.recvEnd {
		done = false
	}
	pn.out = out
	return out, done
}

// nextMerged pops the smallest emittable part across the node's own pair and
// its children's streams, combining equal parts, or reports none available
// this round.
func (pn *PANode) nextMerged() (paPair, bool) {
	// Every child must have either ended or have a buffered head.
	for i := range pn.kids {
		if c := &pn.kids[i]; !c.ended && c.buf.len() == 0 {
			return paPair{}, false
		}
	}
	const none = int(^uint(0) >> 1) // max int
	cand := none
	if pn.ownPending {
		cand = pn.part
	}
	for i := range pn.kids {
		if c := &pn.kids[i]; c.buf.len() > 0 && c.buf.front().part < cand {
			cand = c.buf.front().part
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
	for i := range pn.kids {
		if c := &pn.kids[i]; c.buf.len() > 0 && c.buf.front().part == cand {
			v := c.buf.pop().value
			if first {
				agg = v
				first = false
			} else {
				agg = pn.op.combine(agg, v)
			}
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
	for i := range pn.kids {
		if c := &pn.kids[i]; !c.ended || c.buf.len() > 0 {
			return false
		}
	}
	return true
}
