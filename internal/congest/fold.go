package congest

import "fmt"

// MaxFoldLanes is the most lanes one fold carries: a fold message is its
// kind word plus one word per lane, within the default 4-word budget.
const MaxFoldLanes = 3

// FoldLane is one input of a fold: a value per vertex and the operator
// that combines them.
type FoldLane struct {
	Values []int
	Op     AggOp
}

// foldNode is the per-vertex program of a fold: it combines its own lane
// values with the aggregates of its children, sends the subtree aggregate
// to its parent, and on receiving the whole-tree aggregate from the parent
// (the root: on completing its own) forwards it to every child.
type foldNode struct {
	prog       *FoldProgram
	parentPort int     // -1 at the root
	kidPorts   []int32 // tree children's ports, in increasing child ID
	waiting    int     // children not yet reported
	sent       bool    // the subtree aggregate went up (the root: the fold is complete)
	has        bool    // acc holds the whole-tree aggregate
	acc        [MaxFoldLanes]int
	up, down   []int      // the words of this node's two messages, written once per run
	out        []Outgoing // outbox, capacity max(1, children)
}

// FoldProgram is the fold of one network over one spanning tree: a
// convergecast of up to MaxFoldLanes lanes up the tree, then a broadcast
// of the results down it, so every vertex ends holding every lane's
// aggregate. It sends 2(n−1) messages in 2·depth+1 rounds. NewFoldProgram
// carves every node's state, outbox and message words from shared arrays
// once; Reset readies it for another fold in place. The programs are not
// safe for concurrent runs.
type FoldProgram struct {
	fns   []foldNode
	nodes []Node
	lanes int
	ops   [MaxFoldLanes]AggOp
}

// NewFoldProgram builds the fold programs of nw over the spanning tree
// described by parent and rooted at root. Reset must set their lanes
// before each run.
func NewFoldProgram(nw *Network, parent []int, root int) *FoldProgram {
	builds.foldPrograms.Add(1)
	g := nw.G
	n := g.N()
	kids := make([]int, n)
	for v := 0; v < n; v++ {
		if v != root {
			kids[parent[v]]++
		}
	}
	// Child ports are filled in increasing child ID from one array: next[v]
	// is where v's next child port goes.
	next := make([]int, n+1)
	for v := 0; v < n; v++ {
		next[v+1] = next[v] + kids[v]
	}
	portBack := make([]int32, next[n])
	outBack := make([]Outgoing, n+next[n])
	words := make([]int, 2*MaxFoldLanes*n)
	p := &FoldProgram{fns: make([]foldNode, n), nodes: make([]Node, n)}
	outBase := 0
	for v := 0; v < n; v++ {
		w := words[2*MaxFoldLanes*v : 2*MaxFoldLanes*(v+1)]
		nout := max(1, kids[v])
		p.fns[v] = foldNode{
			prog:       p,
			parentPort: -1,
			kidPorts:   portBack[next[v]:next[v]:next[v+1]],
			up:         w[:MaxFoldLanes:MaxFoldLanes],
			down:       w[MaxFoldLanes:],
			out:        outBack[outBase : outBase+nout : outBase+nout],
		}
		outBase += nout
		p.nodes[v] = &p.fns[v]
	}
	// Ports as NodeInfo.PortTo picks them: the first port to each
	// neighbour. Children are visited in increasing ID.
	for c := 0; c < n; c++ {
		if c == root {
			continue
		}
		fn, pv := &p.fns[c], parent[c]
		for port, id := range g.IncidentEdges(c) {
			if g.Other(int(id), c) == pv {
				fn.parentPort = port
				break
			}
		}
		pf := &p.fns[pv]
		for port, id := range g.IncidentEdges(pv) {
			if g.Other(int(id), pv) == c {
				pf.kidPorts = append(pf.kidPorts, int32(port))
				break
			}
		}
	}
	return p
}

// Reset readies every program for a fold of lanes, one to MaxFoldLanes of
// them, and returns the nodes to run. It rewinds all run state in place,
// whether the previous run finished or was aborted; the previous run must
// be over, since its message words are overwritten.
//
//planarvet:noalloc TestFoldProgramReuseAllocs
func (p *FoldProgram) Reset(lanes []FoldLane) []Node {
	if len(lanes) < 1 || len(lanes) > MaxFoldLanes {
		panic(fmt.Sprintf("congest: fold of %d lanes, want 1 to %d", len(lanes), MaxFoldLanes)) //planarvet:allocok a caller bug: the lane count is fixed by the caller's code
	}
	p.lanes = len(lanes)
	for i, l := range lanes {
		p.ops[i] = l.Op
	}
	for v := range p.fns {
		fn := &p.fns[v]
		fn.waiting = len(fn.kidPorts)
		fn.sent, fn.has = false, false
		for i, l := range lanes {
			fn.acc[i] = l.Values[v]
		}
	}
	return p.nodes
}

// Result returns the lane aggregates vertex v holds after the last run,
// one per lane, or nil if the whole-tree aggregate never reached it. The
// slice is the node's own and is overwritten by the next run.
func (p *FoldProgram) Result(v int) []int {
	fn := &p.fns[v]
	if !fn.has {
		return nil
	}
	return fn.acc[:p.lanes]
}

// Round implements Node.
//
//planarvet:noalloc TestFoldProgramReuseAllocs
func (fn *foldNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	p := fn.prog
	lanes := p.lanes
	broadcast := false
	for _, in := range recv {
		a := in.Msg.Args
		if len(a) != lanes {
			continue
		}
		switch in.Msg.Kind {
		case msgFoldUp:
			for i := 0; i < lanes; i++ {
				fn.acc[i] = p.ops[i].combine(fn.acc[i], a[i])
			}
			fn.waiting--
		case msgFoldDown:
			if !fn.has {
				copy(fn.acc[:lanes], a)
				fn.has, broadcast = true, true
			}
		}
	}
	if !fn.sent && fn.waiting == 0 {
		fn.sent = true
		if fn.parentPort >= 0 {
			up := fn.up[:lanes]
			copy(up, fn.acc[:lanes])
			fn.out[0] = Outgoing{Port: fn.parentPort, Msg: Message{Kind: msgFoldUp, Args: up}}
			return fn.out[:1], false
		}
		fn.has, broadcast = true, true
	}
	if !broadcast || len(fn.kidPorts) == 0 {
		return nil, fn.has
	}
	down := fn.down[:lanes]
	copy(down, fn.acc[:lanes])
	for i, port := range fn.kidPorts {
		fn.out[i] = Outgoing{Port: int(port), Msg: Message{Kind: msgFoldDown, Args: down}}
	}
	return fn.out[:len(fn.kidPorts)], true
}
