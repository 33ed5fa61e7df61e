package guard

import (
	"fmt"
	"math/rand"

	"planardfs/internal/congest"
	"planardfs/internal/graph"
	"planardfs/internal/trace"
)

// The CONGEST planarity property tester, in the Levi–Medina–Ron style
// (arxiv 1805.10657): one-sided error — a planar input is never rejected,
// a non-planar input is rejected when a concrete witness is found. Two
// witness classes are implemented:
//
//   - edge count: one fold of the degrees delivers 2m to every vertex;
//     m > 3n-6 contradicts Euler's bound for every planar simple graph.
//   - dense region: around each of a set of seeded centers, a ball of
//     radius ballRadius is flooded as a real node program; the members
//     convergecast their count and member-incident half-edge count up the
//     ball's BFS tree, and the center checks the planar density bound
//     m_S <= 3n_S - 6 on the induced subgraph. Any subgraph of a planar
//     graph is planar, so the check never fires on planar inputs — but a
//     planted dense region (a K5/K7-ish cluster) violates it locally.
//
// Centers are derived from Options.Seed (Exhaustive sweeps every vertex),
// so a verdict is a deterministic function of (graph, options); the
// centralized oracle below recomputes the identical decision for
// cross-checking.

// ballRadius is the radius of every ball the density check probes.
const ballRadius = 1

// Ball-program message kinds.
const (
	// msgBallGrow floods the ball: [dist, parentFlag]. parentFlag is 1 on
	// the port toward the sender's flood parent (the child-claim bit).
	msgBallGrow = 1
	// msgBallReport convergecasts subtree aggregates: [size, halfEdges].
	msgBallReport = 2
)

// ballProgram is the ball probes' programs over one network. Each vertex
// has a ballVertex, which holds only what a step reads before it knows
// whether its vertex belongs to the current probe; the probe state itself,
// a ballNode, comes from a pool at the vertex's first step in a probe. A
// probe runs from its center (RunFrom) and stamps itself, so it touches,
// and takes pool slots for, only the nodes its messages reach, the radius-2
// neighbourhood of its center. Each probe rewinds the pool and two arenas
// from which the nodes that send carve their outboxes and message words;
// all three reach the size of the largest ball once and are reused from
// then on.
type ballProgram struct {
	g      *graph.Graph
	verts  []ballVertex
	nodes  []congest.Node
	probe  int        // the current probe's stamp; stamps start at 1
	center [1]int     // the current probe's center, its one seed
	states []ballNode // the current probe's stepped vertices, in first-step order
	outs   []congest.Outgoing
	words  []int
}

// newBallProgram builds the ball programs of nw's graph.
func newBallProgram(nw *congest.Network) *ballProgram {
	g := nw.G
	bp := &ballProgram{g: g, verts: make([]ballVertex, g.N()), nodes: make([]congest.Node, g.N())}
	for v := range bp.verts {
		bp.verts[v] = ballVertex{prog: bp, id: int32(v)}
		bp.nodes[v] = &bp.verts[v]
	}
	return bp
}

// begin starts the probe of center: a new stamp, and an empty pool and
// arenas.
func (bp *ballProgram) begin(center int) {
	bp.probe++
	bp.center[0] = center
	bp.states = bp.states[:0]
	bp.outs, bp.words = bp.outs[:0], bp.words[:0]
}

// stateOf returns v's probe state, or nil if the current probe has not
// stepped v.
func (bp *ballProgram) stateOf(v int) *ballNode {
	if bv := &bp.verts[v]; bv.probe == bp.probe {
		return &bp.states[bv.slot]
	}
	return nil
}

// carve takes k outbox slots and w message words from the current probe's
// arenas. The carved storage stays valid for the rest of the probe: an
// arena that runs out moves on to a larger backing and leaves the old one
// to the slices already carved from it.
func (bp *ballProgram) carve(k, w int) ([]congest.Outgoing, []int) {
	return take(&bp.outs, k), take(&bp.words, w)
}

// take carves k elements off the end of *arena, which it regrows when full.
func take[T any](arena *[]T, k int) []T {
	a := *arena
	if len(a)+k > cap(a) {
		a = make([]T, 0, max(2*cap(a), k, 64))
	}
	*arena = a[:len(a)+k]
	return a[len(a) : len(a)+k : len(a)+k]
}

// ballVertex is a vertex's program across probes: its vertex, and the slot
// of its state in the pool for the probe it last stepped in.
type ballVertex struct {
	prog  *ballProgram
	id    int32
	slot  int32
	probe int
}

// state returns the vertex's state for the current probe. At the vertex's
// first step in the probe it takes the next pool slot, holding a fresh
// state.
func (bv *ballVertex) state() *ballNode {
	p := bv.prog
	if bv.probe != p.probe {
		v := int(bv.id)
		bv.probe, bv.slot = p.probe, int32(len(p.states))
		p.states = append(p.states, ballNode{deg: p.g.Degree(v), center: v == p.center[0], dist: -1, parentPort: -1})
	}
	return &p.states[bv.slot]
}

// Round implements congest.Node.
func (bv *ballVertex) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	return bv.state().round(bv.prog, round, recv)
}

// NextWake implements congest.Waker. The engine calls it after a step, so
// the vertex's state is the current probe's.
func (bv *ballVertex) NextWake(round int) int {
	return bv.prog.states[bv.slot].nextWake(round)
}

// ballNode is a vertex's state in one ball probe. The program is
// round-scheduled: membership counts are final once every flood message
// has landed, which the program detects by the round number, so an adopted
// member sets a wake timer for round ballRadius+2 (see nextWake).
type ballNode struct {
	deg    int
	center bool

	dist       int // -1 while not a member
	parentPort int
	children   int // grows that claimed this node as their flood parent
	memberNbrs int // ports that delivered a grow = member neighbours
	adopted    bool
	reported   bool

	gotReports int
	accSize    int
	accHalf    int

	// Center outputs.
	judged bool
	nS     int
	mS2    int // 2 * edges inside the ball
}

// round is one step of the vertex in the probe of prog.
func (bn *ballNode) round(prog *ballProgram, round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	var out []congest.Outgoing
	if round == 0 && bn.center {
		bn.dist = 0
		bn.parentPort = -1
		bn.adopted = true
		out = bn.announce(prog)
	}
	for _, in := range recv {
		switch in.Msg.Kind {
		case msgBallGrow:
			a := in.Msg.Args
			if len(a) != 2 {
				continue
			}
			bn.memberNbrs++
			if a[1] == 1 {
				bn.children++
			}
			if !bn.adopted && a[0]+1 <= ballRadius {
				// BFS property: the first grow to arrive carries the
				// minimal distance, so the first adoption is final.
				bn.dist = a[0] + 1
				bn.parentPort = in.Port
				bn.adopted = true
				out = bn.announce(prog)
			}
		case msgBallReport:
			a := in.Msg.Args
			if len(a) != 2 {
				continue
			}
			bn.accSize += a[0]
			bn.accHalf += a[1]
			bn.gotReports++
		}
	}
	if !bn.adopted {
		// Non-members stay silent; boundary neighbours' grows are ignored.
		return out, true
	}
	// Flood messages are all delivered by round ballRadius+1 (adoptions
	// happen at round == dist <= ballRadius; their announcements land one
	// round later), so from round ballRadius+2 on, memberNbrs and
	// children are final and the convergecast can fire leaf-first.
	if !bn.reported && round >= ballRadius+2 && bn.gotReports == bn.children {
		size := 1 + bn.accSize
		half := bn.memberNbrs + bn.accHalf
		if bn.center {
			bn.nS = size
			bn.mS2 = half
			bn.judged = true
			bn.reported = true
		} else {
			// Adoptions announce by round ballRadius, so the report never
			// shares a step with a grow.
			rep, w := prog.carve(1, 2)
			w[0], w[1] = size, half
			rep[0] = congest.Outgoing{Port: bn.parentPort, Msg: congest.Message{Kind: msgBallReport, Args: w}}
			out = rep
			bn.reported = true
		}
	}
	return out, bn.reported
}

// nextWake is the vertex's wake timer: an adopted member that has not
// reported wakes at round ballRadius+2, when its ball's flood is complete;
// from then on, its children's reports wake it.
func (bn *ballNode) nextWake(round int) int {
	if !bn.adopted || bn.reported || round >= ballRadius+2 {
		return -1
	}
	return ballRadius + 2
}

// announce broadcasts the adoption: a grow on every port, with the
// child-claim bit set toward the flood parent.
func (bn *ballNode) announce(prog *ballProgram) []congest.Outgoing {
	out, w := prog.carve(bn.deg, 4)
	w[0], w[1], w[2], w[3] = bn.dist, 0, bn.dist, 1
	for p := range out {
		args := w[0:2]
		if p == bn.parentPort {
			args = w[2:4]
		}
		out[p] = congest.Outgoing{Port: p, Msg: congest.Message{Kind: msgBallGrow, Args: args}}
	}
	return out
}

// centersFor derives the tester's ball centers for an n-vertex graph:
// every vertex under Exhaustive, otherwise a seeded sample without
// replacement. Shared by the distributed tester and the oracle so their
// decisions coincide.
func centersFor(n int, opt Options) []int {
	k := opt.centers(n)
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x67756172645f7473))
	perm := rng.Perm(n)
	out := append([]int(nil), perm[:k]...)
	return out
}

// run probes the ball of center on nw, running the programs from the
// center, and returns the center's measurement.
func (bp *ballProgram) run(nw *congest.Network, center int) (nS, mS2, rounds int, messages int64, err error) {
	bp.begin(center)
	r, err := nw.RunFrom(bp.nodes, bp.center[:], 2*ballRadius+16)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("guard: ball probe at %d: %w", center, err)
	}
	cn := bp.stateOf(center)
	if cn == nil || !cn.judged {
		return 0, 0, 0, 0, fmt.Errorf("guard: ball probe at %d did not converge", center)
	}
	return cn.nS, cn.mS2, r, nw.Stats().Messages, nil
}

// degreeSum is the edge-count stage's input: the degree sum 2m as one
// fold delivered it, with the fold's measured rounds and messages.
type degreeSum struct {
	m2, rounds int
	messages   int64
}

// degreeLane is the fold lane of the degree sum.
func degreeLane(g *graph.Graph) congest.FoldLane {
	degs := make([]int, g.N())
	for v := range degs {
		degs[v] = g.Degree(v)
	}
	return congest.FoldLane{Values: degs, Op: congest.OpSum}
}

// edgeCountCheck applies the global planar bound to the folded degree sum
// of an n-vertex graph. A nil witness means acceptance.
func edgeCountCheck(n, m2 int, opt Options) *Witness {
	sp := trace.OrNop(opt.Tracer).StartSpan(trace.LayerCert, "guard.edge-count")
	defer sp.End()
	sp.SetAttr("m2", int64(m2))
	if n >= 3 && m2 > 6*n-12 {
		return &Witness{
			Reason: ReasonEdgeCount,
			Detail: fmt.Sprintf("%d edges on %d vertices exceeds the planar bound %d", m2/2, n, 3*n-6),
			N:      n, M: m2 / 2, Bound: 3*n - 6,
		}
	}
	return nil
}

// runDensityCheck probes every center's ball in sequence on nw and applies
// the planar density bound to each induced subgraph. A nil witness means no
// ball was dense. The probes share one ball program, and each costs its
// ball's messages, so an Exhaustive sweep costs O(Σ|ball|) beyond the
// programs' O(n) set-up.
func runDensityCheck(nw *congest.Network, opt Options) (*Witness, int, int64, error) {
	g := nw.G
	tr := trace.OrNop(opt.Tracer)
	sp := tr.StartSpan(trace.LayerCert, "guard.density")
	defer sp.End()
	centers := centersFor(g.N(), opt)
	sp.SetAttr("centers", int64(len(centers)))
	sp.SetAttr("radius", ballRadius)
	bp := newBallProgram(nw)
	rounds := 0
	var messages int64
	for _, c := range centers {
		nS, mS2, r, msgs, err := bp.run(nw, c)
		if err != nil {
			return nil, rounds, messages, err
		}
		rounds += r
		messages += msgs
		if nS >= 3 && mS2 > 6*nS-12 {
			return &Witness{
				Reason: ReasonDenseRegion,
				Detail: fmt.Sprintf("ball of radius %d around vertex %d induces %d edges on %d vertices (planar bound %d)", ballRadius, c, mS2/2, nS, 3*nS-6),
				N:      nS, M: mS2 / 2, Bound: 3*nS - 6,
				Center: c, Radius: ballRadius,
			}, rounds, messages, nil
		}
	}
	return nil, rounds, messages, nil
}

// OracleTest is the deterministic centralized oracle of the property
// tester: it recomputes the edge-count and ball-density decisions from
// global data — same centers, same radius, same bounds — and returns the
// first witness or nil. The tester cross-validation tests assert the
// distributed and centralized decisions are identical.
func OracleTest(g *graph.Graph, opt Options) *Witness {
	n := g.N()
	if n >= 3 && g.M() > 3*n-6 {
		return &Witness{
			Reason: ReasonEdgeCount,
			Detail: fmt.Sprintf("%d edges on %d vertices exceeds the planar bound %d", g.M(), n, 3*n-6),
			N:      n, M: g.M(), Bound: 3*n - 6,
		}
	}
	for _, c := range centersFor(n, opt) {
		member := ballMembers(g, c)
		nS := 0
		mS2 := 0
		for v := 0; v < n; v++ {
			if !member[v] {
				continue
			}
			nS++
			for _, w := range g.Neighbors(v) {
				if member[w] {
					mS2++
				}
			}
		}
		if nS >= 3 && mS2 > 6*nS-12 {
			return &Witness{
				Reason: ReasonDenseRegion,
				Detail: fmt.Sprintf("ball of radius %d around vertex %d induces %d edges on %d vertices (planar bound %d)", ballRadius, c, mS2/2, nS, 3*nS-6),
				N:      nS, M: mS2 / 2, Bound: 3*nS - 6,
				Center: c, Radius: ballRadius,
			}
		}
	}
	return nil
}

// ballMembers marks the vertices within BFS distance ballRadius of center.
func ballMembers(g *graph.Graph, center int) []bool {
	member := make([]bool, g.N())
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[center] = 0
	member[center] = true
	queue := []int{center}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] == ballRadius {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				member[w] = true
				queue = append(queue, w)
			}
		}
	}
	return member
}
