// Package congest simulates the synchronous CONGEST model: a network of
// nodes, one per graph vertex, exchanging O(log n)-bit messages over graph
// edges in lockstep rounds.
//
// A simulation is deterministic and runs on one schedule. Each round steps,
// in ascending vertex order, exactly the nodes that can act: the seeds in
// round 0 (every node under Run, the given vertices under RunFrom), then
// the receivers of the previous round's messages, the previous round's
// senders (so streamed follow-ups such as end markers fire), and the nodes
// whose wake timer names the round. Everything else is quiescent and
// skipped, so a run costs O(seeds + messages + wake-ups) steps rather than
// O(n × rounds): a Run pays n for its round-0 step, a RunFrom from one
// vertex only for the nodes its messages reach. Wake timers are set by
// round-scheduled programs (see Waker) and by an attached Injector (crash
// rounds and stall releases, see inject.go).
//
// Bandwidth is enforced: per round, at most one message may cross each edge
// in each direction, and each message carries at most MaxWords words, a word
// being ceil(log2 n) bits. Violations abort the run with an error rather
// than silently under-counting rounds.
//
// The round loop is allocation-free in the steady state. All engine state —
// the stamped port array, the routing table, the inboxes, the step set and
// the timer heap — is allocated once per Network, by its first Run, and
// reused by every later Run over the same graph, which fills no array
// with a loop and touches per-vertex state only at the nodes it steps; see
// DESIGN.md §8 for the internals. A traced run hands its metrics to the
// tracer in one settlement at its end. A Network is not safe for
// concurrent Runs.
package congest

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"planardfs/internal/graph"
	"planardfs/internal/trace"
)

// Message is a CONGEST message: a program-defined kind tag plus up to
// MaxWords-1 word-sized arguments (the kind counts as one word).
type Message struct {
	Kind int
	Args []int
}

// Words returns the bandwidth cost of the message in words.
func (m Message) Words() int { return 1 + len(m.Args) }

// Incoming is a received message together with the port it arrived on.
type Incoming struct {
	Port int
	Msg  Message
}

// Outgoing is a message to send on a port of the sending node, or on
// every port when Port is EveryPort.
type Outgoing struct {
	Port int
	Msg  Message
}

// EveryPort addresses an Outgoing to every port of the sender: one send
// that the engine validates once and delivers as one message per port, in
// port order. It counts, and meets the bandwidth rule, as the sends on
// ports 0 through degree-1 it stands for, so a second send on any port is
// a duplicate, and on a vertex with no ports it sends nothing.
const EveryPort = -1

// Node is a per-vertex CONGEST program. Round is called with the messages
// delivered this round (sent by neighbours in the previous round); it
// returns the messages to send and whether the node has halted. The
// network stops when every node reports done in a round with no messages
// in flight.
//
// Round is called in round 0 if the node is a seed of the run, in every
// round in which messages arrive, in the round after the node sent, and at
// the rounds its wake timer names (see Waker). In any other round the node
// is not stepped, so a program must not depend on being called there: a
// step that receives nothing must leave its state and its done report
// unchanged unless it is a timed step. A halted node is still stepped when
// messages arrive.
//
// Run seeds every node. RunFrom seeds only the vertices it is given and
// counts every other node as done until a message or its wake timer steps
// it, so a program run from seeds must be quiescent at non-seeds in round
// 0: stepped there with no messages, it would send nothing and report
// done. Under that condition RunFrom and Run give the same run.
//
// The recv slice is owned by the engine and recycled across rounds; a node
// that retains messages beyond the current Round call must copy them.
//
// The receivers of a send share its Args, and so do all the receivers of
// an EveryPort send: the engine hands each of them the sender's slice
// itself. A sender must therefore leave the Args of what it sent unchanged
// until the receivers have stepped on them, the round after the send.
type Node interface {
	Round(round int, recv []Incoming) (send []Outgoing, done bool)
}

// Waker is implemented by round-scheduled programs that act at fixed round
// offsets instead of only in response to messages (BoruvkaNode's phase
// clock, the guard's ball probe). After every step of such a node the
// engine calls NextWake; a result later than round sets the node's wake
// timer, and the node is stepped at that round whether or not a message
// arrives. Any other result sets no timer. A pending timer never delays
// termination. The engine decides whether a node is a Waker at its first
// step in a run, so a run pays the check only for the nodes it steps.
type Waker interface {
	Node
	NextWake(round int) int
}

// NodeInfo is the local knowledge every CONGEST node starts with: its own
// identifier, and the identifier at the far end of each incident port.
type NodeInfo struct {
	ID        int
	Neighbors []int // Neighbors[port] is the neighbour's vertex ID.
	N         int   // number of nodes in the network (known bound)
}

// Stats aggregates instrumentation for a run.
type Stats struct {
	Rounds        int
	Messages      int64
	Words         int64
	MaxEdgeLoad   int64 // max messages carried by a single edge over the run
	MaxRoundWords int64 // max words sent network-wide in one round
	// MaxEdgeCongestion is the most messages a single edge carried in a
	// single round (at most 2: one per direction under the bandwidth rule).
	MaxEdgeCongestion int64
	// RoundMessages[i] is the number of messages delivered in round i; it
	// feeds the per-round message histogram of the tracing subsystem.
	RoundMessages []int64
}

// Network simulates a CONGEST network over a graph.
type Network struct {
	G *graph.Graph
	// MaxWords bounds the size of a single message in words
	// (1 word = ceil(log2 n) bits). Default 4.
	MaxWords int
	// Tracer receives per-round spans and message/congestion metrics; nil
	// (or trace.Nop) disables instrumentation at zero cost.
	Tracer trace.Tracer
	// Injector intercepts the run at the fault-injection points (crash
	// checks when a node steps, per-message rulings on delivery); nil
	// disables injection with no hook overhead. See inject.go for the
	// timer and determinism contract.
	Injector Injector

	stats Stats
	eng   *engine // built by the first Run, reused by later ones
}

// New returns a network over g with default settings (4-word messages).
func New(g *graph.Graph) *Network {
	return &Network{G: g, MaxWords: 4}
}

// Stats returns instrumentation from the last Run. The RoundMessages slice
// is a defensive copy: mutating the returned slice cannot corrupt — or be
// corrupted by — the engine's internal histogram.
func (nw *Network) Stats() Stats {
	st := nw.stats
	if st.RoundMessages != nil {
		st.RoundMessages = append([]int64(nil), st.RoundMessages...)
	}
	return st
}

// Info returns the initial local knowledge of vertex v.
func (nw *Network) Info(v int) NodeInfo {
	return NodeInfo{ID: v, Neighbors: nw.G.Neighbors(v), N: nw.G.N()}
}

// ErrRoundLimit is returned when a run exceeds its round budget.
var ErrRoundLimit = errors.New("congest: round limit exceeded")

// ErrInvalidRoundLimit is returned when Run is called with a non-positive
// round budget, before any node steps.
var ErrInvalidRoundLimit = errors.New("congest: round limit must be positive")

// ErrInvalidSeeds is returned when RunFrom is given a seed outside the
// vertex range or seeds out of ascending order, before any node steps.
var ErrInvalidSeeds = errors.New("congest: seeds must be distinct vertices in ascending order")

// Run executes the nodes until global termination (all nodes done and no
// messages in flight) or until maxRounds rounds have elapsed. It returns
// the number of rounds executed. maxRounds must be positive. Run is
// RunFrom with every vertex as a seed.
//
// The first Run builds the Network's round engine, and later Runs over the
// same graph reset it in place; a Run after G was replaced or gained edges
// rebuilds it. A Network is therefore not safe for concurrent Runs.
func (nw *Network) Run(nodes []Node, maxRounds int) (int, error) {
	return nw.RunFrom(nodes, nw.engine().everyVertex(), maxRounds)
}

// RunFrom is Run with a seeded start: round 0 steps only the seeds, given
// in ascending vertex order, and every other node counts as done until a
// message or its wake timer steps it (see Node for the contract this puts
// on the programs). Apart from the seeds it takes O(1) set-up, so a run
// costs the nodes it steps and the messages it sends, not n or m.
func (nw *Network) RunFrom(nodes []Node, seeds []int, maxRounds int) (int, error) {
	n := nw.G.N()
	if len(nodes) != n {
		return 0, fmt.Errorf("congest: %d nodes for %d vertices", len(nodes), n)
	}
	if maxRounds <= 0 {
		return 0, fmt.Errorf("%w (got %d)", ErrInvalidRoundLimit, maxRounds)
	}
	for i, v := range seeds {
		if v < 0 || v >= n || (i > 0 && v <= seeds[i-1]) {
			return 0, fmt.Errorf("%w (seed %d at position %d, %d vertices)", ErrInvalidSeeds, v, i, n)
		}
	}
	nw.stats = Stats{RoundMessages: nw.stats.RoundMessages[:0]}
	e := nw.engine()
	e.reset(nw, nodes, maxRounds)
	rounds, err := e.run(seeds)
	e.release()
	return rounds, err
}

// engine returns the Network's round engine, building it on the first Run
// and whenever G is not the graph it was built for: another graph, or the
// same one after AddEdge (edges are only ever added, so M detects it).
func (nw *Network) engine() *engine {
	if e := nw.eng; e != nil && e.g == nw.G && e.m == nw.G.M() {
		return e
	}
	nw.eng = newEngine(nw.G)
	return nw.eng
}

// engine is the round loop's state. newEngine allocates every slice once
// per Network; reset readies them for the next Run in place, and the
// steady-state loop allocates nothing (the only amortized growth is the
// RoundMessages histogram and the timer heap's capacity ramp-up, both of
// which stabilise and carry over to later Runs).
type engine struct {
	nw        *Network
	g         *graph.Graph // the graph the routing tables were built for
	m         int          // its edge count then
	nodes     []Node
	n         int
	maxWords  int
	maxRounds int
	inj       Injector // nil when no faults are injected

	// Flat per-(vertex,port) state: port p of vertex v lives at flat index
	// off[v]+p; off has length n+1, so off[v+1]-off[v] is the degree of v.
	// off, peer, rport and portEdge are the routing, built once.
	off       []int
	peer      []int32 // vertex at the far end of the port
	rport     []int32 // that vertex's port for the same edge
	portEdge  []int32 // id of the port's edge
	portEpoch []int   // stamp of the last round v sent on the port
	// edgeLoad counts the messages an edge carried, both directions
	// together, in the Run whose base edgeRun holds; an entry stamped by
	// an earlier Run counts as zero, so no Run has to clear the array.
	// maxLoad is the largest count of this Run.
	edgeLoad []int64
	edgeRun  []int
	maxLoad  int64
	// traced is whether this Run is traced; loaded lists the edges a traced
	// Run loaded, in first-load order, for its edge-load histogram, and is
	// allocated by the first traced Run.
	traced bool
	loaded []int32

	// inbox[v] collects the messages v receives this round; v reads it
	// when stepped next round, after which its slots are cleared and
	// recycled. outboxes[v] holds what v sent this round until the
	// round's delivery.
	inbox    [][]Incoming
	outboxes [][]Outgoing
	// A vertex's per-run state is readied at its first step in a Run
	// (touch), which stamps seen[v] with the Run's base. A vertex not
	// stepped yet counts as done.
	seen    []int
	dones   []bool
	notDone int

	round int
	// base is the stamp of this Run's round 0: one past the last stamp of
	// the previous Run, so portEpoch and edgeRun entries written by earlier
	// Runs are all below it and no Run has to refill either array.
	base   int
	active []int32 // vertices stepped this round, ascending
	steps  stepSet // vertices queued for next round
	// timers is a binary min-heap of pending wake-ups keyed
	// round<<32 | vertex, so equal-round entries pop in vertex order. It is
	// hand-rolled because container/heap boxes every pushed value.
	timers []uint64
	// wakers[v] is nodes[v] if it is a Waker, set when v is touched, and
	// wakerList lists the vertices whose entry this Run set, for release;
	// armed[v] is the round of v's own pending wake timer, so repeating an
	// unchanged NextWake does not grow the heap. All three are allocated by
	// the first touch of a Waker.
	wakers    []Waker
	wakerList []int32
	armed     []int

	roundMsgs, roundWords, roundCong int64

	// all lists every vertex, the seeds of Run; built by its first Run.
	all []int
	// The settlement of a traced run (see settle), allocated by the first.
	counts   [3]trace.NamedValue
	hists    [2]trace.NamedHistogram
	series   [1]trace.NamedSeries
	msgHist  trace.Histogram
	loadHist trace.Histogram
}

// builds counts the round engines and fold program sets built, for the
// test that holds a guarded build to one of each.
var builds struct{ engines, foldPrograms atomic.Int64 }

// newEngine builds the routing tables of g and allocates the per-run
// arrays; reset fills them before each Run.
func newEngine(g *graph.Graph) *engine {
	builds.engines.Add(1)
	n := g.N()
	e := &engine{g: g, m: g.M(), n: n}

	e.off = make([]int, n+1)
	for v := 0; v < n; v++ {
		e.off[v+1] = e.off[v] + g.Degree(v)
	}
	ports := e.off[n]
	e.portEpoch = make([]int, ports)
	e.edgeLoad = make([]int64, g.M())
	e.edgeRun = make([]int, g.M())

	// Routing: the port index of every edge at each endpoint, then the far
	// end and the edge of every port.
	portAtU := make([]int32, g.M())
	portAtV := make([]int32, g.M())
	for v := 0; v < n; v++ {
		for p, id := range g.IncidentEdges(v) {
			if u, _ := g.EndpointsOf(int(id)); u == int32(v) {
				portAtU[id] = int32(p)
			} else {
				portAtV[id] = int32(p)
			}
		}
	}
	e.peer = make([]int32, ports)
	e.rport = make([]int32, ports)
	e.portEdge = make([]int32, ports)
	for v := 0; v < n; v++ {
		for p, id := range g.IncidentEdges(v) {
			u, w := g.EndpointsOf(int(id))
			fp := e.off[v] + p
			e.portEdge[fp] = id
			if u == int32(v) {
				e.peer[fp], e.rport[fp] = w, portAtV[id]
			} else {
				e.peer[fp], e.rport[fp] = u, portAtU[id]
			}
		}
	}

	// Inboxes are carved from one array with a slot per port: a vertex
	// receives at most one message per port in a round, so only an
	// injector's stall releases can outgrow a vertex's run of slots, and
	// append then moves that inbox to a backing of its own.
	slots := make([]Incoming, ports)
	e.inbox = make([][]Incoming, n)
	for v := 0; v < n; v++ {
		e.inbox[v] = slots[e.off[v]:e.off[v]:e.off[v+1]]
	}
	e.outboxes = make([][]Outgoing, n)
	e.seen = make([]int, n)
	e.dones = make([]bool, n)
	e.active = make([]int32, 0, n)
	e.steps = newStepSet(n)
	return e
}

// reset readies the engine for a Run of nodes on nw: it takes the word
// budget, tracer and injector from nw as they are now and returns the
// per-run state to its initial state, keeping the routing and all
// capacity. It does no per-vertex or per-edge work: the port, edge and
// vertex stamps are not refilled, because the new Run stamps above every
// earlier one, and each vertex's state is readied when it first steps.
//
//planarvet:noalloc TestNetworkRunReuseAllocs
func (e *engine) reset(nw *Network, nodes []Node, maxRounds int) {
	e.nw, e.nodes, e.maxRounds, e.inj = nw, nodes, maxRounds, nw.Injector
	e.maxWords = nw.MaxWords
	if e.maxWords <= 0 {
		e.maxWords = 4
	}
	// The previous Run's release left every inbox and the step set empty.
	e.base += e.round + 1
	e.round = 0
	e.maxLoad = 0
	e.loaded = e.loaded[:0]
	e.wakerList = e.wakerList[:0]
	e.notDone = 0
	e.active, e.timers = e.active[:0], e.timers[:0]
	e.roundMsgs, e.roundWords, e.roundCong = 0, 0, 0
}

// everyVertex returns the vertices in ascending order, the seeds of Run,
// building the list on first use.
func (e *engine) everyVertex() []int {
	if e.all == nil {
		e.all = make([]int, e.n)
		for v := range e.all {
			e.all[v] = v
		}
	}
	return e.all
}

// touch readies v's per-run state at its first step in a Run: v counts as
// done until its step reports otherwise, and whether its program is a
// Waker is decided here, once per Run.
//
//planarvet:noalloc TestNetworkRunReuseAllocs
func (e *engine) touch(v int) {
	e.seen[v] = e.base
	e.dones[v] = true
	w, _ := e.nodes[v].(Waker)
	if w != nil && e.wakers == nil {
		e.wakers = make([]Waker, e.n)       //planarvet:allocok once per engine, at the first Waker it steps
		e.wakerList = make([]int32, 0, e.n) //planarvet:allocok allocated with wakers
		e.armed = make([]int, e.n)          //planarvet:allocok allocated with wakers
	}
	if e.wakers == nil {
		return
	}
	// A non-Waker overwrites its entry too, in case a Run that panicked
	// never released it.
	e.wakers[v], e.armed[v] = w, 0
	if w != nil {
		e.wakerList = append(e.wakerList, int32(v)) //planarvet:allocok presized to n; a vertex is touched once per Run
	}
}

// release ends a Run: it drops every reference to the run's node programs
// and messages (outboxes, unread inbox slots, wakers, injector), so an idle
// Network does not pin the last run's Args. Each round drops its outboxes
// once delivered, and steps clear the inbox slots they read, so only the
// active set can still hold either: the part of a round an error aborted,
// or the round after the round limit.
//
//planarvet:noalloc TestNetworkRunReuseAllocs
func (e *engine) release() {
	e.nw, e.nodes, e.inj = nil, nil, nil
	for _, v := range e.wakerList {
		e.wakers[v] = nil
	}
	for _, v := range e.active {
		e.outboxes[v] = nil
		e.consume(int(v))
	}
}

// wakeAt sets a wake-up: v is stepped at the given round whether or not a
// message arrives. Rounds not after the current one, or past the budget,
// are ignored; a wake-up at the budget itself still collects stall
// releases in the last round. It is the timer hook handed to the Injector.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (e *engine) wakeAt(v, round int) {
	if round <= e.round || round > e.maxRounds {
		return
	}
	h := append(e.timers, uint64(round)<<32|uint64(v)) //planarvet:allocok amortized: the heap backing is reused across pops, capacity ramps up once then stabilises
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up] <= h[i] {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	e.timers = h
}

// popTimer removes and returns the earliest pending wake-up.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (e *engine) popTimer() uint64 {
	h := e.timers
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.timers = h
	return top
}

// stepSet is the next round's step set: a two-level bitset with one bit
// per vertex in words and one bit per word in summary (a summary word per
// 4,096 vertices). Adding is idempotent, so the set needs no per-round
// dedup stamps, and drain reads it out in ascending order in
// O(n/4096 + set size), with no sort.
type stepSet struct {
	words   []uint64 // bit v&63 of words[v>>6] is vertex v
	summary []uint64 // bit i&63 of summary[i>>6] is set while words[i] is nonzero
}

func newStepSet(n int) stepSet {
	w := (n + 63) >> 6
	return stepSet{words: make([]uint64, w), summary: make([]uint64, (w+63)>>6)}
}

// add puts v in the set.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (s *stepSet) add(v int) {
	s.words[v>>6] |= 1 << (v & 63)
	s.summary[v>>12] |= 1 << ((v >> 6) & 63)
}

// drain appends the set's vertices to dst in ascending order and empties
// the set. dst must have room for them: the engine drains into its active
// slice, presized to n.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (s *stepSet) drain(dst []int32) []int32 {
	for i, sw := range s.summary {
		if sw == 0 {
			continue
		}
		s.summary[i] = 0
		for ; sw != 0; sw &= sw - 1 {
			wi := i<<6 | bits.TrailingZeros64(sw)
			w := s.words[wi]
			s.words[wi] = 0
			for ; w != 0; w &= w - 1 {
				dst = append(dst, int32(wi<<6|bits.TrailingZeros64(w))) //planarvet:allocok the active slice is presized to n by newEngine and the set holds each vertex once
			}
		}
	}
	return dst
}

// stamp is the current round's port stamp.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (e *engine) stamp() int { return e.base + e.round }

// load counts a message delivered into flat port fp on the port's edge.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (e *engine) load(fp int) {
	id := e.portEdge[fp]
	l := int64(1)
	if e.edgeRun[id] == e.base {
		l += e.edgeLoad[id]
	} else {
		e.edgeRun[id] = e.base
		if e.traced {
			e.loaded = append(e.loaded, id) //planarvet:allocok presized to m by the first traced Run; an edge is first loaded once per Run
		}
	}
	e.edgeLoad[id] = l
	e.maxLoad = max(e.maxLoad, l)
}

// consume empties v's inbox once its messages are read. It drops each
// slot's Args, the one reference into the senders' buffers, field by field:
// inboxes hold a message or two, for which a clear of whole slots costs
// more than it clears.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (e *engine) consume(v int) {
	in := e.inbox[v]
	for i := range in {
		in[i].Msg.Args = nil
	}
	e.inbox[v] = e.inbox[v][:0] // reslicing in place stores only the length
}

// step advances one node and validates its sends. A valid send stamps the
// sender-side port with the current round, which catches a second send on
// the port and lets delivery see that an edge carries both directions. An
// EveryPort send stamps every port, in port order, and has its words
// checked at its first port, so it fails with the error the sends on each
// port would have given. Everything it writes lives in arrays allocated by
// newEngine; the only constructions are the protocol-error values on the
// abort path.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (e *engine) step(v int) error {
	if e.seen[v] != e.base {
		e.touch(v)
	}
	if e.inj != nil && e.inj.Crashed(e.round, v) {
		// Crash-stop: the program is not called, nothing is sent (an
		// empty outbox delivers nothing), and the vertex counts as done.
		e.outboxes[v] = nil
		e.setDone(v, true)
		return nil
	}
	send, done := e.nodes[v].Round(e.round, e.inbox[v])
	base := e.off[v]
	deg := e.off[v+1] - base
	stamp := e.stamp()
	for _, out := range send {
		if out.Port != EveryPort && (out.Port < 0 || out.Port >= deg) {
			return &ProtocolError{Kind: ErrInvalidPort, Round: e.round, Vertex: v, Port: out.Port} //planarvet:allocok abort path: a protocol violation ends the run, the steady state never reaches it
		}
		lo, hi := portRange(out.Port, deg)
		for p := lo; p < hi; p++ {
			fp := base + p
			if e.portEpoch[fp] == stamp {
				return &ProtocolError{Kind: ErrDuplicateSend, Round: e.round, Vertex: v, Port: p} //planarvet:allocok abort path: a protocol violation ends the run, the steady state never reaches it
			}
			if p == lo && out.Msg.Words() > e.maxWords {
				//planarvet:allocok abort path: a protocol violation ends the run, the steady state never reaches it
				return &ProtocolError{Kind: ErrMessageTooLarge, Round: e.round, Vertex: v, Port: p,
					Words: out.Msg.Words(), Limit: e.maxWords}
			}
			e.portEpoch[fp] = stamp
		}
	}
	if deg == 0 {
		// Only EveryPort sends get here from a vertex with no ports, and
		// they send nothing, so the vertex is not a sender.
		send = nil
	}
	e.outboxes[v] = send
	e.setDone(v, done)
	if e.wakers != nil && e.wakers[v] != nil {
		if at := e.wakers[v].NextWake(e.round); at > e.round && at != e.armed[v] {
			e.armed[v] = at
			e.wakeAt(v, at)
		}
	}
	return nil
}

// portRange returns the ports [lo, hi) a send on port of a vertex of
// degree deg goes out on: port alone, or all of them for EveryPort.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func portRange(port, deg int) (lo, hi int) {
	if port == EveryPort {
		return 0, deg
	}
	return port, port + 1
}

func (e *engine) setDone(v int, done bool) {
	if e.dones[v] != done {
		e.dones[v] = done
		if done {
			e.notDone--
		} else {
			e.notDone++
		}
	}
}

// deliver pushes sender u's messages of this round, which step validated,
// to their receivers in send order and queues the receivers for the next
// round; an EveryPort send is delivered in place as one message per port,
// in port order, each with the same injector ruling, inbox slot, edge load
// and congestion stamp as a send on that port. Senders are delivered in
// ascending order, and on a simple graph a receiver gets at most one
// message per sender, so every inbox is laid out in ascending sender order
// whatever order each sender listed its sends in.
//
// Per-round edge congestion needs no per-edge bookkeeping: an edge carries
// two messages in a round exactly when the receiver of one direction also
// sent on the same port, which is one stamp comparison.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (e *engine) deliver(u int) {
	base := e.off[u]
	deg := e.off[u+1] - base
	stamp := e.stamp()
	for _, out := range e.outboxes[u] {
		lo, hi := portRange(out.Port, deg)
		for p := lo; p < hi; p++ {
			fp := base + p
			w := int(e.peer[fp])
			rp := int(e.rport[fp])
			msg := out.Msg
			if e.inj != nil {
				m, fate := e.inj.Deliver(e.round, u, p, w, rp, msg)
				if fate != FateDeliver {
					continue // dropped or stalled: not delivered this round
				}
				msg = m
			}
			e.inbox[w] = append(e.inbox[w], Incoming{Port: rp, Msg: msg}) //planarvet:allocok presized to the degree by newEngine and recycled after every step; only injector releases can outgrow it, once
			e.steps.add(w)
			e.roundMsgs++
			e.roundWords += int64(msg.Words())
			wp := e.off[w] + rp
			e.load(wp)
			if e.portEpoch[wp] == stamp {
				e.roundCong = 2
			} else if e.roundCong < 1 {
				e.roundCong = 1
			}
		}
	}
}

// runRound executes one round: it steps the active set, delivers the
// round's messages, collects the wake-ups due next round, and makes the
// next round's step set active. With an Injector attached, every vertex
// woken for the next round first receives the stalled messages the
// injector releases to it, after the round's regular deliveries.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (e *engine) runRound() error {
	e.roundMsgs, e.roundWords, e.roundCong = 0, 0, 0
	// Steps run in ascending vertex order, so the first protocol error by
	// vertex order aborts the run.
	for _, v := range e.active {
		if err := e.step(int(v)); err != nil {
			return err
		}
		e.consume(int(v))
	}
	// Delivery waits until every node has stepped, so a receiver later in
	// the order cannot read this round's messages before next round.
	for _, u := range e.active {
		if len(e.outboxes[u]) > 0 {
			// A sender steps again next round even if nothing reaches it.
			e.steps.add(int(u))
			e.deliver(int(u))
		}
		e.outboxes[u] = nil
	}
	for prev := -1; len(e.timers) > 0 && int(e.timers[0]>>32) == e.round+1; {
		v := int(uint32(e.popTimer()))
		if v == prev {
			continue // a duplicate wake-up: equal keys pop back to back
		}
		prev = v
		if e.inj != nil {
			base := e.off[v]
			inb := e.inj.Released(e.round, v, e.inbox[v])
			for _, in := range inb[len(e.inbox[v]):] {
				e.roundMsgs++
				e.roundWords += int64(in.Msg.Words())
				e.load(base + in.Port)
			}
			e.inbox[v] = inb
		}
		e.steps.add(v)
	}
	e.active = e.steps.drain(e.active[:0])
	return nil
}

// start makes the seeds, validated by RunFrom, active for round 0 and lets
// the injector set its wake-ups.
//
//planarvet:noalloc TestNetworkRunReuseAllocs
func (e *engine) start(seeds []int) {
	for _, v := range seeds {
		e.active = append(e.active, int32(v)) //planarvet:allocok the active slice is presized to n by newEngine and the seeds are distinct
	}
	if e.inj != nil {
		e.inj.Schedule(e.wakeAt)
	}
}

// run executes the rounds from the seeds. A traced run emits one span per
// round as it goes and settles its metrics at the end, finished or not.
func (e *engine) run(seeds []int) (int, error) {
	tr := trace.OrNop(e.nw.Tracer)
	e.traced = tr.Enabled()
	var clock int64
	if e.traced {
		clock = tr.Now()
		if e.loaded == nil {
			e.loaded = make([]int32, 0, e.m)
		}
	}
	e.start(seeds)
	err := e.loop(tr)
	if e.traced {
		e.settle(tr, clock, err == nil)
	}
	if err != nil {
		return e.round, err
	}
	e.nw.stats.MaxEdgeLoad = e.maxLoad
	return e.nw.stats.Rounds, nil
}

// loop runs rounds until termination, an error or the round limit.
func (e *engine) loop(tr trace.Tracer) error {
	for e.round = 0; ; e.round++ {
		if e.round >= e.maxRounds {
			return &RoundLimitError{Limit: e.maxRounds}
		}
		if err := e.runRound(); err != nil {
			return err
		}
		e.accountRound(tr)
		if e.roundMsgs == 0 && e.notDone == 0 && (e.inj == nil || !e.inj.Pending()) {
			return nil
		}
	}
}

// accountRound folds one round's delivery totals into the run statistics
// and emits the per-round trace span.
func (e *engine) accountRound(tr trace.Tracer) {
	nw := e.nw
	nw.stats.Messages += e.roundMsgs
	nw.stats.Words += e.roundWords
	if e.roundCong > nw.stats.MaxEdgeCongestion {
		nw.stats.MaxEdgeCongestion = e.roundCong
	}
	if e.roundWords > nw.stats.MaxRoundWords {
		nw.stats.MaxRoundWords = e.roundWords
	}
	nw.stats.RoundMessages = append(nw.stats.RoundMessages, e.roundMsgs)
	nw.stats.Rounds = e.round + 1
	if e.traced {
		sp := tr.StartSpan(trace.LayerNetwork, "round")
		sp.SetAttr("msgs", e.roundMsgs)
		sp.SetAttr("words", e.roundWords)
		tr.Advance(1)
		sp.End()
	}
}

// settle hands a traced run's metrics to the tracer in one Merge, with the
// effect of the per-round and per-edge calls they stand for: the
// congest.rounds, congest.messages and congest.words counters, the
// congest.msgs_per_round histogram and time series (round r's point
// stamped with the clock at its end, clock+r+1, as its span ends) and, for
// a run that finished, the congest.edge_load histogram with one
// observation per edge of the graph — the edges the run left unloaded
// observe 0 in bulk, so it visits only the loaded ones — and the two
// gauges. A run that accounted no round settles nothing.
//
//planarvet:noalloc TestTracedRunReuseAllocs
func (e *engine) settle(tr trace.Tracer, clock int64, finished bool) {
	st := &e.nw.stats
	if len(st.RoundMessages) == 0 {
		return
	}
	if e.msgHist.Counts == nil {
		e.msgHist = *trace.NewHistogram(nil)  //planarvet:allocok once per engine, at its first traced run
		e.loadHist = *trace.NewHistogram(nil) //planarvet:allocok allocated with msgHist
	}
	resetHist(&e.msgHist)
	pts := e.series[0].Points[:0]
	for r, msgs := range st.RoundMessages {
		e.msgHist.Observe(msgs)
		pts = append(pts, trace.SamplePoint{Round: clock + int64(r) + 1, Val: msgs}) //planarvet:allocok the points' backing is reused by every later traced run, its capacity ramps up to the longest run once
	}
	e.counts[0] = trace.NamedValue{Name: "congest.rounds", Value: int64(len(st.RoundMessages))}
	e.counts[1] = trace.NamedValue{Name: "congest.messages", Value: st.Messages}
	e.counts[2] = trace.NamedValue{Name: "congest.words", Value: st.Words}
	e.hists[0] = trace.NamedHistogram{Name: "congest.msgs_per_round", Hist: &e.msgHist}
	e.series[0] = trace.NamedSeries{Name: "congest.msgs_per_round", Points: pts}
	hists := e.hists[:1]
	if finished {
		resetHist(&e.loadHist)
		for _, id := range e.loaded {
			e.loadHist.Observe(e.edgeLoad[id])
		}
		e.loadHist.ObserveN(0, int64(e.m-len(e.loaded)))
		e.hists[1] = trace.NamedHistogram{Name: "congest.edge_load", Hist: &e.loadHist}
		hists = e.hists[:2]
	}
	tr.Merge(trace.Batch{Counts: e.counts[:], Hists: hists, Series: e.series[:]})
	if finished {
		tr.SetGauge("congest.max_edge_congestion", st.MaxEdgeCongestion)
		tr.SetGauge("congest.max_edge_load", e.maxLoad)
	}
}

// resetHist empties h in place, keeping its bounds and counts storage.
//
//planarvet:noalloc TestTracedRunReuseAllocs
func resetHist(h *trace.Histogram) {
	clear(h.Counts)
	h.N, h.Sum, h.Min, h.Max = 0, 0, 0, 0
}
