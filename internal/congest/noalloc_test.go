package congest

import (
	"testing"

	"planardfs/internal/graph"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
)

// saturatorNode sends one preallocated message on every port each round and
// never halts, so it is stepped every round as last round's sender.
type saturatorNode struct {
	out []Outgoing
}

func (c *saturatorNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	return c.out, false
}

// tickNode receives nothing and sends nothing; its wake timer alone steps
// it, every other round.
type tickNode struct{ steps int }

func (c *tickNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	c.steps++
	return nil, false
}

func (c *tickNode) NextWake(round int) int { return round + 2 }

// TestRoundLoopZeroAlloc is the runtime gate behind the
// //planarvet:noalloc annotations on the round loop (runRound, step,
// deliver, portRange, consume, load, stamp, the step set and the
// wake-timer heap): once the timer heap has ramped up to its steady-state
// capacity, a full round performs zero allocations even with every edge
// saturated in both directions, half the saturating vertices sending as
// one EveryPort send each, and a timer firing every other round. It runs
// on 5 vertices and on 8,200, where the saturated cycle and the timer
// vertex sit in three different summary words of the step set.
func TestRoundLoopZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		n    int
		core [4]int // the saturated 4-cycle with chord core[0]-core[2]
	}{
		{5, [4]int{0, 1, 2, 3}},
		{8200, [4]int{0, 4095, 4096, 8000}},
	} {
		g := graph.New(c.n) // the last vertex is isolated: only its timer can step it
		k := c.core
		g.MustAddEdge(k[0], k[1])
		g.MustAddEdge(k[1], k[2])
		g.MustAddEdge(k[2], k[3])
		g.MustAddEdge(k[3], k[0])
		g.MustAddEdge(k[0], k[2])

		nodes := make([]Node, g.N())
		for v := range nodes {
			out := make([]Outgoing, g.Degree(v))
			for p := range out {
				out[p] = Outgoing{Port: p, Msg: Message{Kind: 7}}
			}
			if v%2 == 0 && len(out) > 0 {
				// Even vertices send the same traffic as one EveryPort send.
				out = []Outgoing{{Port: EveryPort, Msg: Message{Kind: 7}}}
			}
			nodes[v] = &saturatorNode{out: out}
		}
		tick := &tickNode{}
		nodes[c.n-1] = tick

		e := newEngine(g)
		e.reset(New(g), nodes, 1<<20)
		e.start(e.everyVertex())
		oneRound := func() {
			if err := e.runRound(); err != nil {
				t.Fatal(err)
			}
			e.round++
		}
		// Warm-up rounds grow the timer heap to its steady-state capacity.
		for i := 0; i < 4; i++ {
			oneRound()
		}

		const runs = 100
		allocs := testing.AllocsPerRun(runs, oneRound)
		if allocs != 0 {
			t.Fatalf("n=%d: steady-state round allocates %.1f times, want 0", c.n, allocs)
		}
		for _, v := range k {
			if got, want := len(e.inbox[v]), g.Degree(v); got != want {
				t.Fatalf("n=%d: vertex %d received %d messages, want %d", c.n, v, got, want)
			}
		}
		// Every vertex with ports, plus the timer vertex in even rounds.
		if got, want := len(e.active), 4+1-e.round%2; got != want {
			t.Fatalf("n=%d: %d vertices active in round %d, want %d", c.n, got, e.round, want)
		}
		// Round 0 plus every even round of the 4 warm-up and 1+runs measured
		// rounds (AllocsPerRun adds one warm-up call of its own).
		if want := (4 + 1 + runs + 1) / 2; tick.steps != want {
			t.Fatalf("n=%d: timer node stepped %d times over %d rounds, want %d", c.n, tick.steps, e.round, want)
		}
	}
}

// onceNode sends one preallocated message on every port in round 0 and
// halts; it keeps no state, so the same nodes serve any number of Runs.
type onceNode struct {
	out []Outgoing
}

func (c *onceNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	if round == 0 {
		return c.out, true
	}
	return nil, true
}

// onceWaker is a onceNode that is a Waker but never sets a timer, so a
// run touches its Waker state without arming anything.
type onceWaker struct{ onceNode }

func (*onceWaker) NextWake(int) int { return -1 }

// TestNetworkRunReuseAllocs is the runtime gate behind the
// //planarvet:noalloc annotations on the engine's reset path (reset,
// start, touch and release): once a Network has run a one-round exchange,
// running it again allocates nothing on grids of n = 1024 and n = 4096
// alike, from every vertex (Run) or from one seed (RunFrom), with every
// other program a Waker, because the routing tables, the per-run arrays,
// the Waker table, the inbox capacity and the round histogram all carry
// over.
func TestNetworkRunReuseAllocs(t *testing.T) {
	perRun := func(side int, seeds []int) float64 {
		g := gridGraph(t, side, side)
		nodes := make([]Node, g.N())
		for v := range nodes {
			out := make([]Outgoing, g.Degree(v))
			for p := range out {
				out[p] = Outgoing{Port: p, Msg: Message{Kind: 3, Args: []int{v}}}
			}
			if v%2 == 0 {
				nodes[v] = &onceNode{out: out}
			} else {
				nodes[v] = &onceWaker{onceNode{out: out}}
			}
		}
		nw := New(g)
		want := int64(2 * g.M())
		if seeds != nil {
			want = int64(g.Degree(seeds[0]))
		}
		run := func() {
			var rounds int
			var err error
			if seeds == nil {
				rounds, err = nw.Run(nodes, 4)
			} else {
				rounds, err = nw.RunFrom(nodes, seeds, 4)
			}
			if err != nil {
				t.Fatal(err)
			}
			if rounds != 2 || nw.stats.Messages != want {
				t.Fatalf("run took %d rounds and %d messages, want 2 and %d", rounds, nw.stats.Messages, want)
			}
		}
		run() // builds the engine
		return testing.AllocsPerRun(20, run)
	}
	for _, side := range []int{32, 64} {
		for _, seeds := range [][]int{nil, {side + 1}} {
			if allocs := perRun(side, seeds); allocs != 0 {
				t.Errorf("n=%d, seeds %v: a reused Run allocates %.1f times, want 0", side*side, seeds, allocs)
			}
		}
	}
}

// discardTracer is enabled but keeps nothing, so a traced run's cost is the
// engine's own.
type discardTracer struct{}

type discardSpan struct{}

func (discardSpan) SetAttr(string, int64) {}
func (discardSpan) End()                  {}

func (discardTracer) Enabled() bool                            { return true }
func (discardTracer) StartSpan(trace.Layer, string) trace.Span { return discardSpan{} }
func (discardTracer) Advance(int64)                            {}
func (discardTracer) Now() int64                               { return 0 }
func (discardTracer) Count(string, int64)                      {}
func (discardTracer) SetGauge(string, int64)                   {}
func (discardTracer) Observe(string, int64)                    {}
func (discardTracer) Sample(string, int64)                     {}
func (discardTracer) Merge(trace.Batch)                        {}

// TestTracedRunReuseAllocs is the runtime gate behind the
// //planarvet:noalloc annotations on a traced run's settlement (settle,
// resetHist): once a traced Run has set up the settlement's histograms,
// loaded-edge list and point buffer, a traced Run again allocates nothing,
// on grids of n = 1024 and n = 4096, with one settlement per run whatever
// its edge count.
func TestTracedRunReuseAllocs(t *testing.T) {
	for _, side := range []int{32, 64} {
		g := gridGraph(t, side, side)
		tree, err := spanning.BFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]int, g.N())
		for v := range values {
			values[v] = v % 5
		}
		nw := New(g)
		nw.Tracer = discardTracer{}
		prog := NewFoldProgram(nw, tree.Parent, 0)
		run := func() {
			if _, err := nw.Run(prog.Reset([]FoldLane{{Values: values, Op: OpSum}}), 2*tree.MaxDepth()+1); err != nil {
				t.Fatal(err)
			}
		}
		run() // builds the engine and the settlement's storage
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("n=%d: a reused traced fold allocates %.1f times, want 0", g.N(), allocs)
		}
	}
}

// TestPAProgramReuseAllocs is the runtime gate behind the
// //planarvet:noalloc annotation on PAProgram.Reset: once a PA program has
// run a single-part aggregation, resetting it and running it again on the
// same Network allocates nothing on grids of n = 1024 and n = 4096 alike —
// the queues, part sets, finals, outboxes and the argument arena are
// rewound in place, so the cost does not grow with n.
func TestPAProgramReuseAllocs(t *testing.T) {
	perRun := func(side int) float64 {
		g := gridGraph(t, side, side)
		n := g.N()
		parent := make([]int, n)
		for v := range parent {
			// A spanning tree of the grid: up the first column, then left
			// along each row.
			switch {
			case v == 0:
				parent[v] = -1
			case v%side == 0:
				parent[v] = v - side
			default:
				parent[v] = v - 1
			}
		}
		partOf := make([]int, n)
		value := make([]int, n)
		for v := range value {
			value[v] = v % 7
		}
		nw := New(g)
		prog := NewPAProgram(nw, parent, 0)
		run := func() {
			if _, err := nw.Run(prog.Reset(partOf, value, OpSum), 20*(2*side+11)); err != nil {
				t.Fatal(err)
			}
			if r := prog.Node(n - 1); !r.HasResult || r.Result != prog.Node(0).Result {
				t.Fatalf("vertex %d holds %d (has=%v), root %d", n-1, r.Result, r.HasResult, prog.Node(0).Result)
			}
		}
		run() // builds the engine and the root's finals
		return testing.AllocsPerRun(10, run)
	}
	for _, side := range []int{32, 64} {
		if allocs := perRun(side); allocs != 0 {
			t.Errorf("n=%d: a reused single-part aggregation allocates %.1f times, want 0", side*side, allocs)
		}
	}
}

// TestFoldProgramReuseAllocs is the runtime gate behind the
// //planarvet:noalloc annotations on FoldProgram.Reset and the fold's
// Round: once a fold program has run, resetting it and running it again on
// the same Network allocates nothing on grids of n = 1024 and n = 4096
// alike, in one lane or three.
func TestFoldProgramReuseAllocs(t *testing.T) {
	perRun := func(side, k int) float64 {
		g := gridGraph(t, side, side)
		n := g.N()
		tree, err := spanning.BFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		lanes := make([]FoldLane, k)
		for i := range lanes {
			lanes[i] = FoldLane{Values: make([]int, n), Op: AggOp(OpSum + AggOp(i))}
			for v := range lanes[i].Values {
				lanes[i].Values[v] = (v + i) % 7
			}
		}
		nw := New(g)
		prog := NewFoldProgram(nw, tree.Parent, 0)
		run := func() {
			if _, err := nw.Run(prog.Reset(lanes), 2*tree.MaxDepth()+1); err != nil {
				t.Fatal(err)
			}
			if r := prog.Result(n - 1); len(r) != k || r[0] != prog.Result(0)[0] {
				t.Fatalf("vertex %d holds %v, root %v", n-1, r, prog.Result(0))
			}
		}
		run() // builds the engine
		return testing.AllocsPerRun(10, run)
	}
	for _, side := range []int{32, 64} {
		for _, k := range []int{1, MaxFoldLanes} {
			if allocs := perRun(side, k); allocs != 0 {
				t.Errorf("n=%d, %d lanes: a reused fold allocates %.1f times, want 0", side*side, k, allocs)
			}
		}
	}
}
