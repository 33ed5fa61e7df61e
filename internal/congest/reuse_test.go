package congest_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/trace"
)

// labelNode is a certification-style exchange: in round 0 it broadcasts a
// label of its own words on every port, in round 1 it halts. Every step
// folds what arrived into a digest.
type labelNode struct {
	out    []congest.Outgoing
	digest int
	got    int
}

func (l *labelNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	for _, in := range recv {
		l.got++
		l.digest = l.digest*31 + in.Port + 1 + in.Msg.Kind
		for i, a := range in.Msg.Args {
			l.digest = l.digest*31 + (i+1)*a
		}
	}
	if round == 0 && len(l.out) > 0 {
		return l.out, false
	}
	return nil, true
}

// periodicNode is stepped only by its wake timer, every period rounds while
// the next wake-up is not past stop, and logs the rounds it is stepped in.
// It halts at its last wake-up, or at once when halt is set: a pending
// timer does not delay termination, so that run ends with its wake-ups
// still pending.
type periodicNode struct {
	period, stop int
	halt         bool
	steps        []int
}

func (p *periodicNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	p.steps = append(p.steps, round)
	return nil, p.halt || round+p.period > p.stop
}

func (p *periodicNode) NextWake(round int) int {
	if round+p.period > p.stop {
		return -1
	}
	return round + p.period
}

// badPortNode sends on a port it does not have in round 1.
type badPortNode struct{ deg int }

func (b badPortNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	if round == 1 {
		return []congest.Outgoing{{Port: b.deg, Msg: congest.Message{Kind: 1}}}, false
	}
	return nil, round == 0
}

// dupSendNode runs its program but sends twice on port 0 in round at, a
// protocol error that aborts the run after the vertices before it in the
// round have stepped and stamped their ports.
type dupSendNode struct {
	congest.Node
	at int
}

func (d dupSendNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	if round == d.at {
		m := congest.Message{Kind: 1}
		return []congest.Outgoing{{Port: 0, Msg: m}, {Port: 0, Msg: m}}, false
	}
	return d.Node.Round(round, recv)
}

// reuseStep is one Run of the reuse sequence: its word budget (0 means the
// default 4), the fault plan armed for it, a graph change made before it,
// the node programs and the rendering of their results.
type reuseStep struct {
	name      string
	maxWords  int
	plan      *chaos.Plan
	mutate    func(t *testing.T, nw *congest.Network) // graph change before the run
	build     func(nw *congest.Network) []congest.Node
	limit     int
	out       func(nodes []congest.Node) any
	wantError bool
}

// TestNetworkReuseMatchesFresh runs one sequence of programs on a single
// reused Network and, step by step, on fresh Networks: BFS, PA, a label
// exchange at a larger word budget, Waker programs, a round-limit abort, a
// run that ends with wake-ups pending and a protocol-error abort (each
// followed by a normal run), an injected
// run followed by a clean one, and a run after AddEdge, which must rebuild
// the routing. Two aborts come mid-traffic: a duplicate send halfway
// through a round of random chatter, after half the vertices stamped their
// ports, and a round limit with every inbox still full; the clean runs
// after them would see a stale port stamp as a duplicate send and an
// unread inbox entry as an extra message. Rounds, errors, node outputs,
// Stats and the recorded traces must be identical.
func TestNetworkReuseMatchesFresh(t *testing.T) {
	g := goldenInstance(t, "stacked", 120, 4).G.Clone()
	n := g.N()
	parent := g.BFS(0).Parent
	value := make([]int, n)
	partOf := make([]int, n)
	for v := range value {
		value[v] = (v * 7919) % 101
		partOf[v] = v % 4
	}
	bfs := func(nw *congest.Network) []congest.Node { return congest.NewBFSNodes(nw, 0) }
	bfsOut := func(nodes []congest.Node) any {
		res := make([][2]int, len(nodes))
		for v, nd := range nodes {
			b := nd.(*congest.BFSNode)
			res[v] = [2]int{b.Dist, b.ParentID}
		}
		return res
	}
	pa := func(nw *congest.Network) []congest.Node {
		return congest.NewPANodes(nw, parent, 0, partOf, value, congest.OpSum)
	}
	paOut := func(nodes []congest.Node) any {
		res := make([][2]any, len(nodes))
		for v, nd := range nodes {
			p := nd.(*congest.PANode)
			res[v] = [2]any{p.Result, p.HasResult}
		}
		return res
	}
	label := func(nw *congest.Network) []congest.Node {
		nodes := make([]congest.Node, n)
		for v := range nodes {
			args := []int{v, nw.G.Degree(v), v * v % 97, 3, v % 5, 11}
			out := make([]congest.Outgoing, nw.G.Degree(v))
			for p := range out {
				out[p] = congest.Outgoing{Port: p, Msg: congest.Message{Kind: 1, Args: args}}
			}
			nodes[v] = &labelNode{out: out}
		}
		return nodes
	}
	labelOut := func(nodes []congest.Node) any {
		res := make([][2]int, len(nodes))
		for v, nd := range nodes {
			l := nd.(*labelNode)
			res[v] = [2]int{l.digest, l.got}
		}
		return res
	}
	chatter := func(nw *congest.Network) []congest.Node {
		nodes := make([]congest.Node, n)
		for v := range nodes {
			nodes[v] = &chatterNode{deg: nw.G.Degree(v), state: uint64(v)*2654435761 + 9, stopRound: 10}
		}
		return nodes
	}
	chatterOut := func(nodes []congest.Node) any {
		res := make([]any, len(nodes))
		for v, nd := range nodes {
			res[v] = nd.(*chatterNode).history
		}
		return res
	}
	periodic := func(period, stop int, halt bool) func(*congest.Network) []congest.Node {
		return func(*congest.Network) []congest.Node {
			nodes := make([]congest.Node, n)
			for v := range nodes {
				nodes[v] = &periodicNode{period: period + v%2, stop: stop, halt: halt}
			}
			return nodes
		}
	}
	periodicOut := func(nodes []congest.Node) any {
		res := make([][]int, len(nodes))
		for v, nd := range nodes {
			res[v] = nd.(*periodicNode).steps
		}
		return res
	}
	badPort := func(nw *congest.Network) []congest.Node {
		nodes := label(nw)
		nodes[n/2] = badPortNode{deg: nw.G.Degree(n / 2)}
		return nodes
	}
	chatterDupSend := func(nw *congest.Network) []congest.Node {
		nodes := chatter(nw)
		nodes[n/2] = dupSendNode{Node: nodes[n/2], at: 3}
		return nodes
	}
	noOut := func([]congest.Node) any { return nil }
	awerbuch := func(nw *congest.Network) []congest.Node { return congest.NewAwerbuchNodes(nw, 0) }
	awerbuchOut := func(nodes []congest.Node) any {
		res := make([][2]int, len(nodes))
		for v, nd := range nodes {
			a := nd.(*congest.AwerbuchNode)
			res[v] = [2]int{a.Depth, a.ParentID}
		}
		return res
	}
	plan := &chaos.Plan{Seed: 5, Spec: chaos.Spec{Drops: 4, Stalls: 3, Corruptions: 2, Crashes: 1, Horizon: 5, Protect: []int{0}}}

	steps := []reuseStep{
		{name: "bfs", build: bfs, limit: 4 * n, out: bfsOut},
		{name: "pa", build: pa, limit: 16 * n, out: paOut},
		{name: "label-exchange", maxWords: 7, build: label, limit: 8, out: labelOut},
		{name: "waker", build: chatter, limit: 100, out: chatterOut},
		{name: "round-limit", build: periodic(3, 1000, false), limit: 6, out: periodicOut, wantError: true},
		{name: "waker-after-round-limit", build: periodic(4, 13, false), limit: 40, out: periodicOut},
		{name: "short-waker", build: periodic(4, 5, false), limit: 40, out: periodicOut},
		{name: "waker-after-short-waker", build: periodic(4, 13, false), limit: 40, out: periodicOut},
		{name: "halted-with-wake-ups", build: periodic(3, 1000, true), limit: 40, out: periodicOut},
		{name: "waker-after-pending-wake-ups", build: periodic(4, 13, false), limit: 40, out: periodicOut},
		{name: "protocol-error", maxWords: 7, build: badPort, limit: 8, out: noOut, wantError: true},
		{name: "label-after-protocol-error", maxWords: 7, build: label, limit: 8, out: labelOut},
		{name: "mid-round-protocol-error", build: chatterDupSend, limit: 100, out: noOut, wantError: true},
		{name: "chatter-after-mid-round-protocol-error", build: chatter, limit: 100, out: chatterOut},
		{name: "mid-traffic-round-limit", maxWords: 7, build: label, limit: 1, out: labelOut, wantError: true},
		{name: "label-after-mid-traffic-round-limit", maxWords: 7, build: label, limit: 8, out: labelOut},
		{name: "awerbuch", build: awerbuch, limit: 10 * n, out: awerbuchOut},
		{name: "injected", plan: plan, build: bfs, limit: 4 * n, out: bfsOut},
		{name: "after-injected", build: pa, limit: 16 * n, out: paOut},
		{name: "bfs-after-add-edge", mutate: func(t *testing.T, nw *congest.Network) {
			if _, err := nw.G.AddEdge(0, n-1); err != nil {
				t.Fatal(err)
			}
		}, build: bfs, limit: 4 * n, out: bfsOut},
		{name: "label-after-add-edge", maxWords: 7, build: label, limit: 8, out: labelOut},
	}

	reusedRec, freshRec := trace.NewRecorder(), trace.NewRecorder()
	reused := congest.New(g)
	reused.Tracer = reusedRec
	run := func(nw *congest.Network, s reuseStep) string {
		nw.MaxWords = 4
		if s.maxWords > 0 {
			nw.MaxWords = s.maxWords
		}
		nw.Injector = nil
		inj := s.plan.Arm(nw, 1)
		nodes := s.build(nw)
		rounds, err := nw.Run(nodes, s.limit)
		if (err != nil) != s.wantError {
			t.Fatalf("%s: err = %v, want error %v", s.name, err, s.wantError)
		}
		var counts any
		if inj != nil {
			c := inj.Counts()
			if c == (chaos.Counts{}) {
				t.Fatalf("%s: no armed fault fired", s.name)
			}
			counts = c
		}
		return fmt.Sprintf("rounds=%d err=%v stats=%+v counts=%+v out=%v",
			rounds, err, nw.Stats(), counts, s.out(nodes))
	}
	for _, s := range steps {
		if s.mutate != nil {
			s.mutate(t, reused)
		}
		fresh := congest.New(g)
		fresh.Tracer = freshRec
		want := run(fresh, s)
		got := run(reused, s)
		if got != want {
			t.Fatalf("%s: reused Network diverges from a fresh one\n got: %.300s\nwant: %.300s", s.name, got, want)
		}
		if !reflect.DeepEqual(reused.Stats(), fresh.Stats()) {
			t.Fatalf("%s: Stats %+v, fresh %+v", s.name, reused.Stats(), fresh.Stats())
		}
	}
	var a, b bytes.Buffer
	if err := reusedRec.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := freshRec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("traces of the reused and the fresh Networks differ")
	}
}
