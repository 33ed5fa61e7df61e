package congest_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/shortcut"
	"planardfs/internal/trace"
)

// perPort runs a program with each of its EveryPort sends written out as
// one send per port, in port order: the form an every-port send stands
// for. A program that is no Waker reports no wake-up, which arms no timer.
type perPort struct {
	inner congest.Node
	deg   int
}

func (pp *perPort) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	send, done := pp.inner.Round(round, recv)
	var out []congest.Outgoing
	for _, o := range send {
		if o.Port != congest.EveryPort {
			out = append(out, o)
			continue
		}
		for p := 0; p < pp.deg; p++ {
			out = append(out, congest.Outgoing{Port: p, Msg: o.Msg})
		}
	}
	return out, done
}

func (pp *perPort) NextWake(round int) int {
	if w, ok := pp.inner.(congest.Waker); ok {
		return w.NextWake(round)
	}
	return -1
}

func perPortNodes(g *graph.Graph, nodes []congest.Node) []congest.Node {
	out := make([]congest.Node, len(nodes))
	for v, nd := range nodes {
		out[v] = &perPort{inner: nd, deg: g.Degree(v)}
	}
	return out
}

// broadcastNode mixes the two forms: in each round before stopRound it
// broadcasts one message to every port, sends on a random subset of its
// ports, or stays silent, as its seeded generator draws; it records every
// inbox it reads.
type broadcastNode struct {
	deg       int
	state     uint64
	stopRound int
	history   [][]congest.Incoming
}

func (b *broadcastNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	b.history = append(b.history, append([]congest.Incoming{}, recv...))
	if round >= b.stopRound {
		return nil, true
	}
	b.state = b.state*6364136223846793005 + 1442695040888963407
	r := b.state >> 33
	args := make([]int, int(r>>4)%4) // 0..3 args: at most 4 words
	for i := range args {
		args[i] = int((r >> (12 + 4*i)) & 0xff)
	}
	msg := congest.Message{Kind: int(r % 16), Args: args}
	switch r % 3 {
	case 0:
		return []congest.Outgoing{{Port: congest.EveryPort, Msg: msg}}, false
	case 1:
		var send []congest.Outgoing
		for p := 0; p < b.deg; p++ {
			if (r>>(20+p%32))&1 == 1 {
				send = append(send, congest.Outgoing{Port: p, Msg: msg})
			}
		}
		return send, false
	}
	return nil, false
}

// NextWake keeps the node stepping every round until stopRound.
func (b *broadcastNode) NextWake(round int) int {
	if round >= b.stopRound {
		return -1
	}
	return round + 1
}

// ruling is one Injector.Deliver call and its outcome.
type ruling struct {
	Round, Src, SrcPort, Dst, DstPort int
	Sent, Got                         congest.Message
	Fate                              congest.DeliveryFate
}

// rulingLog records every delivery ruling of the injector it wraps.
type rulingLog struct {
	congest.Injector
	rulings []ruling
}

func (l *rulingLog) Deliver(round, src, srcPort, dst, dstPort int, msg congest.Message) (congest.Message, congest.DeliveryFate) {
	sent := congest.Message{Kind: msg.Kind, Args: append([]int(nil), msg.Args...)}
	m, fate := l.Injector.Deliver(round, src, srcPort, dst, dstPort, msg)
	l.rulings = append(l.rulings, ruling{round, src, srcPort, dst, dstPort, sent,
		congest.Message{Kind: m.Kind, Args: append([]int(nil), m.Args...)}, fate})
	return m, fate
}

// everyPortRun is everything one run shows: its rounds, error and Stats,
// every node's result, the traced JSONL, Chrome trace and metrics, and,
// under a fault plan, every ruling and the fired-fault counts.
type everyPortRun struct {
	Rounds  int
	Err     string
	Stats   congest.Stats
	Results []any
	JSONL   string
	Chrome  string
	Metrics string
	Rulings []ruling
	Fired   chaos.Counts
}

// diff names the first part of the two runs that differs, or "" if none.
func (r everyPortRun) diff(o everyPortRun) string {
	a, b := reflect.ValueOf(r), reflect.ValueOf(o)
	for i := 0; i < a.NumField(); i++ {
		if x, y := a.Field(i).Interface(), b.Field(i).Interface(); !reflect.DeepEqual(x, y) {
			return fmt.Sprintf("%s: %v, per-port sends give %v", a.Type().Field(i).Name, x, y)
		}
	}
	return ""
}

// everyPortProgram builds a program's nodes on nw and reads a node's result.
type everyPortProgram struct {
	name      string
	build     func(nw *congest.Network) []congest.Node
	result    func(nd congest.Node) any
	maxRounds func(g *graph.Graph) int
}

func everyPortPrograms(seed uint64) []everyPortProgram {
	return []everyPortProgram{
		{"broadcast", func(nw *congest.Network) []congest.Node {
			nodes := make([]congest.Node, nw.G.N())
			for v := range nodes {
				nodes[v] = &broadcastNode{deg: nw.G.Degree(v), state: seed<<32 | uint64(v)*2654435761 + 1, stopRound: 12}
			}
			return nodes
		}, func(nd congest.Node) any { return nd.(*broadcastNode).history },
			func(*graph.Graph) int { return 100 }},
		{"bfs", func(nw *congest.Network) []congest.Node { return congest.NewBFSNodes(nw, 0) },
			func(nd congest.Node) any { b := nd.(*congest.BFSNode); return [2]int{b.Dist, b.ParentID} },
			func(g *graph.Graph) int { return 4*g.N() + 20 }},
		{"boruvka", func(nw *congest.Network) []congest.Node {
			partOf := make([]int, nw.G.N())
			for i, v := range nw.G.BFS(0).Order {
				partOf[v] = i * 4 / nw.G.N()
			}
			return congest.NewBoruvkaNodes(nw, partOf)
		}, func(nd congest.Node) any { b := nd.(*congest.BoruvkaNode); return [2]any{b.Fragment, b.ForestPorts} },
			func(g *graph.Graph) int { return (2*g.N() + 4) * (shortcut.Log2Ceil(g.N()) + 3) }},
	}
}

// runEveryPort runs prog on g traced, in its own form or with every
// EveryPort send written out per port, under plan when it is not nil.
func runEveryPort(t *testing.T, g *graph.Graph, prog everyPortProgram, perPortForm bool, plan *chaos.Plan) everyPortRun {
	t.Helper()
	rec := trace.NewRecorder()
	nw := congest.New(g)
	nw.Tracer = rec
	var log *rulingLog
	var inj *chaos.Injector
	if plan != nil {
		if inj = plan.Arm(nw, 1); inj != nil {
			log = &rulingLog{Injector: inj}
			nw.Injector = log
		}
	}
	nodes := prog.build(nw)
	run := nodes
	if perPortForm {
		run = perPortNodes(g, nodes)
	}
	rounds, err := nw.Run(run, prog.maxRounds(g))
	out := everyPortRun{Rounds: rounds, Err: fmt.Sprint(err), Stats: nw.Stats()}
	for _, nd := range nodes {
		out.Results = append(out.Results, prog.result(nd))
	}
	var jsonl, chrome, metrics bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	out.JSONL, out.Chrome, out.Metrics = jsonl.String(), chrome.String(), metrics.String()
	if log != nil {
		out.Rulings, out.Fired = log.rulings, inj.Counts()
	}
	return out
}

// TestEveryPortSendMatchesPerPortSends holds an EveryPort send to the
// sends on each port it stands for: on every family, a program that
// broadcasts in both forms, BFSNode and BoruvkaNode give the same rounds,
// Stats (RoundMessages and the largest edge load included), inbox contents
// and orders, node results and traced JSONL, Chrome trace and metrics
// whether each every-port send is sent as one or written out per port,
// and under a seeded fault plan that drops, corrupts, stalls, cuts links
// and crashes nodes, the same rulings on every delivery and the same
// fired-fault counts. congest's external tests already arm chaos.Plan (see
// TestScheduleGolden), so the fault case lives here with the others.
func TestEveryPortSendMatchesPerPortSends(t *testing.T) {
	plan := chaos.NewPlan(3, chaos.Spec{Drops: 12, Corruptions: 12, Stalls: 12, LinkDowns: 2, Crashes: 2, Horizon: 12, StallLen: 2, Protect: []int{0}})
	fired := map[string]int64{}
	for _, fam := range gen.Families {
		in, err := gen.ByName(fam, 90, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, prog := range everyPortPrograms(5) {
			for _, p := range []*chaos.Plan{nil, plan} {
				every := runEveryPort(t, in.G, prog, false, p)
				expanded := runEveryPort(t, in.G, prog, true, p)
				if d := every.diff(expanded); d != "" {
					t.Fatalf("%s %s (faults %v): every-port sends give %s", fam, prog.name, p != nil, d)
				}
				if p == nil && every.Err != "<nil>" {
					t.Fatalf("%s %s: %s", fam, prog.name, every.Err)
				}
				if p != nil {
					fired[prog.name] += every.Fired.Total()
				}
			}
		}
	}
	for _, prog := range everyPortPrograms(5) {
		if fired[prog.name] == 0 {
			t.Errorf("%s: the fault plan fired no fault on any family", prog.name)
		}
	}
	t.Run("protocol errors", everyPortProtocolErrors)
}

// everyPortErrorNode sends send at its wake-up in round 1 and is silent
// otherwise.
type everyPortErrorNode struct{ send []congest.Outgoing }

func (e *everyPortErrorNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	if round == 1 {
		return e.send, true
	}
	return nil, round > 1
}

func (e *everyPortErrorNode) NextWake(round int) int { return 1 }

// everyPortProtocolErrors holds the protocol errors of an EveryPort send
// to those of the sends it stands for: an every-port send
// and a send on one of the ports, in either order, is a duplicate send on
// that port, two every-port sends are one on port 0, and a too-large
// every-port message fails at port 0 with its size. On a vertex with no
// ports an every-port send is no send at all.
func everyPortProtocolErrors(t *testing.T) {
	in, err := gen.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := in.G
	const v = 4 // the centre, of degree 4
	big := congest.Message{Kind: 1, Args: []int{1, 2, 3, 4, 5, 6}}
	msg := congest.Message{Kind: 1, Args: []int{9}}
	for _, c := range []struct {
		name string
		send []congest.Outgoing
		kind error
		port int
	}{
		{"every-port then port 2", []congest.Outgoing{{Port: congest.EveryPort, Msg: msg}, {Port: 2, Msg: msg}}, congest.ErrDuplicateSend, 2},
		{"port 2 then every-port", []congest.Outgoing{{Port: 2, Msg: msg}, {Port: congest.EveryPort, Msg: msg}}, congest.ErrDuplicateSend, 2},
		{"two every-port sends", []congest.Outgoing{{Port: congest.EveryPort, Msg: msg}, {Port: congest.EveryPort, Msg: msg}}, congest.ErrDuplicateSend, 0},
		{"too large", []congest.Outgoing{{Port: congest.EveryPort, Msg: big}}, congest.ErrMessageTooLarge, 0},
	} {
		var errs [2]error
		var stats [2]congest.Stats
		for i, perPortForm := range []bool{false, true} {
			nodes := make([]congest.Node, g.N())
			for u := range nodes {
				nodes[u] = &everyPortErrorNode{}
			}
			nodes[v] = &everyPortErrorNode{send: c.send}
			if perPortForm {
				nodes = perPortNodes(g, nodes)
			}
			nw := congest.New(g)
			_, errs[i] = nw.Run(nodes, 10)
			stats[i] = nw.Stats()
		}
		var pe *congest.ProtocolError
		if !errors.As(errs[0], &pe) || !errors.Is(errs[0], c.kind) || pe.Vertex != v || pe.Round != 1 || pe.Port != c.port {
			t.Fatalf("%s: err = %v, want %v at vertex %d, round 1, port %d", c.name, errs[0], c.kind, v, c.port)
		}
		if !reflect.DeepEqual(errs[0], errs[1]) || !reflect.DeepEqual(stats[0], stats[1]) {
			t.Fatalf("%s: every-port form gives %v and %+v, per-port form %v and %+v", c.name, errs[0], stats[0], errs[1], stats[1])
		}
	}

	// A lone vertex: its every-port send reaches no one and makes it no
	// sender, so the run ends after round 0.
	lone := graph.New(1)
	nw := congest.New(lone)
	rounds, err := nw.Run([]congest.Node{&loneBroadcast{}}, 10)
	if err != nil || rounds != 1 || nw.Stats().Messages != 0 {
		t.Fatalf("lone every-port send: %d rounds, %d messages, err %v; want 1 round, no message", rounds, nw.Stats().Messages, err)
	}
}

// loneBroadcast broadcasts in round 0 and halts.
type loneBroadcast struct{}

func (loneBroadcast) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	return []congest.Outgoing{{Port: congest.EveryPort, Msg: congest.Message{Kind: 1}}}, true
}
