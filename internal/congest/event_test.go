package congest

import (
	"bytes"
	"reflect"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/trace"
)

// everyRound wraps a node with a wake timer for the next round, so the
// engine steps it in every round: the step-every-node schedule expressed
// through the one round loop.
type everyRound struct{ Node }

func (w everyRound) NextWake(round int) int { return round + 1 }

// stepEveryRound returns nodes wrapped so each one is stepped every round.
func stepEveryRound(nodes []Node) []Node {
	out := make([]Node, len(nodes))
	for v, nd := range nodes {
		out[v] = everyRound{nd}
	}
	return out
}

// scheduleResult is one program run's round count, Stats and per-vertex
// results.
type scheduleResult struct {
	rounds  int
	stats   Stats
	results [][3]int
}

// TestEventScheduleEquivalence locks the Node contract the event schedule
// relies on: for every built-in message-driven program, skipping quiescent
// nodes must produce rounds, Stats (including the RoundMessages histogram)
// and per-node results identical to stepping every node in every round,
// because a step that receives nothing leaves a message-driven node's state
// and done report unchanged.
func TestEventScheduleEquivalence(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		family := "sparse"
		if trial%2 == 1 {
			family = "stacked"
		}
		n := 80 + 17*trial
		in, err := gen.ByName(family, n, int64(trial+7))
		if err != nil {
			t.Fatal(err)
		}
		g := in.G

		// A BFS-tree parent array for the tree-structured programs, taken
		// from the reference BFS so it cannot depend on the code under test.
		parent := g.BFS(0).Parent
		value := make([]int, g.N())
		partOf := make([]int, g.N())
		for v := range value {
			value[v] = (v*2654435761 + trial) % 1000
			partOf[v] = v % (3 + trial%5)
		}

		programs := []struct {
			name  string
			build func(nw *Network) ([]Node, func(v int, nd Node) [3]int)
		}{
			{"bfs", func(nw *Network) ([]Node, func(int, Node) [3]int) {
				return NewBFSNodes(nw, 0), func(_ int, nd Node) [3]int {
					b := nd.(*BFSNode)
					return [3]int{b.Dist, b.ParentID, 0}
				}
			}},
			{"awerbuch", func(nw *Network) ([]Node, func(int, Node) [3]int) {
				return NewAwerbuchNodes(nw, 0), func(_ int, nd Node) [3]int {
					a := nd.(*AwerbuchNode)
					return [3]int{a.Depth, a.ParentID, 0}
				}
			}},
			{"ancestorsum", func(nw *Network) ([]Node, func(int, Node) [3]int) {
				return NewAncestorSumNodes(nw, parent, 0, value, OpSum), func(_ int, nd Node) [3]int {
					return [3]int{nd.(*AncestorSumNode).Prefix, 0, 0}
				}
			}},
			{"fold", func(nw *Network) ([]Node, func(int, Node) [3]int) {
				prog := NewFoldProgram(nw, parent, 0)
				nodes := prog.Reset([]FoldLane{{Values: value, Op: OpSum}, {Values: partOf, Op: OpMax}})
				return nodes, func(v int, _ Node) [3]int {
					r := prog.Result(v)
					if r == nil {
						return [3]int{0, 0, -1}
					}
					return [3]int{r[0], r[1], 1}
				}
			}},
			{"pa", func(nw *Network) ([]Node, func(int, Node) [3]int) {
				return NewPANodes(nw, parent, 0, partOf, value, OpMin), func(_ int, nd Node) [3]int {
					p := nd.(*PANode)
					has := 0
					if p.HasResult {
						has = 1
					}
					return [3]int{p.Result, has, 0}
				}
			}},
		}

		for _, prog := range programs {
			run := func(stepAll bool) scheduleResult {
				nw := New(g)
				nodes, extract := prog.build(nw)
				runNodes := nodes
				if stepAll {
					runNodes = stepEveryRound(nodes)
				}
				rounds, err := nw.Run(runNodes, 16*g.N())
				if err != nil {
					t.Fatalf("trial %d %s stepAll=%v: %v", trial, prog.name, stepAll, err)
				}
				res := make([][3]int, len(nodes))
				for v, nd := range nodes {
					res[v] = extract(v, nd)
				}
				return scheduleResult{rounds, nw.Stats(), res}
			}
			event := run(false)
			stepAll := run(true)
			if event.rounds != stepAll.rounds {
				t.Fatalf("trial %d %s: event rounds %d != step-every-round %d",
					trial, prog.name, event.rounds, stepAll.rounds)
			}
			if !reflect.DeepEqual(event.stats, stepAll.stats) {
				t.Fatalf("trial %d %s: stats diverge from step-every-round\nevent:    %+v\nstep-all: %+v",
					trial, prog.name, event.stats, stepAll.stats)
			}
			if !reflect.DeepEqual(event.results, stepAll.results) {
				t.Fatalf("trial %d %s: results diverge from step-every-round", trial, prog.name)
			}
		}
	}
}

// TestTraceIdenticalAcrossEngines locks the determinism contract of the
// tracing subsystem: the trace is driven only from the per-round accounting
// after delivery, so skipping quiescent nodes and stepping every node every
// round must produce byte-identical trace exports and equal stats on the
// same workload, and so must two runs of the same schedule.
func TestTraceIdenticalAcrossEngines(t *testing.T) {
	g := gridGraph(t, 9, 9)
	run := func(stepAll bool) (*trace.Recorder, Stats) {
		rec := trace.NewRecorder()
		wrap := func(nodes []Node) []Node {
			if stepAll {
				return stepEveryRound(nodes)
			}
			return nodes
		}

		nw := New(g)
		nw.Tracer = rec
		if _, err := nw.Run(wrap(NewAwerbuchNodes(nw, 0)), 10*g.N()); err != nil {
			t.Fatal(err)
		}
		awe := nw.Stats()

		// A second program on the same recorder: the pipelined PA sum over
		// a BFS tree, exercising multi-word messages and the per-round
		// congestion counters.
		parent := g.BFS(0).Parent
		partOf := make([]int, g.N())
		value := make([]int, g.N())
		for v := range value {
			value[v] = 1
		}
		nw2 := New(g)
		nw2.Tracer = rec
		if _, err := nw2.Run(wrap(NewPANodes(nw2, parent, 0, partOf, value, OpSum)), 100*g.N()); err != nil {
			t.Fatal(err)
		}
		return rec, awe
	}

	export := func(rec *trace.Recorder) (jsonl, chrome []byte) {
		var bj, bc bytes.Buffer
		if err := rec.WriteJSONL(&bj); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteChromeTrace(&bc); err != nil {
			t.Fatal(err)
		}
		return bj.Bytes(), bc.Bytes()
	}
	recEvent, stEvent := run(false)
	jEvent, cEvent := export(recEvent)
	if len(recEvent.Spans()) == 0 {
		t.Fatal("trace is empty")
	}
	for _, other := range []struct {
		name    string
		stepAll bool
	}{{"repeated event-schedule run", false}, {"step-every-round run", true}} {
		rec, st := run(other.stepAll)
		if !reflect.DeepEqual(stEvent, st) {
			t.Fatalf("stats diverge from %s:\nevent: %+v\nother: %+v", other.name, stEvent, st)
		}
		j, c := export(rec)
		if !bytes.Equal(jEvent, j) {
			t.Fatalf("JSONL trace differs from %s", other.name)
		}
		if !bytes.Equal(cEvent, c) {
			t.Fatalf("Chrome trace differs from %s", other.name)
		}
	}
}
