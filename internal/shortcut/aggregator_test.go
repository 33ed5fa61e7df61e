package shortcut

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
)

// paStep is one aggregation of a reuse sequence: value under op over the
// partition partOf (nil: the Aggregator's single part), within maxRounds
// (0: the Aggregator's own budget, so the run goes through Run).
type paStep struct {
	partOf    []int
	seed      int
	op        congest.AggOp
	maxRounds int
}

// paOutcome is everything a run leaves observable: its error, rounds and
// statistics, and every node's result flag and result.
type paOutcome struct {
	err       string
	rounds    int
	stats     congest.Stats
	hasResult []bool
	result    []int
}

func outcomeOf(rounds int, err error, nw *congest.Network, node func(v int) *congest.PANode) paOutcome {
	n := nw.G.N()
	o := paOutcome{err: fmt.Sprint(err), rounds: rounds, stats: nw.Stats(),
		hasResult: make([]bool, n), result: make([]int, n)}
	for v := 0; v < n; v++ {
		o.hasResult[v], o.result[v] = node(v).HasResult, node(v).Result
	}
	return o
}

// TestAggregatorReuseMatchesFresh runs one Aggregator, and the PA program
// it owns, through a sequence of aggregations — single-part runs under
// every operator with changing values, runs the round limit aborts in the
// upcast or the downcast (multi-part ones while the root's down queues
// still hold finals), multi-part runs whose parts change between runs, and
// full runs after each — against fresh programs on fresh
// networks: errors, rounds, statistics, every node's result and the JSONL
// traces of the sequences must be identical. A reused single-part
// aggregation must also allocate nothing.
func TestAggregatorReuseMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		family string
		n      int
	}{{"grid", 100}, {"stacked", 200}, {"cylinderish", 300}} {
		t.Run(fmt.Sprintf("%s-%d", tc.family, tc.n), func(t *testing.T) {
			in, err := gen.ByName(tc.family, tc.n, 1)
			if err != nil {
				t.Fatal(err)
			}
			g := in.G
			n := g.N()
			tree, err := spanning.BFSTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			depth := tree.MaxDepth()
			fiveParts := make([]int, n)
			byDepth := make([]int, n)
			for v := range fiveParts {
				fiveParts[v] = v % 5
				byDepth[v] = tree.Depth[v] % 3
			}
			steps := []paStep{
				{nil, 1, congest.OpSum, 0},
				{nil, 2, congest.OpMin, 0},
				{nil, 3, congest.OpMax, 3},         // aborted in the upcast
				{nil, 4, congest.OpSum, 0},         // after an upcast abort
				{nil, 5, congest.OpMin, depth + 3}, // aborted in the downcast
				{nil, 6, congest.OpMax, 0},         // after a downcast abort
				{fiveParts, 7, congest.OpSum, 0},
				{byDepth, 8, congest.OpMin, 0}, // parts change between runs
				{byDepth, 9, congest.OpSum, 2*depth + 4},
				{nil, 10, congest.OpSum, 1}, // aborted in round 0
				{nil, 11, congest.OpMax, 0},
			}
			// Multi-part runs aborted while the root still streams its
			// finals down, each followed by a full run.
			for r := depth; r <= depth+8; r++ {
				steps = append(steps, paStep{fiveParts, 12 + r, congest.OpSum, r}, paStep{nil, 13 + r, congest.OpMin, 0})
			}

			rec, freshRec := trace.NewRecorder(), trace.NewRecorder()
			nw := congest.New(g)
			nw.Tracer = rec
			agg, err := NewAggregator(nw, tree)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range steps {
				value := make([]int, n)
				for v := range value {
					value[v] = (v*s.seed*7919 + s.seed) % 101
				}
				partOf := s.partOf
				if partOf == nil {
					partOf = make([]int, n)
				}

				fnw := congest.New(g)
				fnw.Tracer = freshRec
				fresh := congest.NewPANodes(fnw, tree.Parent, tree.Root, partOf, value, s.op)
				budget := s.maxRounds
				if budget == 0 {
					budget = agg.maxRounds
				}
				frounds, ferr := fnw.Run(fresh, budget)
				want := outcomeOf(frounds, ferr, fnw, func(v int) *congest.PANode { return fresh[v].(*congest.PANode) })

				var got paOutcome
				if s.partOf == nil && s.maxRounds == 0 {
					a, rounds, err := agg.Run(value, s.op)
					if err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					if a != want.result[0] {
						t.Fatalf("step %d: Run returned %d, node 0 holds %d", i, a, want.result[0])
					}
					got = outcomeOf(rounds, nil, nw, agg.prog.Node)
				} else {
					rounds, err := nw.Run(agg.prog.Reset(partOf, value, s.op), budget)
					got = outcomeOf(rounds, err, nw, agg.prog.Node)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%+v): reused program\n%+v\nfresh program\n%+v", i, s, got, want)
				}
			}
			var a, b bytes.Buffer
			if err := rec.WriteJSONL(&a); err != nil {
				t.Fatal(err)
			}
			if err := freshRec.WriteJSONL(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("reused and fresh JSONL traces differ (%d vs %d bytes)", a.Len(), b.Len())
			}

			// A reused single-part aggregation rewinds its argument arena
			// and queues in place instead of allocating.
			nw.Tracer = nil
			value := make([]int, n)
			allocs := testing.AllocsPerRun(5, func() {
				if _, _, err := agg.Run(value, congest.OpSum); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("a reused single-part aggregation allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// TestNewAggregatorRejectsForeignTree: the Aggregator applies RunPAOn's
// tree checks.
func TestNewAggregatorRejectsForeignTree(t *testing.T) {
	in, err := gen.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	small, err := gen.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := spanning.BFSTree(small.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAggregator(congest.New(in.G), tree); err == nil {
		t.Fatal("a tree of another graph was accepted")
	}
	good, err := spanning.BFSTree(in.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(congest.New(in.G), good)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := agg.Run(make([]int, 4), congest.OpSum); err == nil {
		t.Fatal("a value array of the wrong length was accepted")
	}
}
