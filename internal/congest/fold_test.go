package congest_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
)

var aggOps = []congest.AggOp{congest.OpSum, congest.OpMin, congest.OpMax}

// foldOutcome is everything a fold run leaves observable: its error,
// rounds and statistics, and the lane results every vertex holds.
type foldOutcome struct {
	err     string
	rounds  int
	stats   congest.Stats
	results [][]int
}

// runFold resets prog for lanes, runs it on nw within maxRounds and
// records the outcome.
func runFold(nw *congest.Network, prog *congest.FoldProgram, lanes []congest.FoldLane, maxRounds int) foldOutcome {
	rounds, err := nw.Run(prog.Reset(lanes), maxRounds)
	o := foldOutcome{err: fmt.Sprint(err), rounds: rounds, stats: nw.Stats(), results: make([][]int, nw.G.N())}
	for v := range o.results {
		o.results[v] = append([]int(nil), prog.Result(v)...)
	}
	return o
}

// seededLane is a lane of pseudo-random values in [-50, 50] under op.
func seededLane(n, seed int, op congest.AggOp) congest.FoldLane {
	values := make([]int, n)
	for v := range values {
		values[v] = (v*7919+seed*104729)%101 - 50
	}
	return congest.FoldLane{Values: values, Op: op}
}

// foldGrid is the w×h grid graph.
func foldGrid(t *testing.T, w, h int) *graph.Graph {
	t.Helper()
	in, err := gen.Grid(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return in.G
}

func bfsTree(t *testing.T, g *graph.Graph, root int) *spanning.Tree {
	t.Helper()
	tree, err := spanning.BFSTree(g, root)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestFoldMatchesPA holds the fold to the single-part part-wise
// aggregation it replaces: on every generator family, from two roots, for
// every operator in every lane position and one to three lanes, every
// vertex holds each lane's shortcut.RunPAOn result, in exactly
// 2·depth+1 rounds and 2(n−1) messages. One program on one network serves
// every fold of a tree, so the test also holds reuse to fresh runs.
func TestFoldMatchesPA(t *testing.T) {
	for _, fam := range gen.Families {
		in, err := gen.ByName(fam, 90, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := in.G
		n := g.N()
		onePart := &shortcut.Partition{PartOf: make([]int, n)}
		for _, root := range []int{0, n / 2} {
			tree := bfsTree(t, g, root)
			nw := congest.New(g)
			prog := congest.NewFoldProgram(nw, tree.Parent, root)
			for k := 1; k <= congest.MaxFoldLanes; k++ {
				for j := range aggOps {
					lanes := make([]congest.FoldLane, k)
					for i := range lanes {
						lanes[i] = seededLane(n, 10*k+3*j+i, aggOps[(i+j)%len(aggOps)])
					}
					got := runFold(nw, prog, lanes, 2*n+2)
					name := fmt.Sprintf("%s root %d, %d lanes from op %d", fam, root, k, aggOps[j])
					if got.err != "<nil>" {
						t.Fatalf("%s: %s", name, got.err)
					}
					if want := 2*tree.MaxDepth() + 1; got.rounds != want {
						t.Errorf("%s: %d rounds, want 2·depth+1 = %d", name, got.rounds, want)
					}
					if want := int64(2 * (n - 1)); got.stats.Messages != want {
						t.Errorf("%s: %d messages, want 2(n-1) = %d", name, got.stats.Messages, want)
					}
					for i, l := range lanes {
						pa, err := shortcut.RunPAOn(congest.New(g), tree, onePart, l.Values, l.Op)
						if err != nil {
							t.Fatal(err)
						}
						for v := 0; v < n; v++ {
							if len(got.results[v]) != k || got.results[v][i] != pa.Values[v] {
								t.Fatalf("%s: vertex %d holds %v, want lane %d = %d", name, v, got.results[v], i, pa.Values[v])
							}
						}
					}
					fnw := congest.New(g)
					if fresh := runFold(fnw, congest.NewFoldProgram(fnw, tree.Parent, root), lanes, 2*n+2); !reflect.DeepEqual(got, fresh) {
						t.Fatalf("%s: reused fold %+v, fresh %+v", name, got, fresh)
					}
				}
			}
		}
	}
}

// TestFoldReuseAfterAbort: a fold the round limit aborts — in round 0, in
// the convergecast or in the broadcast — leaves no state behind: the next
// fold on the same program and network equals a fresh one, and an aborted
// run leaves the vertices it did not reach without a result.
func TestFoldReuseAfterAbort(t *testing.T) {
	in, err := gen.ByName("cylinderish", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, n := in.G, in.G.N()
	tree := bfsTree(t, g, 0)
	depth := tree.MaxDepth()
	nw := congest.New(g)
	prog := congest.NewFoldProgram(nw, tree.Parent, 0)
	for i, budget := range []int{1, depth, depth + 2, 2 * depth} {
		lanes := []congest.FoldLane{seededLane(n, i, congest.OpSum), seededLane(n, i+1, congest.OpMax)}
		aborted := runFold(nw, prog, lanes, budget)
		if aborted.err == "<nil>" || aborted.results[n-1] != nil {
			t.Fatalf("budget %d: run ended with %s, deepest result %v; want a round-limit abort", budget, aborted.err, aborted.results[n-1])
		}
		lanes[1].Op = congest.OpMin
		got := runFold(nw, prog, lanes, 2*depth+1)
		fnw := congest.New(g)
		if fresh := runFold(fnw, congest.NewFoldProgram(fnw, tree.Parent, 0), lanes, 2*depth+1); !reflect.DeepEqual(got, fresh) {
			t.Fatalf("after abort at %d rounds: reused fold %+v, fresh %+v", budget, got, fresh)
		}
	}
}

// foldAll folds lanes over the BFS tree of g from root on a fresh network.
func foldAll(t *testing.T, g *graph.Graph, root int, lanes ...congest.FoldLane) foldOutcome {
	t.Helper()
	tree := bfsTree(t, g, root)
	nw := congest.New(g)
	o := runFold(nw, congest.NewFoldProgram(nw, tree.Parent, root), lanes, 2*g.N()+2)
	if o.err != "<nil>" {
		t.Fatal(o.err)
	}
	return o
}

// TestConvergecastSum: the fold's convergecast sums a lane and its
// broadcast hands the sum to every vertex.
func TestConvergecastSum(t *testing.T) {
	g := foldGrid(t, 7, 5)
	value := make([]int, g.N())
	want := 0
	for v := range value {
		value[v] = v*3 + 1
		want += value[v]
	}
	o := foldAll(t, g, 0, congest.FoldLane{Values: value, Op: congest.OpSum})
	for v, r := range o.results {
		if len(r) != 1 || r[0] != want {
			t.Fatalf("vertex %d holds %v, want [%d]", v, r, want)
		}
	}
}

// Property: folding all-ones inputs counts the vertices, at every vertex,
// on random planar graphs from random roots.
func TestConvergecastCountsProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 3 + int(sz)%60
		in, err := gen.StackedTriangulation(n, seed)
		if err != nil {
			return false
		}
		root := rand.New(rand.NewSource(seed)).Intn(n)
		ones := make([]int, n)
		for v := range ones {
			ones[v] = 1
		}
		o := foldAll(t, in.G, root, congest.FoldLane{Values: ones, Op: congest.OpSum})
		for _, r := range o.results {
			if len(r) != 1 || r[0] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConvergecastMinMax folds one value under min and max in two lanes
// of one fold.
func TestConvergecastMinMax(t *testing.T) {
	g := foldGrid(t, 4, 4)
	value := make([]int, g.N())
	lo, hi := 1<<30, -1<<30
	for v := range value {
		value[v] = (v*11 + 5) % 37
		lo, hi = min(lo, value[v]), max(hi, value[v])
	}
	o := foldAll(t, g, 0, congest.FoldLane{Values: value, Op: congest.OpMin}, congest.FoldLane{Values: value, Op: congest.OpMax})
	for v, r := range o.results {
		if !reflect.DeepEqual(r, []int{lo, hi}) {
			t.Fatalf("vertex %d holds %v, want [%d %d]", v, r, lo, hi)
		}
	}
}

// TestBroadcastProgram: a sum lane that is zero off the root broadcasts
// the root's value to every vertex.
func TestBroadcastProgram(t *testing.T) {
	g := foldGrid(t, 6, 6)
	value := make([]int, g.N())
	value[0] = 424242
	o := foldAll(t, g, 0, congest.FoldLane{Values: value, Op: congest.OpSum})
	for v, r := range o.results {
		if len(r) != 1 || r[0] != 424242 {
			t.Fatalf("vertex %d holds %v, want the broadcast [424242]", v, r)
		}
	}
}

// TestConvergecastWrongParent: a parent array with a cycle leaves the
// cycle's vertices waiting on each other, so the fold hits its round limit
// and they never hold a result.
func TestConvergecastWrongParent(t *testing.T) {
	g := foldGrid(t, 3, 3)
	parent := append([]int(nil), bfsTree(t, g, 0).Parent...)
	// 1 and 4 are adjacent on the 3×3 grid: make them each other's parent.
	parent[1], parent[4] = 4, 1
	nw := congest.New(g)
	prog := congest.NewFoldProgram(nw, parent, 0)
	o := runFold(nw, prog, []congest.FoldLane{seededLane(g.N(), 1, congest.OpSum)}, 50)
	if o.err == "<nil>" {
		t.Fatal("a fold over a cyclic parent array completed")
	}
	for _, v := range []int{1, 4} {
		if r := o.results[v]; r != nil {
			t.Fatalf("vertex %d on the parent cycle holds %v", v, r)
		}
	}
}
