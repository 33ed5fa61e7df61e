package congest

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"planardfs/internal/trace"
)

func TestMessageWords(t *testing.T) {
	if (Message{Kind: 1}).Words() != 1 {
		t.Fatal("kind-only message should cost 1 word")
	}
	if (Message{Kind: 1, Args: []int{1, 2, 3}}).Words() != 4 {
		t.Fatal("3-arg message should cost 4 words")
	}
}

func TestAggOpCombine(t *testing.T) {
	cases := []struct {
		op      AggOp
		a, b, w int
	}{
		{OpSum, 3, 4, 7},
		{OpMin, 3, 4, 3},
		{OpMin, 4, 3, 3},
		{OpMax, 3, 4, 4},
		{OpMax, 4, 3, 4},
	}
	for _, c := range cases {
		if got := c.op.combine(c.a, c.b); got != c.w {
			t.Errorf("op %d combine(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown op should panic")
		}
	}()
	AggOp(0).combine(1, 2)
}

func TestRunNodeCountMismatch(t *testing.T) {
	g := gridGraph(t, 2, 2)
	nw := New(g)
	if _, err := nw.Run([]Node{&silentNode{}}, 10); err == nil {
		t.Fatal("wrong node count accepted")
	}
}

// Regression: Stats must return a defensive copy of RoundMessages, so a
// caller mutating the returned slice cannot corrupt the engine's histogram.
func TestStatsDefensiveCopy(t *testing.T) {
	g := gridGraph(t, 4, 4)
	nw := New(g)
	if _, err := nw.Run(NewBFSNodes(nw, 0), 1000); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if len(st.RoundMessages) == 0 {
		t.Fatal("no rounds recorded")
	}
	want := append([]int64(nil), st.RoundMessages...)
	for i := range st.RoundMessages {
		st.RoundMessages[i] = -999
	}
	got := nw.Stats().RoundMessages
	if len(got) != len(want) {
		t.Fatalf("histogram length changed: %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("round %d: internal histogram corrupted via returned slice (%d != %d)", i, got[i], want[i])
		}
	}
}

// Regression: a non-positive round budget must be rejected up front with a
// distinct error, not reported as a round-limit overrun of a run that never
// stepped a node.
func TestInvalidRoundLimit(t *testing.T) {
	g := gridGraph(t, 2, 2)
	nw := New(g)
	nodes := make([]Node, g.N())
	for i := range nodes {
		nodes[i] = &silentNode{}
	}
	for _, bad := range []int{0, -1, -100} {
		_, err := nw.Run(nodes, bad)
		if !errors.Is(err, ErrInvalidRoundLimit) {
			t.Fatalf("Run(nodes, %d) = %v, want ErrInvalidRoundLimit", bad, err)
		}
		if errors.Is(err, ErrRoundLimit) {
			t.Fatalf("Run(nodes, %d) reported a round-limit overrun: %v", bad, err)
		}
	}
}

func TestInfoContents(t *testing.T) {
	g := gridGraph(t, 3, 3)
	nw := New(g)
	info := nw.Info(0)
	if info.ID != 0 || info.N != 9 {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Neighbors) != g.Degree(0) {
		t.Fatal("neighbour count wrong")
	}
	for p, w := range info.Neighbors {
		id := int(g.IncidentEdges(0)[p])
		if g.EdgeByID(id).Other(0) != w {
			t.Fatal("port order inconsistent with incident edges")
		}
	}
}

// streamNode sends one message on each of its ports in every round before
// stop, and halts then; a node with no ports halts at once.
type streamNode struct {
	ports []int
	stop  int
}

func (s *streamNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	if round >= s.stop || len(s.ports) == 0 {
		return nil, true
	}
	out := make([]Outgoing, len(s.ports))
	for i, p := range s.ports {
		out[i] = Outgoing{Port: p, Msg: Message{Kind: 1}}
	}
	return out, false
}

// TestEdgeLoadAcrossRuns pins MaxEdgeLoad and the traced edge-load
// histogram over Runs that load different edges on one Network: vertex 0
// and vertex 5 streaming on one port each (6 messages per edge), every
// vertex streaming on every port (6 per edge, both directions together),
// then the first pattern for 4 rounds. An edge load or maximum counted by
// an earlier Run must read as zero in a later one, so each Run must match
// the same Run on a fresh Network.
func TestEdgeLoadAcrossRuns(t *testing.T) {
	g := gridGraph(t, 8, 8)
	n := g.N()
	few := func(v int) []int {
		switch v {
		case 0, 5:
			return []int{0}
		}
		return nil
	}
	all := func(v int) []int {
		ps := make([]int, g.Degree(v))
		for p := range ps {
			ps[p] = p
		}
		return ps
	}
	type runCase struct {
		name     string
		ports    func(v int) []int
		stop     int
		wantLoad int64
		wantMsgs int64
	}
	runs := []runCase{
		{"few", few, 6, 6, 12},
		{"all", all, 3, 6, int64(3 * 2 * g.M())},
		{"few, shorter", few, 4, 4, 8},
	}
	run := func(nw *Network, c runCase) (Stats, string) {
		tr := trace.NewRecorder()
		nw.Tracer = tr
		nodes := make([]Node, n)
		for v := range nodes {
			nodes[v] = &streamNode{ports: c.ports(v), stop: c.stop}
		}
		if _, err := nw.Run(nodes, 20); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return nw.Stats(), buf.String()
	}
	reused := New(g)
	for i, c := range runs {
		st, tr := run(reused, c)
		if st.MaxEdgeLoad != c.wantLoad || st.Messages != c.wantMsgs {
			t.Fatalf("run %d (%s): MaxEdgeLoad %d and %d messages, want %d and %d",
				i, c.name, st.MaxEdgeLoad, st.Messages, c.wantLoad, c.wantMsgs)
		}
		// The histogram has an observation per edge, and the loads sum to
		// the Run's own messages.
		hist := fmt.Sprintf("histogram congest.edge_load: n=%d sum=%d ", g.M(), c.wantMsgs)
		if !strings.Contains(tr, hist) {
			t.Fatalf("run %d (%s): metrics lack %q:\n%s", i, c.name, hist, tr)
		}
		fst, ftr := run(New(g), c)
		if !reflect.DeepEqual(st, fst) {
			t.Fatalf("run %d (%s): reused Stats %+v, fresh %+v", i, c.name, st, fst)
		}
		if tr != ftr {
			t.Fatalf("run %d (%s): the reused Network's trace differs from a fresh one's", i, c.name)
		}
	}
}

// TestRunFromSeeds checks the seeded start: seeds out of range or out of
// ascending order are refused before any node steps, and a BFS, quiescent
// away from its root in round 0, run from the root alone equals the run
// from every vertex in its statistics, its traced exports and its tree.
func TestRunFromSeeds(t *testing.T) {
	g := gridGraph(t, 9, 7)
	nw := New(g)
	for _, seeds := range [][]int{{-1}, {g.N()}, {3, 3}, {4, 2}} {
		nodes := make([]Node, g.N())
		for v := range nodes {
			nodes[v] = &silentNode{}
		}
		if _, err := nw.RunFrom(nodes, seeds, 4); !errors.Is(err, ErrInvalidSeeds) {
			t.Errorf("seeds %v: got %v, want ErrInvalidSeeds", seeds, err)
		}
	}
	const root = 31
	type outcome struct {
		rounds     int
		stats      Stats
		dist, par  []int
		jsonl, chr string
	}
	run := func(seeded bool) outcome {
		rec := trace.NewRecorder()
		nw.Tracer = rec
		nodes := NewBFSNodes(nw, root)
		var rounds int
		var err error
		if seeded {
			rounds, err = nw.RunFrom(nodes, []int{root}, 4*g.N())
		} else {
			rounds, err = nw.Run(nodes, 4*g.N())
		}
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{rounds: rounds, stats: nw.Stats()}
		for _, nd := range nodes {
			o.dist = append(o.dist, nd.(*BFSNode).Dist)
			o.par = append(o.par, nd.(*BFSNode).ParentID)
		}
		var j, c bytes.Buffer
		if err := rec.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteChromeTrace(&c); err != nil {
			t.Fatal(err)
		}
		o.jsonl, o.chr = j.String(), c.String()
		return o
	}
	if full, seeded := run(false), run(true); !reflect.DeepEqual(seeded, full) {
		t.Fatalf("seeded BFS %+v\nfull-start BFS %+v", seeded, full)
	}
}
