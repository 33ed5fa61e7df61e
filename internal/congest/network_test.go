package congest

import (
	"errors"
	"testing"
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
