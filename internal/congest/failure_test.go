package congest

import (
	"testing"
)

// Failure injection: protocol violations must surface as errors, never
// hang or silently corrupt the run.

type badPortNode struct{ round int }

func (b *badPortNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	b.round = round
	if round == 3 {
		return []Outgoing{{Port: 99, Msg: Message{Kind: 1}}}, false
	}
	return []Outgoing{{Port: 0, Msg: Message{Kind: 1}}}, false
}

func TestMidRunInvalidPort(t *testing.T) {
	g := gridGraph(t, 2, 2)
	nodes := make([]Node, g.N())
	for i := range nodes {
		nodes[i] = &badPortNode{}
	}
	nw := New(g)
	if _, err := nw.Run(nodes, 100); err == nil {
		t.Fatal("mid-run invalid port accepted")
	}
}

// A PA run over a corrupted tree (a non-tree parent array) must fail fast
// via the round limit rather than deliver wrong aggregates silently.
func TestPAOverCorruptTree(t *testing.T) {
	g := gridGraph(t, 3, 3)
	parent := make([]int, g.N())
	for v := range parent {
		parent[v] = (v + 1) % g.N() // a cycle, not a tree
	}
	parent[0] = -1
	partOf := make([]int, g.N())
	value := make([]int, g.N())
	nw := New(g)
	// PortTo(-1-neighbours) yields -1 ports for non-adjacent "parents";
	// sends on them must be rejected, or the run must hit the round limit.
	defer func() { recover() }() // construction may panic on non-adjacency
	nodes := NewPANodes(nw, parent, 0, partOf, value, OpSum)
	if _, err := nw.Run(nodes, 200); err == nil {
		for _, nd := range nodes {
			if !nd.(*PANode).HasResult {
				return // incomplete results: acceptable failure mode
			}
		}
		t.Fatal("corrupt tree produced complete results without error")
	}
}

// Awerbuch started at an out-of-graph root index panics at construction;
// started concurrently from two roots (two tokens) must still terminate —
// the stronger token-invariant breaks, but the simulator must not hang.
func TestAwerbuchTwoTokens(t *testing.T) {
	g := gridGraph(t, 4, 4)
	nw := New(g)
	nodes := NewAwerbuchNodes(nw, 0)
	// Inject a second token by marking node 15 as a root too.
	an := nodes[15].(*AwerbuchNode)
	*an = *NewAwerbuchNodes(nw, 15)[15].(*AwerbuchNode)
	if _, err := nw.Run(nodes, 10*g.N()); err != nil {
		// Hitting the round limit is an acceptable outcome; hanging is not
		// (Run enforces the limit).
		t.Logf("two-token run errored as expected: %v", err)
	}
}
