package cert

import (
	"testing"

	"planardfs/internal/congest"
	"planardfs/internal/gen"
)

// TestExchangeReuseAllocs is the runtime gate behind the
// //planarvet:noalloc annotations on certNode.Round and Verifier.exchange:
// once a Verifier has run one label exchange, every later one allocates
// nothing, on accepting and on rejecting labels. Each vertex's label goes
// out as one EveryPort send and is judged in one shared receive row, which
// the exchange leaves holding no label, as it leaves every broadcast.
func TestExchangeReuseAllocs(t *testing.T) {
	for _, fam := range []string{"grid", "stacked"} {
		in, err := gen.ByName(fam, 400, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := in.G.N()
		vf := NewVerifier(in.G, Options{})
		tree, err := vf.bfsTree()
		if err != nil {
			t.Fatal(err)
		}
		span := ProveSpanningTree(tree)
		bad := ProveSpanningTree(tree)
		bad[n/2][2]++ // a depth off by one: the vertex and its tree neighbours reject
		spanning := func(labels [][]int) Scheme {
			return Scheme{name: "spanning", labels: labels, words: spanningWords, judge: func(v int, nb []int, got [][]int) bool {
				return spanningJudge(v, n, nb, labels[v], got, spanningWords)
			}}
		}
		for _, c := range []struct {
			name   string
			s      Scheme
			accept bool
		}{
			{"embedding", vf.EmbeddingScheme(ProveEmbedding(in.Emb)), true},
			{"spanning", spanning(span), true},
			{"spanning, one depth corrupted", spanning(bad), false},
		} {
			exchange := func() {
				if _, err := vf.exchange(c.s.labels, c.s.words, c.s.judge); err != nil {
					t.Fatal(err)
				}
			}
			exchange()
			if allocs := testing.AllocsPerRun(20, exchange); allocs != 0 {
				t.Errorf("%s %s: a reused exchange allocates %.1f times, want 0", fam, c.name, allocs)
			}
			rejects := 0
			for _, a := range vf.accepts {
				rejects += 1 - a
			}
			if (rejects == 0) != c.accept {
				t.Errorf("%s %s: %d vertices reject, want accept=%v", fam, c.name, rejects, c.accept)
			}
			for p, got := range vf.row {
				if got != nil {
					t.Fatalf("%s %s: the receive row holds a label at port %d after the exchange", fam, c.name, p)
				}
			}
			for v := range vf.cns {
				if vf.cns[v].out[0].Msg.Args != nil || vf.cns[v].judge != nil {
					t.Fatalf("%s %s: vertex %d keeps its label or judge after the exchange", fam, c.name, v)
				}
			}
		}
	}
}

// dropInjector drops every message into dst on dstPort that drop selects
// and delivers the rest.
type dropInjector struct{ drop func(dst, dstPort int) bool }

func (dropInjector) Schedule(func(v, round int)) {}
func (dropInjector) Crashed(round, v int) bool   { return false }
func (d dropInjector) Deliver(round, src, srcPort, dst, dstPort int, msg congest.Message) (congest.Message, congest.DeliveryFate) {
	if d.drop(dst, dstPort) {
		return msg, congest.FateDrop
	}
	return msg, congest.FateDeliver
}
func (dropInjector) Released(round, dst int, inbox []congest.Incoming) []congest.Incoming {
	return inbox
}
func (dropInjector) Pending() bool { return false }

// TestExchangeNilWhereNothingArrived holds the shared receive row to a
// receive table per vertex: a judge sees nil exactly on the ports whose
// label was dropped, never a label another vertex received there before
// it, in a Verifier's first exchange and in a reused one.
func TestExchangeNilWhereNothingArrived(t *testing.T) {
	in, err := gen.ByName("stacked", 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := in.G
	vf := NewVerifier(g, Options{})
	dropped := func(v, p int) bool { return (v+p)%3 == 0 }
	labels := make([][]int, g.N())
	for v := range labels {
		labels[v] = []int{v}
	}
	judge := func(v int, nb []int, got [][]int) bool {
		for p, lab := range got {
			if want := !dropped(v, p); (lab != nil) != want || (want && lab[0] != nb[p]) {
				return false
			}
		}
		return true
	}
	vf.Network().Injector = dropInjector{drop: dropped}
	defer func() { vf.Network().Injector = nil }()
	for run := 0; run < 2; run++ {
		if _, err := vf.exchange(labels, 1, judge); err != nil {
			t.Fatal(err)
		}
		for v, a := range vf.accepts {
			if a != 1 {
				t.Fatalf("exchange %d: vertex %d saw a label on a port whose label was dropped, or none where one arrived", run, v)
			}
		}
	}
}
