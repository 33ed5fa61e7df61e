package chaos

import (
	"encoding/json"
	"reflect"
	"testing"

	"planardfs/internal/gen"
)

// wireRotations generates the rotation wire form of a family instance.
func wireRotations(t *testing.T, fam string, n int) (*gen.Wire, int) {
	t.Helper()
	in, err := gen.ByName(fam, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	return gen.WireOf(in), in.G.N()
}

// TestEmbeddingPrimitivesDeterministic pins the seeded-determinism
// contract of every rotation-corruption primitive: the same (seed,
// attempt) corrupts the same embedding byte-identically, a different seed
// corrupts it differently.
func TestEmbeddingPrimitivesDeterministic(t *testing.T) {
	prims := []struct {
		name  string
		apply func(p *Plan, n int, rot [][]int) int
	}{
		{"splice-rotations", func(p *Plan, n int, rot [][]int) int { return p.SpliceRotations(1, rot) }},
		{"retarget-darts", func(p *Plan, n int, rot [][]int) int { return p.RetargetDarts(1, n, rot) }},
		{"splice-faces", func(p *Plan, n int, rot [][]int) int { return p.SpliceFaces(1, rot) }},
	}
	for _, pr := range prims {
		var first []byte
		for rep := 0; rep < 2; rep++ {
			w, n := wireRotations(t, "grid", 16)
			p := NewPlan(97, Spec{Structural: 4})
			if pr.apply(p, n, w.Rotations) == 0 {
				t.Fatalf("%s: applied nothing", pr.name)
			}
			enc, err := json.Marshal(w.Rotations)
			if err != nil {
				t.Fatal(err)
			}
			if rep == 0 {
				first = enc
			} else if string(first) != string(enc) {
				t.Fatalf("%s: same seed produced different corrupted embeddings", pr.name)
			}
		}
		// A different seed must draw a different corruption (the streams
		// are seeded, not constant).
		w, n := wireRotations(t, "grid", 16)
		p := NewPlan(98, Spec{Structural: 4})
		pr.apply(p, n, w.Rotations)
		enc, err := json.Marshal(w.Rotations)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) == string(first) {
			t.Fatalf("%s: different seeds produced identical corruption", pr.name)
		}
	}
}

// TestInjectEdgesDeterministic pins the edge-injection primitive: same
// seed, same injected edges; the input slice is never mutated; injected
// edges are new and simple.
func TestInjectEdgesDeterministic(t *testing.T) {
	w, n := wireRotations(t, "stacked", 16)
	base := append([][2]int(nil), w.Edges...)
	p := NewPlan(55, Spec{Structural: 3})
	out1, add1 := p.InjectEdges(1, n, w.Edges)
	out2, add2 := p.InjectEdges(1, n, w.Edges)
	if add1 == 0 || add1 != add2 || !reflect.DeepEqual(out1, out2) {
		t.Fatalf("injection not deterministic: %d vs %d edges added", add1, add2)
	}
	if !reflect.DeepEqual(base, w.Edges) {
		t.Fatal("InjectEdges mutated its input slice")
	}
	have := make(map[[2]int]bool, len(base))
	for _, e := range base {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		have[[2]int{u, v}] = true
	}
	for _, e := range out1[len(base):] {
		u, v := e[0], e[1]
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			t.Fatalf("injected edge {%d,%d} malformed", e[0], e[1])
		}
		if u > v {
			u, v = v, u
		}
		if have[[2]int{u, v}] {
			t.Fatalf("injected edge {%d,%d} duplicates", e[0], e[1])
		}
		have[[2]int{u, v}] = true
	}
}

// TestEmbeddingBurstDecay pins the geometric retry decay shared with
// CorruptParents: later attempts corrupt less, and a high attempt number
// corrupts nothing.
func TestEmbeddingBurstDecay(t *testing.T) {
	w, _ := wireRotations(t, "grid", 16)
	p := NewPlan(7, Spec{Structural: 4})
	if got := p.SpliceRotations(2, w.Rotations); got != 2 {
		t.Fatalf("attempt 2 applied %d swaps, want 2", got)
	}
	if got := p.SpliceRotations(4, w.Rotations); got != 0 {
		t.Fatalf("attempt 4 applied %d swaps, want 0", got)
	}
	var nilPlan *Plan
	if got := nilPlan.SpliceRotations(1, w.Rotations); got != 0 {
		t.Fatalf("nil plan applied %d", got)
	}
}
