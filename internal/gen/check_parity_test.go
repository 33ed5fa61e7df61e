package gen

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// checkWithMaps is the map-based Wire.Check that the counting-sort version
// replaced, kept as the reference the parity test compares against.
func checkWithMaps(w *Wire) error {
	if w.N < 1 {
		return fieldErr("n", -1, "need at least 1 vertex, got %d", w.N)
	}
	m := len(w.Edges)
	if w.N >= 3 && m > 3*w.N-6 {
		return fieldErr("edges", -1, "%d edges on %d vertices exceeds the planar bound %d", m, w.N, 3*w.N-6)
	}
	if w.N < 3 && m > 1 {
		return fieldErr("edges", -1, "%d edges on %d vertices exceeds the planar bound 1", m, w.N)
	}
	seen := make(map[[2]int]bool, m)
	adj := make([]map[int]bool, w.N)
	for i, e := range w.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= w.N || v < 0 || v >= w.N {
			return fieldErr("edges", i, "endpoint out of range [0,%d): {%d,%d}", w.N, u, v)
		}
		if u == v {
			return fieldErr("edges", i, "self-loop at %d", u)
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return fieldErr("edges", i, "duplicate edge {%d,%d}", u, v)
		}
		seen[[2]int{a, b}] = true
		if adj[u] == nil {
			adj[u] = make(map[int]bool, 4)
		}
		if adj[v] == nil {
			adj[v] = make(map[int]bool, 4)
		}
		adj[u][v] = true
		adj[v][u] = true
	}
	if len(w.Rotations) != w.N {
		return fieldErr("rotations", -1, "%d rows for %d vertices", len(w.Rotations), w.N)
	}
	for v, rot := range w.Rotations {
		deg := len(adj[v])
		if len(rot) != deg {
			return fieldErr("rotations", v, "%d entries for degree %d", len(rot), deg)
		}
		dup := make(map[int]bool, deg)
		for _, x := range rot {
			if x < 0 || x >= w.N || !adj[v][x] {
				return fieldErr("rotations", v, "entry %d is not a neighbour of %d", x, v)
			}
			if dup[x] {
				return fieldErr("rotations", v, "neighbour %d listed twice", x)
			}
			dup[x] = true
		}
	}
	if m > 0 && (w.OuterDart < 0 || w.OuterDart >= 2*m) {
		return fieldErr("outerDart", -1, "%d out of range [0,%d)", w.OuterDart, 2*m)
	}
	if m == 0 && w.OuterDart != 0 {
		return fieldErr("outerDart", -1, "%d nonzero on an edgeless graph", w.OuterDart)
	}
	return nil
}

// sameCheck reports how Check and the map reference disagree on w, or ""
// when both accept or both return the same FieldError.
func sameCheck(w *Wire) string {
	got, want := w.Check(), checkWithMaps(w)
	if got == nil && want == nil {
		return ""
	}
	var g, r *FieldError
	if !errors.As(got, &g) || !errors.As(want, &r) || *g != *r {
		return fmt.Sprintf("Check = %v, reference = %v", got, want)
	}
	return ""
}

// cloneWire deep-copies w so a mutation leaves the original intact.
func cloneWire(w *Wire) *Wire {
	c := *w
	c.Edges = append([][2]int(nil), w.Edges...)
	c.Rotations = make([][]int, len(w.Rotations))
	for v, row := range w.Rotations {
		c.Rotations[v] = append([]int(nil), row...)
	}
	return &c
}

// mutateWire changes one field of w at a seeded position: the vertex
// count, one edge endpoint (to a random vertex or an out-of-range id), one
// edge (to a self-loop or a copy of another edge), the edge list's length,
// one rotation entry (retargeted, duplicated or dropped), the row count,
// or the outer dart.
func mutateWire(rng *rand.Rand, w *Wire) string {
	m := len(w.Edges)
	anyVertex := func() int { return rng.Intn(w.N+4) - 2 }
	switch rng.Intn(11) {
	case 0:
		w.N += rng.Intn(5) - 2
		return "n"
	case 1:
		i := rng.Intn(m)
		w.Edges[i][rng.Intn(2)] = anyVertex()
		return "edge endpoint"
	case 2:
		x := anyVertex() // in range, or out of range on both ends
		w.Edges[rng.Intn(m)] = [2]int{x, x}
		return "self-loop"
	case 3:
		i, j := rng.Intn(m), rng.Intn(m)
		w.Edges[i] = w.Edges[j]
		if rng.Intn(2) == 0 {
			w.Edges[i][0], w.Edges[i][1] = w.Edges[i][1], w.Edges[i][0]
		}
		return "duplicate edge"
	case 4:
		w.Edges = w.Edges[:rng.Intn(m)]
		return "truncated edges"
	case 5:
		w.Edges = append(w.Edges, [2]int{anyVertex(), anyVertex()})
		return "extra edge"
	case 6:
		row := w.Rotations[rng.Intn(w.N)]
		if len(row) > 0 {
			row[rng.Intn(len(row))] = anyVertex()
		}
		return "rotation entry"
	case 7:
		row := w.Rotations[rng.Intn(w.N)]
		if len(row) > 1 {
			row[rng.Intn(len(row))] = row[rng.Intn(len(row))]
		}
		return "repeated rotation entry"
	case 8:
		v := rng.Intn(w.N)
		if row := w.Rotations[v]; len(row) > 0 {
			w.Rotations[v] = row[:rng.Intn(len(row))]
		}
		return "short rotation"
	case 9:
		if rng.Intn(2) == 0 {
			w.Rotations = w.Rotations[:rng.Intn(w.N)]
		} else {
			w.Rotations = append(w.Rotations, []int{0})
		}
		return "rotation rows"
	default:
		w.OuterDart = rng.Intn(2*m+6) - 3
		return "outer dart"
	}
}

// TestCheckMatchesMapReference holds Wire.Check to the map version it
// replaced: the same verdict and, on a rejection, the same Field, Index
// and Msg. It runs over the guard's adversarial corpus fixtures, the
// unmutated generator wires, and seeded single-field mutations of stacked
// and grid wires.
func TestCheckMatchesMapReference(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "guard", "testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus fixtures found")
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var w Wire
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if diff := sameCheck(&w); diff != "" {
			t.Errorf("%s: %s", filepath.Base(path), diff)
		}
	}

	rejected := 0
	for _, family := range []string{"stacked", "grid"} {
		for _, n := range []int{30, 200} {
			in, err := ByName(family, n, 3)
			if err != nil {
				t.Fatal(err)
			}
			base := WireOf(in)
			if diff := sameCheck(base); diff != "" {
				t.Fatalf("%s-%d unmutated: %s", family, n, diff)
			}
			rng := rand.New(rand.NewSource(int64(len(family) * n)))
			for trial := 0; trial < 400; trial++ {
				w := cloneWire(base)
				what := mutateWire(rng, w)
				if w.Check() != nil {
					rejected++
				}
				if diff := sameCheck(w); diff != "" {
					t.Fatalf("%s-%d trial %d (%s): %s", family, n, trial, what, diff)
				}
			}
		}
	}
	// Most single-field mutations must be rejected, or the comparison
	// would say little about the error paths.
	if rejected < 1000 {
		t.Fatalf("only %d of 1600 mutated wires were rejected", rejected)
	}
}

// BenchmarkWireCheck: op = one Check of a stacked n = 1000 wire, the
// cold-stacked submission size; the Ref variant runs the map reference.
func BenchmarkWireCheck(b *testing.B) {
	in, err := ByName("stacked", 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := WireOf(in)
	for _, c := range []struct {
		name  string
		check func(*Wire) error
	}{{"Check", (*Wire).Check}, {"Ref", checkWithMaps}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.check(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
