package gen

import (
	"bytes"
	"slices"
	"testing"
)

// Golden content hashes. These pin the canonical encoding format: a change
// to field order, varint width, header, or generator determinism shows up
// here as a hash mismatch. Do not update the constants without bumping
// canonicalMagic — every content-addressed cache key derives from them.
var goldenHashes = []struct {
	family string
	n      int
	seed   int64
	hash   string
}{
	{"grid", 9, 0, "e0ca8459e125bdb4b0fce29eb23240f1a2c7cc09cbf2b7e231e8768cbdd0af55"},
	{"wheel", 8, 0, "e078823aa61fd60b27bc30434e80d422656679593b2474ebf09c7f46a00c6fe9"},
	{"stacked", 30, 7, "9bef1e286b7c874dadee5edb94a5442935605950153a72a07bb40d70ee9bfa95"},
	{"sparse", 25, 3, "1c450d01351e483e3ad6b07c47da567421f79dc03dd0d9b0a46075feacaff9b3"},
}

func TestContentHashGolden(t *testing.T) {
	for _, g := range goldenHashes {
		in, err := ByName(g.family, g.n, g.seed)
		if err != nil {
			t.Fatalf("%s: %v", g.family, err)
		}
		if got := ContentHash(in); got != g.hash {
			t.Errorf("%s n=%d seed=%d: hash drifted\n got  %s\n want %s\n(the canonical encoding or a generator changed; see canonicalMagic)",
				g.family, g.n, g.seed, got, g.hash)
		}
	}
}

func TestCanonicalBytesDeterministic(t *testing.T) {
	// Same family+seed twice: byte-identical encodings, and re-encoding the
	// same instance is stable too.
	a, err := ByName("stacked", 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("stacked", 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(CanonicalBytes(a), CanonicalBytes(b)) {
		t.Fatal("same (family,n,seed) produced different canonical encodings")
	}
	if !bytes.Equal(CanonicalBytes(a), CanonicalBytes(a)) {
		t.Fatal("re-encoding the same instance is not stable")
	}
}

func TestContentHashDiscriminates(t *testing.T) {
	a, err := ByName("stacked", 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("stacked", 40, 12)
	if err != nil {
		t.Fatal(err)
	}
	if ContentHash(a) == ContentHash(b) {
		t.Fatal("different seeds hashed equal")
	}
	// The cosmetic name must not affect identity.
	c := *a
	c.Name = "renamed"
	if ContentHash(a) != ContentHash(&c) {
		t.Fatal("instance name leaked into the content hash")
	}
}

func TestContentHashRoundTripsJSON(t *testing.T) {
	// An instance decoded from its JSON serialization is the same content.
	a, err := ByName("sparse", 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if ContentHash(a) != ContentHash(b) {
		t.Fatal("JSON round trip changed the content hash")
	}
}

// seedInstances returns a deterministic spread of small family instances.
func seedInstances(tb testing.TB) []*Instance {
	tb.Helper()
	var out []*Instance
	for _, fam := range []string{"grid", "wheel", "polygon", "tree", "path", "stacked"} {
		for _, n := range []int{1, 2, 5, 12} {
			in, err := ByName(fam, n, 7)
			if err != nil {
				continue // family rejects this n
			}
			out = append(out, in)
		}
	}
	if len(out) == 0 {
		tb.Fatal("no seed instances generated")
	}
	return out
}

// TestCanonicalBytesSeparatesInstances pins the soundness of content
// addressing: a single change to the rotation system, the outer dart or
// the edge list gives different canonical bytes, so two different
// instances never share a cache key by construction of the encoding.
func TestCanonicalBytesSeparatesInstances(t *testing.T) {
	changes := map[string]int{}
	for _, in := range seedInstances(t) {
		base := CanonicalBytes(in)
		check := func(change string, w *Wire) {
			t.Helper()
			mut, err := w.Build()
			if err != nil {
				t.Fatalf("%s, %s: %v", in.Name, change, err)
			}
			if bytes.Equal(CanonicalBytes(mut), base) {
				t.Errorf("%s: %s leaves the canonical bytes unchanged", in.Name, change)
			}
			changes[change]++
		}
		m := in.G.M()
		// Swap the first two rotation entries of a vertex of degree at
		// least 3, where the swap changes the cyclic order.
		for v := 0; v < in.G.N(); v++ {
			if in.G.Degree(v) >= 3 {
				w := WireOf(in)
				w.Rotations[v][0], w.Rotations[v][1] = w.Rotations[v][1], w.Rotations[v][0]
				check("rotation swap", w)
				break
			}
		}
		if m == 0 {
			continue
		}
		w := WireOf(in)
		w.OuterDart = (in.OuterDart + 1) % (2 * m)
		check("outer dart move", w)
		// Drop one edge other than the outer dart's, renumbering the outer
		// dart past it, so the outer dart names the same dart.
		drop := m - 1
		if m > 1 && in.OuterDart/2 == drop {
			drop--
		}
		w = WireOf(in)
		u, v := w.Edges[drop][0], w.Edges[drop][1]
		w.Edges = append(w.Edges[:drop], w.Edges[drop+1:]...)
		w.Rotations[u] = slices.DeleteFunc(w.Rotations[u], func(x int) bool { return x == v })
		w.Rotations[v] = slices.DeleteFunc(w.Rotations[v], func(x int) bool { return x == u })
		switch {
		case m == 1:
			w.OuterDart = 0
		case in.OuterDart/2 > drop:
			w.OuterDart -= 2
		}
		check("edge drop", w)
	}
	for _, change := range []string{"rotation swap", "outer dart move", "edge drop"} {
		if changes[change] == 0 {
			t.Errorf("no seed instance exercised a %s", change)
		}
	}
}
