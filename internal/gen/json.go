package gen

import (
	"encoding/json"
	"fmt"

	"planardfs/internal/graph"
	"planardfs/internal/planar"
)

// Wire is the on-disk/on-the-wire format of an embedded planar graph —
// the untrusted shape a submission arrives in. EncodeJSON writes it with
// encoding/json; DecodeWire reads it back without reflection. Decoding,
// field-level checking, and building the in-memory Instance are
// deliberately separate steps (DecodeWire, Check, Build) so an HTTP
// admission path can reject a malformed body with a field-level error
// before any graph structure is allocated, and so the semantic guard can
// rule on a structurally well-formed wire without the decoder silently
// pre-judging planarity.
type Wire struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	// Edges lists vertex pairs; edge IDs are list positions.
	Edges [][2]int `json:"edges"`
	// Rotations lists, per vertex, the clockwise neighbour order.
	Rotations [][]int `json:"rotations"`
	OuterDart int     `json:"outerDart"`
}

// FieldError locates a malformed field of a wire instance. Index is the
// offending list position (-1 when the whole field is at fault).
type FieldError struct {
	Field string
	Index int
	Msg   string
}

// Error implements error.
func (e *FieldError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("gen: field %s[%d]: %s", e.Field, e.Index, e.Msg)
	}
	return fmt.Sprintf("gen: field %s: %s", e.Field, e.Msg)
}

func fieldErr(field string, index int, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Index: index, Msg: fmt.Sprintf(format, args...)}
}

// DecodeWire parses the JSON form of a Wire, checking nothing beyond JSON
// syntax and the types of the five fields. It is one hand-written pass
// over data (decode.go), with no reflection, and its contract is
// encoding/json's: for every input it returns a Wire reflect.DeepEqual to
// what Unmarshal from that package gives into a fresh Wire, nil and empty
// slices kept distinct, or an error of the same class, syntax or type.
// FuzzDecodeWire is the proof. The rules that follow from it:
//   - a key matches its field exactly, else as bytes.EqualFold does; keys
//     may contain escapes, and unknown keys are skipped;
//   - a repeated key decodes again into what the earlier one left;
//   - null keeps a string, an int or an edge, and sets a slice to nil;
//   - [] gives a fresh empty slice;
//   - an edge with fewer than two numbers zero-fills, and extra numbers
//     are ignored;
//   - a number with a fraction or exponent, or outside int, is a type
//     error;
//   - a syntax error anywhere outranks a type error;
//   - top-level null gives the zero Wire, and trailing non-space bytes
//     are a syntax error;
//   - name is fully unescaped, and a lone surrogate or invalid UTF-8
//     becomes U+FFFD.
//
// The rows of Rotations are carved from one backing array, each with a
// full-slice cap. In an EncodeJSON body n and edges come first and size
// the slices after them, so it decodes in a constant number of
// allocations whatever its size (TestDecodeWireAllocsBounded).
func DecodeWire(data []byte) (*Wire, error) {
	d := &wireDecoder{data: data}
	w := new(Wire)
	d.space()
	switch {
	case d.peek() == '{':
		d.object(w)
	case !d.null(): // a top-level null leaves the Wire zero
		d.mismatch("Wire")
	}
	d.space()
	if d.pos < len(d.data) {
		d.syntaxError("after top-level value")
	}
	switch {
	case d.err != nil:
		return nil, d.err
	case d.typeErr != nil:
		return nil, d.typeErr
	}
	return w, nil
}

// Check applies the structural admission checks a wire instance must pass
// before any graph is built: vertex count bounds, edge endpoints in range,
// no self-loops or duplicate edges, the planar edge-count bound m <= 3n-6,
// per-vertex rotation well-formedness (a permutation of the neighbour set
// implied by the edge list), and the outer dart range. Every violation is
// reported as a *FieldError naming the field and index. Check does NOT
// judge whether the rotation system is a genus-0 embedding — that is the
// semantic guard's job (internal/guard), not the decoder's.
func (w *Wire) Check() error {
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
	// Edges are checked in list order. A range or self-loop fault stops the
	// scan, so a duplicate is only reported if it comes before the first such
	// fault.
	bad := m
	for i, e := range w.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= w.N || v < 0 || v >= w.N || u == v {
			bad = i
			break
		}
	}
	adj := newWireAdjacency(w.N, w.Edges[:bad])
	if i := adj.firstDuplicate(); i < bad {
		return fieldErr("edges", i, "duplicate edge {%d,%d}", w.Edges[i][0], w.Edges[i][1])
	}
	if bad < m {
		u, v := w.Edges[bad][0], w.Edges[bad][1]
		if u == v && u >= 0 && u < w.N {
			return fieldErr("edges", bad, "self-loop at %d", u)
		}
		return fieldErr("edges", bad, "endpoint out of range [0,%d): {%d,%d}", w.N, u, v)
	}
	if len(w.Rotations) != w.N {
		return fieldErr("rotations", -1, "%d rows for %d vertices", len(w.Rotations), w.N)
	}
	// mark[x] is 2v+1 while x is an unlisted neighbour of the row v being
	// checked, and 2v+2 once the row has listed it.
	mark := adj.first // reused: firstDuplicate is done with it
	clear(mark)
	for v, rot := range w.Rotations {
		row := adj.row(v)
		if len(rot) != len(row) {
			return fieldErr("rotations", v, "%d entries for degree %d", len(rot), len(row))
		}
		nb, listed := 2*v+1, 2*v+2
		for _, x := range row {
			mark[x] = nb
		}
		for _, x := range rot {
			if x < 0 || x >= w.N || mark[x] != nb && mark[x] != listed {
				return fieldErr("rotations", v, "entry %d is not a neighbour of %d", x, v)
			}
			if mark[x] == listed {
				return fieldErr("rotations", v, "neighbour %d listed twice", x)
			}
			mark[x] = listed
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

// wireAdjacency is the adjacency of a wire's edge list, built by one
// counting sort: row(v) lists v's neighbours in edge-list order, with the
// edge index of each entry alongside.
type wireAdjacency struct {
	off   []int // row v is nbr[off[v]:off[v+1]]
	nbr   []int
	edge  []int // edge[k] is the list position of the edge behind nbr[k]
	first []int // scratch of one slot per vertex
}

// newWireAdjacency builds the adjacency of edges, whose endpoints must be
// in [0, n) and distinct.
func newWireAdjacency(n int, edges [][2]int) *wireAdjacency {
	a := &wireAdjacency{
		off:   make([]int, n+1),
		nbr:   make([]int, 2*len(edges)),
		edge:  make([]int, 2*len(edges)),
		first: make([]int, n),
	}
	for _, e := range edges {
		a.off[e[0]+1]++
		a.off[e[1]+1]++
	}
	for v := 0; v < n; v++ {
		a.off[v+1] += a.off[v]
	}
	fill := a.first
	copy(fill, a.off[:n])
	for i, e := range edges {
		u, v := e[0], e[1]
		a.nbr[fill[u]], a.edge[fill[u]] = v, i
		fill[u]++
		a.nbr[fill[v]], a.edge[fill[v]] = u, i
		fill[v]++
	}
	return a
}

func (a *wireAdjacency) row(v int) []int { return a.nbr[a.off[v]:a.off[v+1]] }

// firstDuplicate returns the list position of the first edge that repeats
// an earlier one, or the edge count if none does. Each row lists its
// neighbours in edge-list order, so the second entry of a neighbour in a
// row is the first repeat of that pair.
func (a *wireAdjacency) firstDuplicate() int {
	first := a.first
	for i := range first {
		first[i] = -1
	}
	dup := len(a.nbr) / 2
	for v := 0; v+1 < len(a.off); v++ {
		lo, hi := a.off[v], a.off[v+1]
		for k := lo; k < hi; k++ {
			x := a.nbr[k]
			if first[x] < lo {
				first[x] = k
			} else if a.edge[k] < dup {
				dup = a.edge[k]
			}
		}
	}
	return dup
}

// Build constructs the in-memory instance from a wire that passed Check.
// It validates only what the constructors enforce (edge sanity, rotation
// permutations) — NOT the genus: a structurally well-formed rotation
// system of any genus builds, so the semantic guard can rule on it.
func (w *Wire) Build() (*Instance, error) {
	if w.N < 0 {
		return nil, fieldErr("n", -1, "negative vertex count %d", w.N)
	}
	g := graph.New(w.N)
	for i, e := range w.Edges {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("gen: edge %d: %w", i, err)
		}
	}
	emb, err := planar.FromNeighborOrders(g, w.Rotations)
	if err != nil {
		return nil, err
	}
	if g.M() > 0 && (w.OuterDart < 0 || w.OuterDart >= 2*g.M()) {
		return nil, fmt.Errorf("gen: outer dart %d out of range", w.OuterDart)
	}
	return &Instance{Name: w.Name, G: g, Emb: emb, OuterDart: w.OuterDart}, nil
}

// WireOf returns the wire form of an instance — the shape the corruption
// primitives mutate and the encoders serialize.
func WireOf(in *Instance) *Wire {
	w := &Wire{
		Name:      in.Name,
		N:         in.G.N(),
		Edges:     make([][2]int, in.G.M()),
		Rotations: make([][]int, in.G.N()),
		OuterDart: in.OuterDart,
	}
	for e := 0; e < in.G.M(); e++ {
		ed := in.G.EdgeByID(e)
		w.Edges[e] = [2]int{ed.U, ed.V}
	}
	for v := 0; v < in.G.N(); v++ {
		w.Rotations[v] = in.Emb.NeighborOrder(v)
	}
	return w
}

// EncodeJSON serializes an instance (graph, embedding, outer face).
func EncodeJSON(in *Instance) ([]byte, error) {
	return json.MarshalIndent(WireOf(in), "", " ")
}

// DecodeJSON parses an instance and validates the embedding, including
// the genus (the trusted-path decoder: generator fixtures and caches).
// Untrusted submissions should go through DecodeWire/Check/Build and the
// guard instead, which reject with typed field/witness errors.
func DecodeJSON(data []byte) (*Instance, error) {
	w, err := DecodeWire(data)
	if err != nil {
		return nil, err
	}
	in, err := w.Build()
	if err != nil {
		return nil, err
	}
	if err := in.Emb.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}
