package chaos

// Structural corruption primitives for embeddings: the adversarial input
// generator of the guard layer. Each primitive applies the plan's
// structural burst (Spec.Structural >> (attempt-1), like CorruptParents)
// to a rotation system in wire form — per-vertex neighbour lists, exactly
// what an untrusted submission carries — or to an edge list. Every
// decision is a pure function of (seed, attempt, input shape), drawn
// through a salted rand.Rand: the same plan corrupts the same embedding
// byte-identically, which is what lets corrupted fixtures be regenerated
// and gated in CI.
//
// The primitives map onto the guard's rejection taxonomy:
//
//   - SpliceRotations / SpliceFaces keep every rotation a permutation of
//     its neighbour set, so gen.Wire.Check still passes and the instance
//     builds; the corruption surfaces (when it changes the genus) in the
//     guard's Euler stage. On face-rich inputs a swap merges or splits
//     faces.
//   - RetargetDarts rewrites rotation entries to arbitrary vertices,
//     breaking the permutation property: gen.Wire.Check rejects it on
//     field "rotations" before any instance is built (the corpus fixture
//     wire__rotations__retargeted-dart.json).
//   - InjectEdges adds edges a planar skeleton never had; on a
//     triangulation the very first injection trips the m <= 3n-6 bound,
//     and any injection desynchronizes the old rotations from the new
//     incidence lists.

// rng streams of the embedding primitives: one salt per primitive so
// composing them on the same plan draws independent decisions.
const (
	saltRotSplice  = 0xa0761d6478bd642f
	saltDartTarget = 0xe7037ed1a0b428db
	saltFaceSplice = 0x8ebc6af09c88c6e3
	saltEdgeInject = 0x589965cc75374cc3
)

// SpliceRotations applies the attempt's structural burst as rotation
// splice swaps: each corruption exchanges two entries of one vertex's
// rotation, chosen among vertices of degree >= 3 (on smaller degrees a
// swap is the same cyclic order). Rotations stay permutations of the
// neighbour sets; only the embedding they encode changes. rot is mutated
// in place; the number of swaps applied is returned. A nil plan applies
// nothing.
func (p *Plan) SpliceRotations(attempt int, rot [][]int) int {
	burst := p.structuralBurst(attempt)
	if burst == 0 || len(rot) == 0 {
		return 0
	}
	rng := p.rng(saltRotSplice, attempt)
	n := len(rot)
	applied := 0
	for i := 0; i < burst; i++ {
		v := rng.Intn(n)
		for try := 0; len(rot[v]) < 3 && try < 4*n; try++ {
			v = rng.Intn(n)
		}
		d := len(rot[v])
		if d < 3 {
			continue // no vertex can host a meaningful swap
		}
		a := rng.Intn(d)
		b := rng.Intn(d)
		for b == a {
			b = rng.Intn(d)
		}
		rot[v][a], rot[v][b] = rot[v][b], rot[v][a]
		applied++
	}
	return applied
}

// RetargetDarts applies the attempt's structural burst as dart
// retargetings: each corruption rewrites one rotation entry of one vertex
// to a different vertex in [0, n) — typically a non-neighbour or a
// duplicate, so the rotation stops being a permutation of the neighbour
// set. rot is mutated in place; the number applied is returned.
func (p *Plan) RetargetDarts(attempt, n int, rot [][]int) int {
	burst := p.structuralBurst(attempt)
	if burst == 0 || len(rot) == 0 || n < 2 {
		return 0
	}
	rng := p.rng(saltDartTarget, attempt)
	applied := 0
	for i := 0; i < burst; i++ {
		v := rng.Intn(len(rot))
		for try := 0; len(rot[v]) == 0 && try < 4*len(rot); try++ {
			v = rng.Intn(len(rot))
		}
		if len(rot[v]) == 0 {
			continue
		}
		idx := rng.Intn(len(rot[v]))
		w := rng.Intn(n)
		for w == rot[v][idx] || w == v {
			w = rng.Intn(n)
		}
		rot[v][idx] = w
		applied++
	}
	return applied
}

// SpliceFaces applies the attempt's structural burst as face merge/split
// operations: each corruption reverses a contiguous segment of one
// vertex's rotation (segment length in [2, deg-1], so the cyclic order
// genuinely changes). Like SpliceRotations this preserves the permutation
// property; a reversal around a vertex rewires the face traces through
// it, merging or splitting faces. rot is mutated in place; the number
// applied is returned.
func (p *Plan) SpliceFaces(attempt int, rot [][]int) int {
	burst := p.structuralBurst(attempt)
	if burst == 0 || len(rot) == 0 {
		return 0
	}
	rng := p.rng(saltFaceSplice, attempt)
	n := len(rot)
	applied := 0
	for i := 0; i < burst; i++ {
		v := rng.Intn(n)
		for try := 0; len(rot[v]) < 3 && try < 4*n; try++ {
			v = rng.Intn(n)
		}
		d := len(rot[v])
		if d < 3 {
			continue
		}
		segLen := 2 + rng.Intn(d-2)
		start := rng.Intn(d)
		for l, r := 0, segLen-1; l < r; l, r = l+1, r-1 {
			li, ri := (start+l)%d, (start+r)%d
			rot[v][li], rot[v][ri] = rot[v][ri], rot[v][li]
		}
		applied++
	}
	return applied
}

// InjectEdges applies the attempt's structural burst as non-planar edge
// injections into a planar skeleton: it returns edges extended with burst
// new simple edges between previously non-adjacent vertex pairs (the
// input slice is not mutated). On a triangulation the first injection
// already violates m <= 3n-6; on sparser skeletons repeated injections
// densify a neighbourhood. The number of edges actually added is returned
// alongside (pair search gives up deterministically on saturated graphs).
func (p *Plan) InjectEdges(attempt, n int, edges [][2]int) ([][2]int, int) {
	burst := p.structuralBurst(attempt)
	out := append([][2]int(nil), edges...)
	if burst == 0 || n < 2 {
		return out, 0
	}
	rng := p.rng(saltEdgeInject, attempt)
	have := make(map[[2]int]bool, len(out)+burst)
	for _, e := range out {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		have[[2]int{u, v}] = true
	}
	applied := 0
	for i := 0; i < burst; i++ {
		added := false
		for try := 0; try < 16*n; try++ {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if have[[2]int{u, v}] {
				continue
			}
			have[[2]int{u, v}] = true
			out = append(out, [2]int{u, v})
			applied++
			added = true
			break
		}
		if !added {
			break // graph is (nearly) complete: nothing left to inject
		}
	}
	return out, applied
}

// structuralBurst returns the structural fault budget of one attempt, the
// shared sizing rule of CorruptParents and the embedding primitives.
func (p *Plan) structuralBurst(attempt int) int {
	if p == nil || p.Spec.Structural == 0 {
		return 0
	}
	burst := p.Spec.Structural >> (attempt - 1)
	if burst < 0 {
		return 0
	}
	return burst
}
