package planar

import (
	"fmt"

	"planardfs/internal/graph"
)

// Insertion describes one way of inserting a virtual edge {U,V} into an
// embedding: the new dart out of U is placed at index PosU of U's rotation
// (shifting existing darts right), and symmetrically at V.
type Insertion struct {
	U, V       int
	PosU, PosV int
}

// InsertEdge returns a new graph and embedding with the edge {u,v} inserted
// at the given rotation positions. The input graph and embedding are not
// modified. The new edge's ID in the returned graph is the old M().
func (emb *Embedding) InsertEdge(ins Insertion) (*graph.Graph, *Embedding, error) {
	g := emb.g
	if g.HasEdge(ins.U, ins.V) {
		return nil, nil, fmt.Errorf("planar: edge {%d,%d} already present", ins.U, ins.V)
	}
	if ins.U == ins.V {
		return nil, nil, fmt.Errorf("planar: cannot insert self-loop at %d", ins.U)
	}
	if ins.PosU < 0 || ins.PosU > g.Degree(ins.U) || ins.PosV < 0 || ins.PosV > g.Degree(ins.V) {
		return nil, nil, fmt.Errorf("planar: insertion positions out of range")
	}
	ng := g.Clone()
	id := ng.MustAddEdge(ins.U, ins.V)
	dU := DartFrom(ng, id, ins.U)
	dV := DartFrom(ng, id, ins.V)
	// Copy the flat rotation arrays, grown by the two new darts, and splice
	// each new dart into its tail's cyclic order — no per-vertex slices and
	// no revalidation pass.
	nemb := &Embedding{
		g:     ng,
		next:  append(append(make([]int32, 0, 2*ng.M()), emb.next...), -1, -1),
		prev:  append(append(make([]int32, 0, 2*ng.M()), emb.prev...), -1, -1),
		pos:   append(append(make([]int32, 0, 2*ng.M()), emb.pos...), -1, -1),
		headD: append(append(make([]int32, 0, 2*ng.M()), emb.headD...), 0, 0),
		first: append([]int32(nil), emb.first...),
	}
	nemb.headD[dU] = int32(ins.V)
	nemb.headD[dU^1] = int32(ins.U)
	//planarvet:narrowok dU and dV are darts of the new edge, < 2m and AddEdge bounds 2m to MaxInt32
	nemb.splice(ins.U, ins.PosU, int32(dU), g.Degree(ins.U))
	//planarvet:narrowok dU and dV are darts of the new edge, < 2m and AddEdge bounds 2m to MaxInt32
	nemb.splice(ins.V, ins.PosV, int32(dV), g.Degree(ins.V))
	return ng, nemb, nil
}

// splice inserts dart d at index pos of v's rotation, whose length before
// insertion is oldDeg, shifting later darts one position right.
func (emb *Embedding) splice(v, pos int, d int32, oldDeg int) {
	if oldDeg == 0 {
		emb.first[v] = d
		emb.next[d] = d
		emb.prev[d] = d
		emb.pos[d] = 0
		return
	}
	at := emb.first[v]
	for i := 0; i < pos; i++ {
		at = emb.next[at]
	}
	p := emb.prev[at]
	emb.next[p] = d
	emb.prev[d] = p
	emb.next[d] = at
	emb.prev[at] = d
	emb.pos[d] = int32(pos)
	if pos == 0 {
		emb.first[v] = d
	}
	for x := emb.next[d]; x != emb.first[v]; x = emb.next[x] {
		emb.pos[x]++
	}
}

// CompatibleInsertions returns every insertion of the virtual edge {u,v}
// that keeps the rotation system planar (genus 0). A non-empty result means
// {u,v} is an ℰ-compatible virtual fundamental edge in the paper's sense.
// The search is brute force over all position pairs and intended for
// verification and small instances.
func (emb *Embedding) CompatibleInsertions(u, v int) []Insertion {
	var out []Insertion
	for pu := 0; pu <= emb.g.Degree(u); pu++ {
		for pv := 0; pv <= emb.g.Degree(v); pv++ {
			ins := Insertion{U: u, V: v, PosU: pu, PosV: pv}
			_, nemb, err := emb.InsertEdge(ins)
			if err != nil {
				continue
			}
			if nemb.Genus() == 0 {
				out = append(out, ins)
			}
		}
	}
	return out
}

// ECompatible reports whether the virtual edge {u,v} admits at least one
// planarity-preserving insertion.
func (emb *Embedding) ECompatible(u, v int) bool {
	return len(emb.CompatibleInsertions(u, v)) > 0
}

// FaceInsertionsIn returns the insertions of virtual edge {u,v} that place
// the new edge inside a single face of fs, a face trace of emb the caller
// already holds (so a sweep over many candidates traces once): u and v
// both lie on that face and the edge is drawn through it. These are
// exactly the planarity-preserving insertions, enumerated directly from
// the face structure (more efficient than CompatibleInsertions).
//
// For each face incidence of u (a dart d1 of the face with tail u) and each
// face incidence of v on the same face (dart d2 with tail v), inserting the
// new dart immediately before d1 at u and before d2 at v splits that face in
// two and preserves planarity.
func (emb *Embedding) FaceInsertionsIn(fs *Faces, u, v int) []Insertion {
	var out []Insertion
	du0 := emb.first[u]
	if du0 < 0 {
		return out
	}
	for d1 := du0; ; {
		f := fs.FaceOf[d1]
		dv0 := emb.first[v]
		if dv0 >= 0 {
			for d2 := dv0; ; {
				if fs.FaceOf[d2] == f {
					out = append(out, Insertion{U: u, V: v, PosU: int(emb.pos[d1]), PosV: int(emb.pos[d2])})
				}
				d2 = emb.next[d2]
				if d2 == dv0 {
					break
				}
			}
		}
		d1 = emb.next[d1]
		if d1 == du0 {
			break
		}
	}
	return out
}
