package weights

import (
	"fmt"

	"planardfs/internal/planar"
)

// VirtualCase classifies and weighs the virtual edge {root, x} drawn
// through one face at the insertion ins (ins.U the tree root, ins.V = x),
// from this configuration alone. It returns exactly what Classify(G.M())
// and WeightOf return on the configuration NewConfig(…, RootAnchor(),
// Tree) builds over Emb.InsertEdge(ins), and it builds no copy: this is
// Lemma 8's locally computable virtual-face weight.
//
// The root is an ancestor of every x, so the case is Definition 2's
// ancestor case with U = root, V = x and Z the root's child towards x. The
// inserted darts take indices PosU and PosV, and existing darts at or after
// them shift right by one. Every normalized position is read off those
// shifted indices. The root keeps its anchor a: NewConfig anchors at the
// first root dart, from index 0 clockwise, on the face of a, and old darts
// before a are off the outer face. The new dart comes before a only if it
// lands before a dart d1 at an index at most a's; d1 is then on the outer
// face only if d1 = a, and splitting the outer face at the corner of a
// leaves a on the face of the new dart at x, not of the one at the root.
// So the child orders, and with them the DFS orders, do not change.
func (cfg *Config) VirtualCase(ins planar.Insertion) (EdgeCase, int, error) {
	t, emb := cfg.Tree, cfg.Emb
	root, x := t.Root, ins.V
	switch {
	case ins.U != root:
		return EdgeCase{}, 0, fmt.Errorf("weights: virtual edge {%d,%d} does not leave the root %d", ins.U, x, root)
	case x == root:
		return EdgeCase{}, 0, fmt.Errorf("weights: virtual edge is a loop at the root %d", root)
	case cfg.G.HasEdge(root, x):
		return EdgeCase{}, 0, fmt.Errorf("weights: edge {%d,%d} already present", root, x)
	case ins.PosU < 0 || ins.PosU > cfg.G.Degree(root) || ins.PosV < 0 || ins.PosV > cfg.G.Degree(x):
		return EdgeCase{}, 0, fmt.Errorf("weights: insertion positions out of range")
	}
	// The new darts land immediately before the darts at PosU and PosV.
	if cfg.faces.FaceOf[dartAt(emb, root, ins.PosU)] != cfg.faces.FaceOf[dartAt(emb, x, ins.PosV)] {
		return EdgeCase{}, 0, fmt.Errorf("weights: insertion of {%d,%d} is not inside one face", root, x)
	}

	// Normalized positions after the insertion: index p of the grown
	// rotation of v, of degree deg, relative to the start index s.
	shifted := func(d, at int) int {
		p := emb.Pos(d)
		if p >= at {
			p++
		}
		return p
	}
	norm := func(p, s, deg int) int { return ((p-s)%deg + deg) % deg }

	degR, sR := cfg.G.Degree(root)+1, shifted(cfg.rootAnchor, ins.PosU)
	atRoot := func(c int32) int { return norm(shifted(int(cfg.startDart[c])^1, ins.PosU), sR, degR) }
	degX, sX := cfg.G.Degree(x)+1, shifted(int(cfg.startDart[x]), ins.PosV)
	atX := func(c int32) int { return norm(shifted(int(cfg.startDart[c])^1, ins.PosV), sX, degX) }

	z := t.MustFirstOnPath(root, x)
	tv, tz := norm(ins.PosU, sR, degR), atRoot(int32(z))
	ec := EdgeCase{U: root, V: x, Z: z, W: root, E: cfg.G.M(), UseLeft: tv > tz}
	pu, pv := 0, 0
	for _, c := range cfg.children(root) {
		if inCone(ec, true, tv, tz, atRoot(c)) {
			pu += t.SubtreeSize(int(c))
		}
	}
	tu := norm(ins.PosV, sX, degX)
	for _, c := range cfg.children(x) {
		if inCone(ec, false, tu, -1, atX(c)) {
			pv += t.SubtreeSize(int(c))
		}
	}
	return ec, cfg.weightFrom(ec, pu, pv), nil
}

// dartAt returns the dart of v's rotation at index p, read cyclically so
// that p = deg(v) (an insertion after the last dart) names the first.
func dartAt(emb *planar.Embedding, v, p int) int {
	d := emb.FirstDart(v)
	for i := 0; i < p%emb.Graph().Degree(v); i++ {
		d = emb.NextCW(d)
	}
	return d
}
