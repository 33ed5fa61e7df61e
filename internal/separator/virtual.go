package separator

import (
	"fmt"
	"slices"
	"sort"

	"planardfs/internal/weights"
)

// phase5Virtual implements the heavy-outside fallback of Lemma 8: every
// real fundamental face is light and the outside of the chosen outermost
// face exceeds 2n/3, so a virtual edge from the root wraps part of the
// graph into a face whose weight is either directly in range (the paper's
// |F_r| ∈ [n/3, 2n/3] case, giving the root-to-endpoint path) or heavy
// (> 2n/3), in which case Phase 4's augmentation logic runs inside the
// extended configuration.
//
// Implementation deviation (documented in DESIGN.md): instead of the
// paper's single extreme-leaf pick — which is under-specified about which
// side of the virtual root r0 the new face falls on — the algorithm sweeps
// the candidates x that are ℰ-compatible with the root (the vertices on the
// root's incident faces), ordered by how close their LEFT-order position is
// to n/2. Each candidate is evaluated by actually inserting the virtual
// edge into the embedding (the operation the paper simulates in messages);
// the sweep stops at the first candidate whose face weight is in range or
// whose heavy face yields a balanced Phase 4 separator. Weights of
// candidate faces are deterministic, so the sweep is deterministic, and in
// the distributed accounting it is one RANGE-PROBLEM over locally
// computable weights (each candidate shares a face with the root and can
// evaluate its virtual-face weight from broadcast root data).
func phase5Virtual(cfg *weights.Config, ec weights.EdgeCase, n int, opt Options) (*Separator, error) {
	inRange := func(x int) bool { return 3*x >= n && 3*x <= 2*n }
	root := cfg.Tree.Root

	cands := rootFaceCandidates(cfg)
	if opt.DisableVirtualSweep {
		cands = extremeLeafCandidates(cfg, ec)
	}
	const maxTries = 96
	tries := 0
	for _, x := range cands {
		if tries >= maxTries {
			break
		}
		inss := cfg.Emb.FaceInsertionsIn(cfg.Faces(), root, x)
		// Lemma 1, condition 3: the root-to-x path is long enough on its
		// own, and x is compatible with the root (they share a face). The
		// test reads x alone, so it runs before any insertion is copied,
		// and only where the first insertion would succeed (InsertEdge
		// rejects a loop or an edge already present, whatever the face).
		if len(inss) > 0 && !opt.DisableLongPath && 3*(cfg.Tree.Depth[x]+1) >= n &&
			x != root && !cfg.G.HasEdge(root, x) {
			path, err := cfg.Tree.PathUp(x, root)
			if err != nil {
				return nil, err
			}
			return &Separator{
				Path:  path,
				EndA:  x,
				EndB:  root,
				Phase: PhaseLongPath,
			}, nil
		}
		for _, ins := range inss {
			if tries >= maxTries {
				break
			}
			tries++
			ng, nemb, err := cfg.Emb.InsertEdge(ins)
			if err != nil {
				continue
			}
			// A face insertion splits one face in two, so the extended
			// embedding is planar by construction.
			ncfg, err := weights.NewConfig(ng, nemb, cfg.RootAnchor(), cfg.Tree)
			if err != nil {
				continue
			}
			// InsertEdge numbers the new edge {root, x} with the old M().
			nec := ncfg.Classify(cfg.G.M())
			nw := ncfg.WeightOf(nec)
			if inRange(nw) {
				sep := &Separator{
					Path:  cfg.Tree.TPath(nec.U, nec.V),
					EndA:  nec.U,
					EndB:  nec.V,
					Phase: PhaseSparseVirtual,
				}
				if 3*VerifyBalance(cfg.G, sep.Path) <= 2*n {
					return sep, nil
				}
				continue
			}
			if 3*nw > 2*n {
				// Speculative inner runs of the sweep are not charged; the
				// caller charges the whole fallback once (Lemma 8).
				sep, err := phase4(ncfg, nec, n, opt)
				if err != nil {
					continue
				}
				sep.Phase = PhaseSparseVirtual
				if 3*VerifyBalance(cfg.G, sep.Path) <= 2*n {
					return sep, nil
				}
			}
		}
	}
	return exhaustive(cfg, n)
}

// extremeLeafCandidates is the paper's literal Lemma 8 candidate set: the
// extreme leaves of T_U and T_V outside the face, falling back to the
// endpoints (used by the DisableVirtualSweep ablation).
func extremeLeafCandidates(cfg *weights.Config, ec weights.EdgeCase) []int {
	t := cfg.Tree
	n := cfg.G.N()
	inFace := make([]bool, n)
	for z := 0; z < n; z++ {
		b, in := cfg.InFace(ec, z)
		inFace[z] = b || in
	}
	uOut, vOut := -1, -1
	for z := 0; z < n; z++ {
		if len(t.Children(z)) > 0 || inFace[z] {
			continue
		}
		if t.IsAncestor(ec.U, z) && (uOut < 0 || cfg.PiL[z] > cfg.PiL[uOut]) {
			uOut = z
		}
		if t.IsAncestor(ec.V, z) && (vOut < 0 || cfg.PiL[z] < cfg.PiL[vOut]) {
			vOut = z
		}
	}
	var out []int
	for _, c := range []int{uOut, vOut, ec.U, ec.V} {
		if c >= 0 && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// rootFaceCandidates lists the vertices ℰ-compatible with the root (sharing
// a face with it), excluding the root and its neighbours, ordered by
// |π_ℓ(x) − n/2| — the face weight of the virtual edge root→x grows with
// the swept prefix, so candidates near the middle of the LEFT order land in
// range first.
func rootFaceCandidates(cfg *weights.Config) []int {
	root := cfg.Tree.Root
	n := cfg.G.N()
	fs := cfg.Faces()
	// The faces at the root, in ascending id order.
	rot := cfg.Emb.Rotation(root)
	faces := make([]int, len(rot))
	for i, d := range rot {
		faces[i] = int(fs.FaceOf[d])
	}
	sort.Ints(faces)
	faces = slices.Compact(faces)
	seen := make([]bool, n)
	seen[root] = true
	var out []int
	for _, f := range faces {
		for _, v := range fs.FaceVertices(f) {
			if !seen[v] && !cfg.G.HasEdge(root, v) {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di := abs(2*cfg.PiL[out[i]] - n)
		dj := abs(2*cfg.PiL[out[j]] - n)
		if di != dj {
			return di < dj
		}
		return out[i] < out[j]
	})
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// exhaustive is the harness safety net: it scans every real fundamental
// edge and, failing that, every root-to-vertex tree path for a balanced
// separator. Experiments assert it never triggers (Phase counters).
func exhaustive(cfg *weights.Config, n int) (*Separator, error) {
	for _, e := range cfg.FundamentalEdges() {
		ec := cfg.Classify(e)
		path := cfg.Tree.TPath(ec.U, ec.V)
		if 3*VerifyBalance(cfg.G, path) <= 2*n {
			return &Separator{Path: path, EndA: ec.U, EndB: ec.V, Phase: PhaseExhaustive}, nil
		}
	}
	root := cfg.Tree.Root
	for x := 0; x < n; x++ {
		path, err := cfg.Tree.PathUp(x, root)
		if err != nil {
			return nil, err
		}
		if 3*VerifyBalance(cfg.G, path) <= 2*n {
			return &Separator{Path: path, EndA: x, EndB: root, Phase: PhaseExhaustive}, nil
		}
	}
	return nil, fmt.Errorf("separator: no balanced T-path found (n=%d)", n)
}
