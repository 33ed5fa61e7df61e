package weights

// EdgeCase classifies a canonical fundamental edge (u, v) with
// PiL[u] < PiL[v] per Definitions 1 and 2.
type EdgeCase struct {
	U, V int
	// Ancestor reports whether U is an ancestor of V.
	Ancestor bool
	// UseLeft selects the DFS order of the weight formula: the LEFT order
	// when the face opens on the clockwise side (t_u(v) > t_u(z), drawn so
	// that inside nodes are visited between z and v in the LEFT order),
	// the RIGHT order otherwise. Non-ancestor edges always use the LEFT
	// order (their canonical orientation fixes the side).
	//
	// Note: the paper's Definition 1 labels these "ℰ-left"/"ℰ-right" with
	// the opposite convention to its own Lemma 4 (which proves the formula
	// for t_u(v) > t_u(z) using π_ℓ). We follow Lemma 4's proof; the
	// property tests against geometric ground truth pin this down.
	UseLeft bool
	// Z is the first vertex after U on the T-path to V (the path child of
	// U) when Ancestor; -1 otherwise.
	Z int
	// W is the apex of the face's T-path: the LCA of U and V, which is U
	// itself when Ancestor. Classify computes it once so membership tests
	// do not repeat the LCA query.
	W int
	// E is the ID of the case's fundamental edge.
	E int
}

// Classify determines the case of the fundamental edge with ID e.
func (cfg *Config) Classify(e int) EdgeCase {
	u, v := cfg.Canonical(e)
	ec := EdgeCase{U: u, V: v, Z: -1, W: u, E: e, UseLeft: true}
	if cfg.Tree.IsAncestor(u, v) {
		ec.Ancestor = true
		ec.Z = cfg.Tree.MustFirstOnPath(u, v)
		ec.UseLeft = cfg.TPosOf(u, v) > cfg.TPosOf(u, ec.Z)
	} else {
		ec.W = cfg.Tree.LCA(u, v)
	}
	return ec
}

// Pi returns the DFS order selected by the case.
func (cfg *Config) Pi(ec EdgeCase) []int {
	if ec.UseLeft {
		return cfg.PiL
	}
	return cfg.PiR
}

// PFace returns p_{F_e}(x) for an endpoint x of the canonical edge: the
// number of vertices of T_x strictly inside F_e, computed locally at x from
// its child cone (Claims 1 and 4).
func (cfg *Config) PFace(ec EdgeCase, x int) int {
	t := cfg.Tree
	sum := 0
	switch {
	case !ec.Ancestor && x == ec.U:
		// Children of u with t_u(c) < t_u(v) are inside (Claim 1(ii)).
		tv := cfg.TPosOf(ec.U, ec.V)
		for _, c := range cfg.children(ec.U) {
			c := int(c)
			if cfg.TPosOf(ec.U, c) < tv {
				sum += t.SubtreeSize(c)
			}
		}
	case !ec.Ancestor && x == ec.V:
		// Children of v with t_v(c) > t_v(u) are inside (Claim 1(iii)).
		tu := cfg.TPosOf(ec.V, ec.U)
		for _, c := range cfg.children(ec.V) {
			c := int(c)
			if cfg.TPosOf(ec.V, c) > tu {
				sum += t.SubtreeSize(c)
			}
		}
	case ec.Ancestor && x == ec.U:
		// Children strictly between the path child z and v in the cone
		// (Claim 4(i)); orientation decides which side of z.
		tv := cfg.TPosOf(ec.U, ec.V)
		tz := cfg.TPosOf(ec.U, ec.Z)
		for _, c := range cfg.children(ec.U) {
			c := int(c)
			if c == ec.Z {
				continue
			}
			tc := cfg.TPosOf(ec.U, c)
			if ec.UseLeft {
				if tz < tc && tc < tv {
					sum += t.SubtreeSize(c)
				}
			} else {
				if tv < tc && tc < tz {
					sum += t.SubtreeSize(c)
				}
			}
		}
	case ec.Ancestor && x == ec.V:
		// Children of v on the inside of the corner at v (Claim 4(ii)).
		tu := cfg.TPosOf(ec.V, ec.U)
		for _, c := range cfg.children(ec.V) {
			c := int(c)
			tc := cfg.TPosOf(ec.V, c)
			if ec.UseLeft {
				if tc > tu {
					sum += t.SubtreeSize(c)
				}
			} else {
				if tc < tu {
					sum += t.SubtreeSize(c)
				}
			}
		}
	default:
		panic("weights: PFace called with a non-endpoint")
	}
	return sum
}

// Weight computes the deterministic weight ω(F_e) of the real fundamental
// face of edge e per Definition 2.
func (cfg *Config) Weight(e int) int {
	ec := cfg.Classify(e)
	return cfg.weightOf(ec)
}

func (cfg *Config) weightOf(ec EdgeCase) int {
	t := cfg.Tree
	pu := cfg.PFace(ec, ec.U)
	pv := cfg.PFace(ec, ec.V)
	if !ec.Ancestor {
		// Case 1: ω = p(v)+p(u)+π_ℓ(v) − (π_ℓ(u)+n_T(u)) + 2.
		//
		// Erratum note: the paper's Definition 2 has "+1", but its own
		// Claim 2(iv) is off by one — when the LEFT order visits the first
		// vertex of the path P_v immediately after T_u, that vertex sits at
		// position π_ℓ(u)+n_T(u), which the claimed open interval misses.
		// Every vertex visited between the end of T_u and v belongs to
		// F̃_e, so the correct count of F̃_e \ (T_u ∪ T_v ∪ {w}) is
		// π_ℓ(v) − π_ℓ(u) − n_T(u); adding |F̃∩T_u| = p(u),
		// |F̃∩T_v| = p(v)+1 and 1 for w gives "+2". The property test
		// against geometric ground truth (TestWeightFormulaExact) pins
		// this down on every fundamental edge of every test family.
		return pu + pv + cfg.PiL[ec.V] - (cfg.PiL[ec.U] + t.SubtreeSize(ec.U)) + 2
	}
	// Case 2: ω = p(v)+p(u)+(π(v)−π(z)) − (d(v)−d(z)).
	pi := cfg.Pi(ec)
	return pu + pv + (pi[ec.V] - pi[ec.Z]) - (t.Depth[ec.V] - t.Depth[ec.Z])
}

// GroundTruthWeight computes, from geometric ground truth, the quantity the
// weight formula is proven to equal: |F̊_e| for ancestor edges (Lemma 4),
// |F̃_e| = |F̊_e| + |T-path(LCA, v)| for non-ancestor edges (Lemma 3).
func (cfg *Config) GroundTruthWeight(e int) (int, error) {
	ec := cfg.Classify(e)
	inside, _, err := cfg.GroundTruthInside(ec.U, ec.V)
	if err != nil {
		return 0, err
	}
	cnt := 0
	for _, in := range inside {
		if in {
			cnt++
		}
	}
	if ec.Ancestor {
		return cnt, nil
	}
	return cnt + cfg.Tree.Depth[ec.V] - cfg.Tree.Depth[ec.W] + 1, nil
}

// InFace reports where z stands relative to the real fundamental face of
// the canonical edge case: on the border (the T-path U..V) or strictly
// inside, using only orders, intervals and local cone information
// (Remark 1) — no geometry.
func (cfg *Config) InFace(ec EdgeCase, z int) (border, inside bool) {
	t := cfg.Tree
	// Border: z on the T-path between U and V.
	if ec.Ancestor {
		if t.IsAncestor(ec.U, z) && t.IsAncestor(z, ec.V) {
			return true, false
		}
	} else {
		if t.IsAncestor(z, ec.U) && t.IsAncestor(ec.W, z) {
			return true, false
		}
		if t.IsAncestor(z, ec.V) && t.IsAncestor(ec.W, z) {
			return true, false
		}
	}
	// Subtree membership at the endpoints: decided by the endpoint cones.
	if z != ec.U && t.IsAncestor(ec.U, z) && !(ec.Ancestor && t.IsAncestor(ec.Z, z)) {
		// z hangs off a child of U: inside iff that child's subtree is in
		// the face cone, i.e. the child is counted by PFace.
		c := t.Ancestor(z, t.Depth[z]-t.Depth[ec.U]-1)
		return false, cfg.childInCone(ec, ec.U, c)
	}
	if z != ec.V && t.IsAncestor(ec.V, z) {
		c := t.Ancestor(z, t.Depth[z]-t.Depth[ec.V]-1)
		return false, cfg.childInCone(ec, ec.V, c)
	}
	// General position (Remark 1): strict order interval in the case's
	// order.
	pi := cfg.Pi(ec)
	if !ec.Ancestor {
		// Remark 1 case 1 uses π_ℓ; exclude T_U and T_V (handled above).
		if t.IsAncestor(ec.U, z) || t.IsAncestor(ec.V, z) {
			return false, false
		}
		return false, cfg.PiL[ec.U] < cfg.PiL[z] && cfg.PiL[z] < cfg.PiL[ec.V]
	}
	if t.IsAncestor(ec.V, z) {
		return false, false
	}
	return false, pi[ec.U] < pi[z] && pi[z] < pi[ec.V]
}

// childInCone reports whether child c of endpoint x lies in the inside cone
// of the face at x (the same condition PFace sums over).
func (cfg *Config) childInCone(ec EdgeCase, x, c int) bool {
	switch {
	case !ec.Ancestor && x == ec.U:
		return cfg.TPosOf(ec.U, c) < cfg.TPosOf(ec.U, ec.V)
	case !ec.Ancestor && x == ec.V:
		return cfg.TPosOf(ec.V, c) > cfg.TPosOf(ec.V, ec.U)
	case ec.Ancestor && x == ec.U:
		if c == ec.Z {
			return false
		}
		tv, tz, tc := cfg.TPosOf(ec.U, ec.V), cfg.TPosOf(ec.U, ec.Z), cfg.TPosOf(ec.U, c)
		if ec.UseLeft {
			return tz < tc && tc < tv
		}
		return tv < tc && tc < tz
	case ec.Ancestor && x == ec.V:
		tu, tc := cfg.TPosOf(ec.V, ec.U), cfg.TPosOf(ec.V, c)
		if ec.UseLeft {
			return tc > tu
		}
		return tc < tu
	}
	panic("weights: childInCone with non-endpoint")
}
