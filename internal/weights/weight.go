package weights

// EdgeCase classifies a canonical fundamental edge (u, v) with
// PiL[u] < PiL[v] per Definitions 1 and 2.
type EdgeCase struct {
	U, V int
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
	// U) when U is an ancestor of V, and -1 otherwise: Z >= 0 is the
	// ancestor case (Case 2 of Definition 2).
	Z int
	// W is the apex of the face's T-path: the LCA of U and V, which is U
	// itself in the ancestor case. Classify computes it once so membership
	// tests do not repeat the LCA query.
	W int
	// E is the ID of the case's fundamental edge.
	E int
}

// Classify determines the case of the fundamental edge with ID e.
func (cfg *Config) Classify(e int) EdgeCase {
	u, v := cfg.Canonical(e)
	ec := EdgeCase{U: u, V: v, Z: -1, W: u, E: e, UseLeft: true}
	if cfg.Tree.IsAncestor(u, v) {
		ec.Z = cfg.Tree.MustFirstOnPath(u, v)
		ec.UseLeft = cfg.edgeTPos(ec, u) > cfg.childTPos(ec.Z)
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
	atU, te, tz := cfg.cone(ec, x)
	sum := 0
	for _, c := range cfg.children(x) {
		if inCone(ec, atU, te, tz, cfg.childTPos(int(c))) {
			sum += cfg.Tree.SubtreeSize(int(c))
		}
	}
	return sum
}

// cone returns what inCone needs at the endpoint x of the case: whether x
// is U, the normalized position there of the case's edge, and in the
// ancestor case at U the position of the path child Z (-1 otherwise).
func (cfg *Config) cone(ec EdgeCase, x int) (atU bool, te, tz int) {
	if x != ec.U && x != ec.V {
		panic("weights: face cone at a non-endpoint")
	}
	atU, tz = x == ec.U, -1
	if atU && ec.Z >= 0 {
		tz = cfg.childTPos(ec.Z)
	}
	return atU, cfg.edgeTPos(ec, x), tz
}

// inCone reports whether a child at normalized position tc of an endpoint
// lies in the inside cone of the face there, given the position te of the
// case's edge and, at U in the ancestor case, the position tz of the path
// child:
//   - non-ancestor case: children of U before the edge and children of V
//     after it (Claim 1(ii)-(iii));
//   - ancestor case at U: children strictly between Z and the edge, on the
//     side the orientation picks, so never Z itself (Claim 4(i));
//   - ancestor case at V: children on the inside of the corner (Claim 4(ii)).
func inCone(ec EdgeCase, atU bool, te, tz, tc int) bool {
	switch {
	case ec.Z < 0 && atU:
		return tc < te
	case ec.Z < 0:
		return tc > te
	case atU && ec.UseLeft:
		return tz < tc && tc < te
	case atU:
		return te < tc && tc < tz
	case ec.UseLeft:
		return tc > te
	default:
		return tc < te
	}
}

// Weight computes the deterministic weight ω(F_e) of the real fundamental
// face of edge e per Definition 2.
func (cfg *Config) Weight(e int) int {
	return cfg.WeightOf(cfg.Classify(e))
}

// WeightOf is Weight on an edge already classified, for callers that
// keep the case for other uses.
func (cfg *Config) WeightOf(ec EdgeCase) int {
	return cfg.weightFrom(ec, cfg.PFace(ec, ec.U), cfg.PFace(ec, ec.V))
}

// weightFrom is Definition 2's weight of the case given its endpoint cone
// counts pu = p(U) and pv = p(V).
func (cfg *Config) weightFrom(ec EdgeCase, pu, pv int) int {
	t := cfg.Tree
	if ec.Z < 0 {
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
	if ec.Z >= 0 {
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
	if ec.Z >= 0 {
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
	if z != ec.U && t.IsAncestor(ec.U, z) && !(ec.Z >= 0 && t.IsAncestor(ec.Z, z)) {
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
	if ec.Z < 0 {
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
	atU, te, tz := cfg.cone(ec, x)
	return inCone(ec, atU, te, tz, cfg.childTPos(c))
}
