package weights

// FaceContains reports whether the fundamental face of inner (≠ outer's
// edge) is contained in the fundamental face of outer: both endpoints of
// inner lie on the border or strictly inside F_outer, and neither endpoint
// of outer is strictly inside F_inner. The second condition excludes the
// degenerate nesting where C_inner runs along F_outer's border and its
// region engulfs the closing edge of F_outer (then V(F_inner) ⊆ V(F_outer)
// as node sets even though F_inner ⊋ F_outer as regions). Both cases come
// from Classify, so the test does no per-face work of its own.
func (cfg *Config) FaceContains(outer, inner EdgeCase) bool {
	if outer.E == inner.E {
		return false
	}
	b1, i1 := cfg.InFace(outer, inner.U)
	b2, i2 := cfg.InFace(outer, inner.V)
	if !(b1 || i1) || !(b2 || i2) {
		return false
	}
	if _, uIn := cfg.InFace(inner, outer.U); uIn {
		return false
	}
	if _, vIn := cfg.InFace(inner, outer.V); vIn {
		return false
	}
	return true
}

// Hides reports whether fundamental edge f hides node z within the
// fundamental face of ec (Definition 4): f is contained in F_e, z lies
// strictly inside F_f, and either no endpoint of f is the augmentation
// endpoint U, or an endpoint is U but some node of T_U ∩ F_e escapes F_f.
func (cfg *Config) Hides(ec EdgeCase, z, f int) bool {
	ecF := cfg.Classify(f)
	if !cfg.FaceContains(ec, ecF) {
		return false
	}
	if _, inside := cfg.InFace(ecF, z); !inside {
		return false
	}
	// If U itself lies strictly inside F_f, the edge U-z is drawn entirely
	// within F_f and f cannot block it (this happens when F_f engulfs F_e's
	// closing edge; node-set containment does not distinguish the regions).
	if _, uInside := cfg.InFace(ecF, ec.U); uInside {
		return false
	}
	if ecF.U != ec.U && ecF.V != ec.U {
		return true // condition (1)
	}
	// Condition (2), prefix-scoped: f (incident to U) hides z unless the
	// whole swept prefix of z — the cone subtrees of U visited before z's
	// branch, the face nodes visited up to z in the case's DFS order, and
	// the descendants of z — fits inside F_f. (The paper's literal
	// "V(T_u) ∩ V(F_e) ⊄ V(F_f)" over-triggers when U is an ancestor-type
	// endpoint, where T_U contains the entire face; the prefix reading is
	// the one under which Lemma 6's equivalence with geometric
	// compatibility holds — see TestHiddenMatchesCompatibility.)
	for _, x := range cfg.sweptPrefix(ec, z) {
		bf, iff := cfg.InFace(ecF, x)
		if !bf && !iff {
			return true
		}
	}
	return false
}

// sweptPrefix returns the vertices the full augmentation to z keeps inside
// F^l_{Uz}: the cone subtrees of U swept before z's branch, the face
// vertices with DFS-order position up to z, and the descendants of z.
func (cfg *Config) sweptPrefix(ec EdgeCase, z int) []int {
	t := cfg.Tree
	pi := cfg.Pi(ec)
	keep := make([]bool, cfg.G.N())
	mark := func(v int) {
		// Mark the whole subtree of v.
		for x := 0; x < cfg.G.N(); x++ {
			if t.IsAncestor(v, x) {
				keep[x] = true
			}
		}
	}
	if z != ec.U && t.IsAncestor(ec.U, z) {
		z1 := t.MustFirstOnPath(ec.U, z)
		for _, c := range cfg.children(ec.U) {
			c := int(c)
			if c != z1 && cfg.childInCone(ec, ec.U, c) && pi[c] < pi[z1] {
				mark(c)
			}
		}
		for x := 0; x < cfg.G.N(); x++ {
			if pi[x] > pi[z1] && pi[x] <= pi[z] {
				keep[x] = true
			}
		}
	} else {
		for _, c := range cfg.children(ec.U) {
			c := int(c)
			if cfg.childInCone(ec, ec.U, c) {
				mark(c)
			}
		}
		for x := 0; x < cfg.G.N(); x++ {
			if cfg.PiL[x] >= cfg.PiL[ec.U]+t.SubtreeSize(ec.U) && cfg.PiL[x] <= cfg.PiL[z] {
				keep[x] = true
			}
		}
	}
	mark(z)
	var out []int
	for x := 0; x < cfg.G.N(); x++ {
		if !keep[x] {
			continue
		}
		if b, in := cfg.InFace(ec, x); b || in {
			out = append(out, x)
		}
	}
	return out
}

// HidingEdges returns the fundamental edges that hide z in the face of ec
// (empty means z is (T, F_e)-compatible with U when z is a leaf, Lemma 6).
func (cfg *Config) HidingEdges(ec EdgeCase, z int) []int {
	var out []int
	for _, f := range cfg.FundamentalEdges() {
		if cfg.Hides(ec, z, f) {
			out = append(out, f)
		}
	}
	return out
}
