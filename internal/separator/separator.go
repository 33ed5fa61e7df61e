// Package separator implements the paper's main contribution (Theorem 1):
// deterministic computation of cycle separators in embedded planar graphs
// via the weights of fundamental faces and augmentations, following the
// constructive proof of Lemma 1 and the phase structure of Section 5.3.
//
// A cycle separator is a set of vertices forming a path of the spanning
// tree T whose endpoints are joined by a real edge of G or by an
// ℰ-compatible virtual edge; removing it leaves connected components of at
// most 2n/3 vertices each.
package separator

import (
	"cmp"
	"fmt"
	"slices"

	"planardfs/internal/graph"
	"planardfs/internal/weights"
)

// Phase identifies which case of the algorithm produced a separator.
type Phase int

// Phases of the separator algorithm (Section 5.3).
const (
	// PhaseTree: the graph is a tree; the separator is the path from the
	// root to a centroid (Phase 2).
	PhaseTree Phase = iota + 1
	// PhaseDirect: a real fundamental face has weight in [n/3, 2n/3]
	// (Phase 3).
	PhaseDirect
	// PhaseAugmented: a full augmentation from an endpoint of a heavy face
	// reached the range, and the target leaf is unhidden (Sub-phase 4.1).
	PhaseAugmented
	// PhaseHiddenFallback: the target leaf is hidden; the separator closes
	// through the outermost hiding edge (Sub-phase 4.1, Claim 6).
	PhaseHiddenFallback
	// PhaseLongPath: the T-path closed by a real fundamental edge or by a
	// compatible augmentation has at least n/3 vertices, so its removal
	// leaves at most 2n/3 vertices in total (Lemma 1, condition 3).
	PhaseLongPath
	// PhaseHeavyBorder: no augmentation weight is in range; the heavy
	// face's own border is the separator (Sub-phase 4.2).
	PhaseHeavyBorder
	// PhaseSparse: all faces are light and the outside of an outermost
	// face is small; its border is the separator (Phase 5).
	PhaseSparse
	// PhaseSparseVirtual: all faces are light and one outside region is
	// heavy; a virtual edge from the root creates a heavy face and the
	// Phase 4 logic runs inside it (Phase 5 fallback, Lemma 8).
	PhaseSparseVirtual
	// PhaseExhaustive: the harness safety net found the separator by
	// exhaustive search (counted by experiments; must not trigger).
	PhaseExhaustive
	// PhaseLevelCycle: a BFS level-region boundary cycle, produced by the
	// Har-Peled–Nayyeri engine (internal/sepengine).
	PhaseLevelCycle
	// PhaseDualTree: a fundamental cycle selected by tree-weight
	// decomposition over the dual of a BFS tree (internal/sepengine).
	PhaseDualTree
)

func (p Phase) String() string {
	switch p {
	case PhaseTree:
		return "tree"
	case PhaseDirect:
		return "direct"
	case PhaseAugmented:
		return "augmented"
	case PhaseHiddenFallback:
		return "hidden-fallback"
	case PhaseLongPath:
		return "long-path"
	case PhaseHeavyBorder:
		return "heavy-border"
	case PhaseSparse:
		return "sparse"
	case PhaseSparseVirtual:
		return "sparse-virtual"
	case PhaseExhaustive:
		return "exhaustive"
	case PhaseLevelCycle:
		return "level-cycle"
	case PhaseDualTree:
		return "dual-tree"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Separator is a cycle separator: a T-path whose removal balances the
// graph.
type Separator struct {
	// Path lists the separator vertices in T-path order.
	Path []int
	// EndA and EndB are the path endpoints; the cycle closes between them
	// through a real or virtual edge (equal for single-vertex separators).
	EndA, EndB int
	// Phase records which case produced the separator.
	Phase Phase
}

// Options toggle individual design elements of the separator algorithm for
// ablation studies (experiment E13). The zero value is the full algorithm.
type Options struct {
	// DisableLongPath skips Lemma 1's condition 3 (the >= n/3 T-path
	// shortcut), forcing the weight machinery to cover those cases.
	DisableLongPath bool
	// DisableHiddenFallback skips the Claim 6 fallback: Phase 4.1 returns
	// the augmented path even when the target leaf is hidden.
	DisableHiddenFallback bool
	// DisableAugmentation skips Phase 4.1 entirely: heavy faces fall
	// straight to their border (Sub-phase 4.2).
	DisableAugmentation bool
	// DisableVirtualSweep restricts Phase 5's fallback to the paper's
	// extreme-leaf candidates instead of the full root-face sweep.
	DisableVirtualSweep bool
}

// Find computes a cycle separator of the configuration's graph following
// Lemma 1's constructive proof. The result is a T-path; balance
// (components of G - S of size at most 2n/3) is guaranteed by the paper's
// case analysis and verified exhaustively by the test suite and
// experiments.
//
// Find charges no rounds: the Theorem 1 engine (internal/sepengine)
// prices a call as the fixed schedule dist.SeparatorOps and traces that
// charge when its Options.Tracer is set.
func Find(cfg *weights.Config) (*Separator, error) {
	return FindWithOptions(cfg, Options{})
}

// FindWithOptions is Find with ablation toggles: the Lemma 1 case
// analysis.
func FindWithOptions(cfg *weights.Config, opt Options) (*Separator, error) {
	n := cfg.G.N()
	if n == 1 {
		return &Separator{Path: []int{0}, EndA: 0, EndB: 0, Phase: PhaseTree}, nil
	}
	fund := cfg.FundamentalEdges()
	if len(fund) == 0 {
		// Phase 2: the graph is a tree.
		c := cfg.Tree.Centroid()
		path, err := cfg.Tree.PathUp(c, cfg.Tree.Root)
		if err != nil {
			return nil, err
		}
		return &Separator{
			Path:  path,
			EndA:  c,
			EndB:  cfg.Tree.Root,
			Phase: PhaseTree,
		}, nil
	}

	inRange := func(x int) bool { return 3*x >= n && 3*x <= 2*n }

	// Phase 3: a face with weight directly in range. The scan classifies
	// each fundamental edge once; the later phases and picks reuse cases.
	cases := make([]weights.EdgeCase, 0, len(fund))
	var heavy []weights.EdgeCase
	var heavyW []int
	for _, e := range fund {
		ec := cfg.Classify(e)
		w := cfg.WeightOf(ec)
		if inRange(w) {
			return &Separator{
				Path:  cfg.Tree.TPath(ec.U, ec.V),
				EndA:  ec.U,
				EndB:  ec.V,
				Phase: PhaseDirect,
			}, nil
		}
		if 3*w > 2*n {
			heavy = append(heavy, ec)
			heavyW = append(heavyW, w)
		}
		cases = append(cases, ec)
	}

	// Lemma 1, condition 3: a fundamental cycle whose T-path already has at
	// least n/3 vertices — removing it leaves at most 2n/3 vertices in
	// total, so it is a separator regardless of face weights.
	for _, ec := range cases {
		if opt.DisableLongPath {
			break
		}
		if 3*pathLen(cfg, ec.U, ec.V) >= n {
			return &Separator{
				Path:  cfg.Tree.TPath(ec.U, ec.V),
				EndA:  ec.U,
				EndB:  ec.V,
				Phase: PhaseLongPath,
			}, nil
		}
	}

	// Phase 4: some face is heavy (> 2n/3).
	if len(heavy) > 0 {
		return phase4(cfg, pickInnermost(cfg, heavy, heavyW), n, opt)
	}

	// Phase 5: every face is light (< n/3).
	return phase5(cfg, cases, n, opt)
}

// phase4 handles a heavy face containing no other heavy face: the full
// augmentation from U sweeps the face; either some augmentation weight
// lands in range (Sub-phase 4.1, with the hidden fallback of Claim 6) or
// the face border itself separates (Sub-phase 4.2).
func phase4(cfg *weights.Config, ec weights.EdgeCase, n int, opt Options) (*Separator, error) {
	inRange := func(x int) bool { return 3*x >= n && 3*x <= 2*n }
	inside := cfg.InsideNodes(ec)

	s := -1
	if !opt.DisableAugmentation {
		for _, z := range inside {
			if inRange(cfg.AugWeight(ec, z)) {
				s = z
				break
			}
		}
	}
	if s < 0 {
		// No augmentation weight lands in range. Before falling back to the
		// face border (Sub-phase 4.2), apply Lemma 1's condition 3: the
		// deepest inside vertex is a leaf; if its T-path from U has at
		// least n/3 vertices and it is unhidden (hence compatible with U),
		// that path separates outright.
		if zd := deepestOf(cfg, inside); !opt.DisableLongPath && zd >= 0 &&
			3*pathLen(cfg, ec.U, zd) >= n && len(cfg.HidingEdges(ec, zd)) == 0 {
			return &Separator{
				Path:  cfg.Tree.TPath(ec.U, zd),
				EndA:  ec.U,
				EndB:  zd,
				Phase: PhaseLongPath,
			}, nil
		}
		// Sub-phase 4.2.
		return &Separator{
			Path:  cfg.Tree.TPath(ec.U, ec.V),
			EndA:  ec.U,
			EndB:  ec.V,
			Phase: PhaseHeavyBorder,
		}, nil
	}
	// Remark 2: descend to the order-maximal leaf (same weight).
	s = cfg.RightmostLeafIn(ec, s)

	var hiding []int
	if !opt.DisableHiddenFallback {
		hiding = cfg.HidingEdges(ec, s)
	}
	if len(hiding) == 0 {
		return &Separator{
			Path:  cfg.Tree.TPath(ec.U, s),
			EndA:  ec.U,
			EndB:  s,
			Phase: PhaseAugmented,
		}, nil
	}
	// Claim 6: pick a hiding edge not contained in any other hiding edge
	// and close through its far endpoint.
	// The far endpoint is the one later in the LEFT order: the canonical V.
	z2 := pickOutermostAmong(cfg, classifyAll(cfg, hiding)).V
	return &Separator{
		Path:  cfg.Tree.TPath(ec.U, z2),
		EndA:  ec.U,
		EndB:  z2,
		Phase: PhaseHiddenFallback,
	}, nil
}

// phase5 handles the all-light case (Lemma 8): take a face contained in no
// other; if its outside is small its border separates, otherwise a virtual
// edge from the root wraps the heavy outside region into a face and the
// Phase 4 logic runs there.
func phase5(cfg *weights.Config, cases []weights.EdgeCase, n int, opt Options) (*Separator, error) {
	ec := pickOutermostAmong(cfg, cases)
	// Count the face extent from the interval characterization.
	insideCnt := len(cfg.InsideNodes(ec))
	borderCnt := len(cfg.BorderNodes(ec))
	outside := n - insideCnt - borderCnt
	if 3*outside <= 2*n {
		return &Separator{
			Path:  cfg.Tree.TPath(ec.U, ec.V),
			EndA:  ec.U,
			EndB:  ec.V,
			Phase: PhaseSparse,
		}, nil
	}
	// Lemma 8 fallback: a virtual edge wraps the heavy outside region into
	// a face and the Phase 4 machinery runs inside it.
	return phase5Virtual(cfg, ec, n, opt)
}

// classifyAll classifies the fundamental edges, in order.
func classifyAll(cfg *weights.Config, edges []int) []weights.EdgeCase {
	cases := make([]weights.EdgeCase, len(edges))
	for i, e := range edges {
		cases[i] = cfg.Classify(e)
	}
	return cases
}

// pickInnermost returns a candidate case whose face contains no other
// candidate's face; cand[i] has weight w[i]. Weights are non-decreasing
// under containment, so the walk down the containment order starts at a
// minimum-weight candidate (lowest edge ID among equals). Faces inside a
// face need not form a chain, so the walk stays.
func pickInnermost(cfg *weights.Config, cand []weights.EdgeCase, w []int) weights.EdgeCase {
	type item struct {
		ec weights.EdgeCase
		w  int
	}
	items := make([]item, len(cand))
	for i, ec := range cand {
		items[i] = item{ec, w[i]}
	}
	slices.SortFunc(items, func(a, b item) int {
		if c := cmp.Compare(a.w, b.w); c != 0 {
			return c
		}
		return cmp.Compare(a.ec.E, b.ec.E)
	})
	cur := items[0].ec
	for steps := 0; steps <= len(items); steps++ {
		found := false
		for _, it := range items {
			if cfg.FaceContains(cur, it.ec) {
				cur, found = it.ec, true
				break
			}
		}
		if !found {
			return cur
		}
	}
	return cur
}

// pickOutermostAmong returns the candidate case whose face is contained
// in no other candidate's face (Lemma 17). Fundamental faces are laminar
// — each is a subtree of the dual tree T* — so the faces that contain
// F_{cand[0]} form a chain under containment, and the answer is its top
// whatever the order of cand[1:]. One scan finds it: a candidate whose
// face contains the current top lies on the chain above it and becomes
// the new top. Nothing is classified or allocated.
func pickOutermostAmong(cfg *weights.Config, cand []weights.EdgeCase) weights.EdgeCase {
	top := cand[0]
	for _, ec := range cand[1:] {
		if cfg.FaceContains(ec, top) {
			top = ec
		}
	}
	return top
}

// pathLen returns the number of vertices on the T-path between u and v.
func pathLen(cfg *weights.Config, u, v int) int {
	w := cfg.Tree.LCA(u, v)
	return cfg.Tree.Depth[u] + cfg.Tree.Depth[v] - 2*cfg.Tree.Depth[w] + 1
}

// deepestOf returns the deepest vertex of the list (-1 when empty); when the
// list is the inside of a face, the deepest vertex is a tree leaf.
func deepestOf(cfg *weights.Config, vs []int) int {
	best := -1
	for _, v := range vs {
		if best < 0 || cfg.Tree.Depth[v] > cfg.Tree.Depth[best] {
			best = v
		}
	}
	return best
}

// VerifyBalance returns the largest component of g after removing the
// separator vertices (ids outside g are ignored). A valid separator has
// max component <= 2n/3.
func VerifyBalance(g *graph.Graph, sep []int) int {
	removed := make([]bool, g.N())
	for _, v := range sep {
		if v >= 0 && v < len(removed) {
			removed[v] = true
		}
	}
	maxComp := 0
	for _, comp := range g.ComponentsAvoidingMask(removed) {
		maxComp = max(maxComp, len(comp))
	}
	return maxComp
}

// IsTPath reports whether the separator path is a contiguous path of the
// configuration's tree.
func IsTPath(cfg *weights.Config, sep *Separator) bool {
	want := cfg.Tree.TPath(sep.EndA, sep.EndB)
	if len(want) != len(sep.Path) {
		return false
	}
	for i := range want {
		if want[i] != sep.Path[i] {
			return false
		}
	}
	return true
}
