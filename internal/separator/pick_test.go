package separator

import (
	"math/rand"
	"sort"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/weights"
)

// The Lemma 17 picks scan the laminar chain above cand[0] once, on edge
// cases classified once. The oracles below are the earlier implementations:
// a walk up (or down) the containment order that rescans every candidate
// per step, over a containment test that classifies the candidate face
// afresh and identifies the edge with G.EdgeID.

// walkEdgeContainedInFace is the earlier containment test.
func walkEdgeContainedInFace(cfg *weights.Config, ec weights.EdgeCase, f int) bool {
	fd := cfg.G.EdgeByID(f)
	if id, ok := cfg.G.EdgeID(ec.U, ec.V); ok && id == f {
		return false
	}
	b1, i1 := cfg.InFace(ec, fd.U)
	b2, i2 := cfg.InFace(ec, fd.V)
	if !(b1 || i1) || !(b2 || i2) {
		return false
	}
	ecF := cfg.Classify(f)
	if _, uIn := cfg.InFace(ecF, ec.U); uIn {
		return false
	}
	if _, vIn := cfg.InFace(ecF, ec.V); vIn {
		return false
	}
	return true
}

// walkOutermost is the earlier pickOutermostAmong.
func walkOutermost(cfg *weights.Config, cand []int) int {
	cur := cand[0]
	for steps := 0; steps <= len(cand); steps++ {
		found := -1
		for _, f := range cand {
			if f == cur {
				continue
			}
			if walkEdgeContainedInFace(cfg, cfg.Classify(f), cur) {
				found = f
				break
			}
		}
		if found < 0 {
			return cur
		}
		cur = found
	}
	return cur
}

// walkInnermost is the earlier pickInnermost, over a weight map.
func walkInnermost(cfg *weights.Config, cand []int, w map[int]int) int {
	sorted := append([]int(nil), cand...)
	sort.Slice(sorted, func(i, j int) bool {
		if w[sorted[i]] != w[sorted[j]] {
			return w[sorted[i]] < w[sorted[j]]
		}
		return sorted[i] < sorted[j]
	})
	cur := sorted[0]
	for steps := 0; steps <= len(sorted); steps++ {
		found := -1
		ecCur := cfg.Classify(cur)
		for _, f := range sorted {
			if f != cur && walkEdgeContainedInFace(cfg, ecCur, f) {
				found = f
				break
			}
		}
		if found < 0 {
			return cur
		}
		cur = found
	}
	return cur
}

// pickFamilies are the instance families the pick oracles cover.
var pickFamilies = []string{"grid", "stacked", "cylinderish", "sparse", "polygon", "wheel", "fan"}

// pickChecker compares both picks with their walk oracles on one
// configuration.
type pickChecker struct {
	t    *testing.T
	cfg  *weights.Config
	name string
	w    map[int]int
	// picks counts outermost picks by kind of candidate set; climbed
	// counts those whose answer is not cand[0], so the test can tell it
	// saw nontrivial chains.
	picks   map[string]int
	climbed int
}

func (pc *pickChecker) outermost(what string, cand []int) {
	pc.t.Helper()
	got := pickOutermostAmong(pc.cfg, cand).E
	want := walkOutermost(pc.cfg, cand)
	if got != want {
		pc.t.Fatalf("%s: %s outermost pick over %d candidates from %d = %d, walk = %d",
			pc.name, what, len(cand), cand[0], got, want)
	}
	pc.picks[what]++
	if got != cand[0] {
		pc.climbed++
	}
}

func (pc *pickChecker) innermost(what string, cand []int) int {
	pc.t.Helper()
	ws := make([]int, len(cand))
	for i, e := range cand {
		ws[i] = pc.w[e]
	}
	got := pickInnermost(pc.cfg, cand, ws).E
	if want := walkInnermost(pc.cfg, cand, pc.w); got != want {
		pc.t.Fatalf("%s: %s innermost pick over %d candidates = %d, walk = %d",
			pc.name, what, len(cand), got, want)
	}
	return got
}

// TestPickOutermostMatchesWalk pins the one-scan Lemma 17 pick to the
// earlier walk on the phase 5 pick over every fundamental edge, on the
// hiding sets of heavy faces and on seeded random subsets (a subset of a
// laminar family is laminar), with the candidates after cand[0] shuffled
// too: the pick must not depend on their order. pickInnermost is held to
// its earlier code on the same candidate sets.
func TestPickOutermostMatchesWalk(t *testing.T) {
	picks := make(map[string]int)
	climbed := 0
	for _, family := range pickFamilies {
		for _, n := range []int{60, 400, 3000} {
			// Deep DFS trees give long T-paths and tall chains; the
			// pipeline itself runs on BFS trees.
			kinds := []string{"bfs"}
			if n <= 400 {
				kinds = append(kinds, "dfs")
			}
			for seed := int64(1); seed <= 3; seed++ {
				in, err := gen.ByName(family, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range kinds {
					pc := &pickChecker{t: t, cfg: buildConfig(t, in, kind), name: in.Name + "/" + kind,
						w: make(map[int]int), picks: picks}
					pc.run(seed)
					climbed += pc.climbed
				}
			}
		}
	}
	total := 0
	for _, c := range picks {
		total += c
	}
	// The comparison means little if every pick returned cand[0] or if
	// no hiding set was ever picked from.
	if climbed*4 < total || picks["hiding"] == 0 {
		t.Fatalf("weak coverage: %d of %d outermost picks climbed above cand[0]; picks by kind %v",
			climbed, total, picks)
	}
	t.Logf("%d outermost picks (%v), %d above cand[0]", total, picks, climbed)
}

// run compares the picks on every candidate set the test derives from
// one configuration.
func (pc *pickChecker) run(seed int64) {
	pc.t.Helper()
	cfg := pc.cfg
	fund := cfg.FundamentalEdges()
	if len(fund) == 0 {
		return
	}
	for _, e := range fund {
		pc.w[e] = cfg.Weight(e)
	}
	pc.outermost("phase 5", fund)
	pc.innermost("all faces", fund)

	rng := rand.New(rand.NewSource(seed))
	for _, p := range []float64{0.5, 0.1} {
		var sub []int
		for _, e := range fund {
			if rng.Float64() < p {
				sub = append(sub, e)
			}
		}
		if len(sub) == 0 {
			continue
		}
		pc.outermost("subset", sub)
		pc.innermost("subset", sub)
		rng.Shuffle(len(sub)-1, func(i, j int) { sub[i+1], sub[j+1] = sub[j+1], sub[i+1] })
		pc.outermost("shuffled subset", sub)
	}

	// Heavy faces: the hiding sets of a few inside leaves, as the
	// hidden fallback of Claim 6 sees them. HidingEdges costs
	// O(n·|fund|), so large instances keep to the face phase 4 runs on.
	var heavy []int
	for _, e := range fund {
		if 3*pc.w[e] > 2*cfg.G.N() {
			heavy = append(heavy, e)
		}
	}
	if len(heavy) == 0 {
		return
	}
	faces := heavy
	if e := pc.innermost("heavy", heavy); cfg.G.N() > 500 {
		faces = []int{e}
	}
	const leafBudget = 3
	for _, e := range faces {
		ec := cfg.Classify(e)
		leaves := 0
		for _, z := range cfg.InsideNodes(ec) {
			if cfg.Tree.ChildCount(z) != 0 {
				continue
			}
			if leaves++; leaves > leafBudget {
				break
			}
			if hiding := cfg.HidingEdges(ec, z); len(hiding) > 0 {
				pc.outermost("hiding", hiding)
			}
		}
	}
}

// TestFaceContainsMatchesEdgeContainedInFace checks, on every ordered pair
// of fundamental edges of small instances, that FaceContains over
// classified cases agrees with the earlier containment test and that
// Classify's apex is the LCA of the endpoints.
func TestFaceContainsMatchesEdgeContainedInFace(t *testing.T) {
	for _, family := range pickFamilies {
		for _, n := range []int{30, 200} {
			for seed := int64(1); seed <= 3; seed++ {
				in, err := gen.ByName(family, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range []string{"bfs", "dfs"} {
					cfg := buildConfig(t, in, kind)
					fund := cfg.FundamentalEdges()
					cases := make([]weights.EdgeCase, len(fund))
					for i, e := range fund {
						cases[i] = cfg.Classify(e)
						if ec := cases[i]; ec.E != e || ec.W != cfg.Tree.LCA(ec.U, ec.V) {
							t.Fatalf("%s/%s: Classify(%d) = %+v, LCA %d", in.Name, kind, e,
								ec, cfg.Tree.LCA(ec.U, ec.V))
						}
					}
					for i, outer := range cases {
						for j, inner := range cases {
							got := cfg.FaceContains(outer, inner)
							if want := walkEdgeContainedInFace(cfg, outer, fund[j]); got != want {
								t.Fatalf("%s/%s: FaceContains(%d, %d) = %v, EdgeContainedInFace = %v",
									in.Name, kind, fund[i], fund[j], got, want)
							}
						}
					}
				}
			}
		}
	}
}
