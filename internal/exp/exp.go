// Package exp implements the experiment harness: one entry point per
// experiment of EXPERIMENTS.md (E1-E12), each returning table rows that the
// cmd tools print and bench_test.go reports as metrics. The paper has no
// empirical section; the experiments materialize the quantities its
// theorems and lemmas assert (see DESIGN.md section 3).
package exp

import (
	"planardfs/internal/dist"
	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/separator"
	"planardfs/internal/shortcut"
)

// DefaultFamilies are the graph families used by the sweeps.
var DefaultFamilies = []string{"grid", "cylinderish", "stacked", "sparse", "polygon"}

// treeKinds are the spanning trees the statistical experiments configure
// over, rooted on the outer face: BFS (depth <= D) and deep DFS (depth up
// to Θ(n)).
var treeKinds = []pipeline.TreeKind{pipeline.TreeBFS, pipeline.TreeDeepDFS}

// E1Row is one sweep point of experiment E1 (Theorem 1: separator rounds
// scale with Õ(D), not with n). D is the depth of the configuration's BFS
// tree from the outer-face root, the depth the engine prices its rounds at
// (depth ≤ diameter ≤ 2·depth).
type E1Row struct {
	Family          string
	N, M, D         int
	SepLen          int
	Phase           separator.Phase
	PaperRounds     int
	PipelinedRounds int
	// NormPaper is PaperRounds / ((D+1)·log⁴n) — two log factors from the
	// PA charge, two from the subroutine invocation counts (MARK-PATH) —
	// flat across the sweep iff the Õ(D) shape holds.
	NormPaper float64
}

// E1 sweeps certified Theorem 1 pipeline runs (pipeline.Separate) across
// families and sizes. The paper figure is the separator's Result.Rounds,
// the rounds a traced engine call charges; the pipelined figure prices the
// same schedule at the same depth.
func E1(families []string, sizes []int, seed int64) ([]E1Row, error) {
	var rows []E1Row
	for _, fam := range families {
		for _, n := range sizes {
			in, run, err := certified(pipeline.Separate, fam, n, seed, nil)
			if err != nil {
				return nil, err
			}
			res := run.Separator
			nn, d := in.G.N(), run.BFS.MaxDepth()
			l := shortcut.Log2Ceil(nn + 1)
			rows = append(rows, E1Row{
				Family: fam, N: nn, M: in.G.M(), D: d,
				SepLen: len(res.Sep.Path), Phase: res.Sep.Phase,
				PaperRounds:     res.Rounds,
				PipelinedRounds: dist.SeparatorOps(nn).Rounds(shortcut.PipelinedCost{Depth: d}, 1),
				NormPaper:       float64(res.Rounds) / float64((d+1)*l*l*l*l),
			})
		}
	}
	return rows, nil
}

// E3Row aggregates separator quality over many random instances
// (Lemma 1/5: always balanced, always a T-path cycle).
type E3Row struct {
	Family     string
	N          int
	Trials     int
	Balanced   int
	WorstRatio float64 // max over trials of maxComponent/n (must be <= 2/3)
	Phases     map[string]int
	Exhaustive int // safety-net activations (must be 0)
}

// E3 measures separator quality across seeds and tree kinds.
func E3(families []string, n, trials int) ([]E3Row, error) {
	var rows []E3Row
	for _, fam := range families {
		row := E3Row{Family: fam, N: n, Phases: map[string]int{}}
		for seed := int64(1); seed <= int64(trials); seed++ {
			in, err := gen.ByName(fam, n, seed)
			if err != nil {
				return nil, err
			}
			for _, kind := range treeKinds {
				cfg, err := pipeline.NewConfig(in, kind, in.Emb.FaceRoot(in.OuterDart))
				if err != nil {
					return nil, err
				}
				sep, err := separator.Find(cfg)
				if err != nil {
					return nil, err
				}
				row.Trials++
				row.Phases[sep.Phase.String()]++
				if sep.Phase == separator.PhaseExhaustive {
					row.Exhaustive++
				}
				nn := in.G.N()
				maxC := separator.VerifyBalance(in.G, sep.Path)
				ratio := float64(maxC) / float64(nn)
				if ratio > row.WorstRatio {
					row.WorstRatio = ratio
				}
				if 3*maxC <= 2*nn {
					row.Balanced++
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E4Row reports the weight-formula exactness count (Lemmas 3-4).
type E4Row struct {
	Family string
	N      int
	Edges  int // fundamental edges checked
	Exact  int // edges where Definition 2 equals the geometric count
}

// E4 verifies Definition 2 against geometric ground truth on every
// fundamental edge of freshly generated instances.
func E4(families []string, n int, seeds int) ([]E4Row, error) {
	var rows []E4Row
	for _, fam := range families {
		row := E4Row{Family: fam, N: n}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			in, err := gen.ByName(fam, n, seed)
			if err != nil {
				return nil, err
			}
			for _, kind := range treeKinds {
				cfg, err := pipeline.NewConfig(in, kind, in.Emb.FaceRoot(in.OuterDart))
				if err != nil {
					return nil, err
				}
				for _, e := range cfg.FundamentalEdges() {
					row.Edges++
					gt, err := cfg.GroundTruthWeight(e)
					if err != nil {
						return nil, err
					}
					if cfg.Weight(e) == gt {
						row.Exact++
					}
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E12Row compares separator sizes: the cycle separator's path length versus
// the BFS-level baseline's width. D is the configuration's BFS tree depth,
// as in E1.
type E12Row struct {
	Family       string
	N, D         int
	CycleSepLen  int
	LevelSepLen  int
	CycleBalance float64
	LevelBalance float64
}

// E12 compares separator sizes across families.
func E12(families []string, n int, seed int64) ([]E12Row, error) {
	var rows []E12Row
	for _, fam := range families {
		in, res, err := certified(pipeline.Separate, fam, n, seed, nil)
		if err != nil {
			return nil, err
		}
		sep := res.Separator.Sep
		lvl := separator.BFSLevelSeparator(in.G, res.Root)
		nn := in.G.N()
		rows = append(rows, E12Row{
			Family: fam, N: nn, D: res.BFS.MaxDepth(),
			CycleSepLen:  len(sep.Path),
			LevelSepLen:  len(lvl),
			CycleBalance: float64(separator.VerifyBalance(in.G, sep.Path)) / float64(nn),
			LevelBalance: float64(separator.VerifyBalance(in.G, lvl)) / float64(nn),
		})
	}
	return rows, nil
}
