package exp

import (
	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/separator"
)

// E13Row summarizes one ablation of the separator algorithm: how often the
// exhaustive safety net has to rescue the run, and how often the primary
// result (before the safety net) would have been unbalanced. The full
// algorithm must show zero in both columns; each ablation demonstrates the
// removed design element is load-bearing.
type E13Row struct {
	Ablation   string
	Trials     int
	Exhaustive int
	Unbalanced int
	Errors     int
}

// Ablations enumerates the configurations of experiment E13.
var Ablations = []struct {
	Name string
	Opt  separator.Options
}{
	{"full", separator.Options{}},
	{"no-long-path", separator.Options{DisableLongPath: true}},
	{"no-hidden-fallback", separator.Options{DisableHiddenFallback: true}},
	{"no-augmentation", separator.Options{DisableAugmentation: true}},
	{"no-virtual-sweep", separator.Options{DisableVirtualSweep: true}},
}

// E13 runs the ablation study over the given families with both tree kinds.
func E13(families []string, n, trials int) ([]E13Row, error) {
	var rows []E13Row
	for _, abl := range Ablations {
		row := E13Row{Ablation: abl.Name}
		for _, fam := range families {
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
					row.Trials++
					sep, err := separator.FindWithOptions(cfg, abl.Opt)
					if err != nil {
						row.Errors++
						continue
					}
					if sep.Phase == separator.PhaseExhaustive {
						row.Exhaustive++
					}
					nn := in.G.N()
					if 3*separator.VerifyBalance(in.G, sep.Path) > 2*nn {
						row.Unbalanced++
					}
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
