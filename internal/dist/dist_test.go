package dist

import (
	"testing"

	"planardfs/internal/shortcut"
)

func TestOpsArithmetic(t *testing.T) {
	a := Ops{PA: 1, TreeAgg: 2, Local: 3}
	b := Ops{PA: 10, TreeAgg: 20, Local: 30}
	if got := a.Plus(b); got != (Ops{PA: 11, TreeAgg: 22, Local: 33}) {
		t.Fatalf("Plus = %+v", got)
	}
	if got := a.Times(3); got != (Ops{PA: 3, TreeAgg: 6, Local: 9}) {
		t.Fatalf("Times = %+v", got)
	}
}

func TestOpsRounds(t *testing.T) {
	o := Ops{PA: 2, TreeAgg: 1, Local: 5}
	cm := shortcut.PaperCost{D: 10, N: 100}
	per := cm.Cost(shortcut.OpPA, 1)
	if got := o.Rounds(cm, 1); got != 3*per+5 {
		t.Fatalf("Rounds = %d, want %d", got, 3*per+5)
	}
	if (Ops{}).Rounds(cm, 1) != 0 {
		t.Fatal("empty ops should cost 0")
	}
}

func TestPerLemmaOpsGrowLogarithmically(t *testing.T) {
	// The PA counts must grow like log (DFS order) and log^2 (mark path).
	small, big := DFSOrderOps(16), DFSOrderOps(1<<20)
	if big.PA > 10*small.PA {
		t.Fatalf("DFSOrderOps grows too fast: %d -> %d", small.PA, big.PA)
	}
	if SeparatorOps(1000).PA <= 0 || JoinSubPhaseOps(1000).PA <= 0 {
		t.Fatal("driver ops must be positive")
	}
	if DFSBuildOps(1000, 10, 3).PA != SeparatorOps(1000).Plus(JoinSubPhaseOps(1000).Times(3)).Times(10).PA {
		t.Fatal("DFSBuildOps composition wrong")
	}
	if AwerbuchRounds(100) != 199 {
		t.Fatal("AwerbuchRounds wrong")
	}
}

// TestLemmaPrices pins every per-lemma Ops line at n = 1000 and n = 2^20
// (ceil(log2(n+1)) = 10 and 21). The goldens pin only the totals these
// lines sum to, so a price moved from one lemma to another shows here.
func TestLemmaPrices(t *testing.T) {
	for _, c := range []struct {
		name       string
		ops        func(n int) Ops
		small, big Ops
	}{
		{"SpanningForestOps", SpanningForestOps, Ops{PA: 30, Local: 10}, Ops{PA: 63, Local: 21}},
		{"PAProblemOps", func(int) Ops { return PAProblemOps() }, Ops{PA: 2, TreeAgg: 1}, Ops{PA: 2, TreeAgg: 1}},
		{"DFSOrderOps", DFSOrderOps, Ops{PA: 20, TreeAgg: 1, Local: 10}, Ops{PA: 42, TreeAgg: 1, Local: 21}},
		{"WeightsOps", WeightsOps, Ops{PA: 20, TreeAgg: 1, Local: 12}, Ops{PA: 42, TreeAgg: 1, Local: 23}},
		{"MarkPathOps", MarkPathOps, Ops{PA: 100, Local: 10}, Ops{PA: 441, Local: 21}},
		{"LCAOps", LCAOps, Ops{PA: 24, TreeAgg: 3, Local: 10}, Ops{PA: 46, TreeAgg: 3, Local: 21}},
		{"DetectFaceOps", DetectFaceOps, Ops{PA: 104, Local: 11}, Ops{PA: 445, Local: 22}},
		{"HiddenOps", HiddenOps, Ops{PA: 108, TreeAgg: 2, Local: 12}, Ops{PA: 449, TreeAgg: 2, Local: 23}},
		{"NotContainedOps", NotContainedOps, Ops{PA: 8, TreeAgg: 4, Local: 2}, Ops{PA: 8, TreeAgg: 4, Local: 2}},
		{"ReRootOps", ReRootOps, Ops{PA: 5, TreeAgg: 2}, Ops{PA: 5, TreeAgg: 2}},
		{"SeparatorOps", SeparatorOps, Ops{PA: 389, TreeAgg: 16, Local: 59}, Ops{PA: 1467, TreeAgg: 16, Local: 114}},
		{"JoinSubPhaseOps", JoinSubPhaseOps, Ops{PA: 163, TreeAgg: 7, Local: 30}, Ops{PA: 559, TreeAgg: 7, Local: 63}},
	} {
		if got := c.ops(1000); got != c.small {
			t.Errorf("%s(1000) = %+v, want %+v", c.name, got, c.small)
		}
		if got := c.ops(1 << 20); got != c.big {
			t.Errorf("%s(2^20) = %+v, want %+v", c.name, got, c.big)
		}
	}
}
