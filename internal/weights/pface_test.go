package weights

import (
	"testing"
)

// TestPFaceMatchesGroundTruth validates the locally computable p_{F_e}(x)
// (the endpoint cone sums) against the geometric count |T_x ∩ F̊_e| for
// every fundamental edge endpoint.
func TestPFaceMatchesGroundTruth(t *testing.T) {
	for ci, cfg := range configsUnderTest(t) {
		for _, e := range cfg.FundamentalEdges() {
			ec := cfg.Classify(e)
			inside, _, err := cfg.GroundTruthInside(ec.U, ec.V)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []int{ec.U, ec.V} {
				want := 0
				for z := 0; z < cfg.G.N(); z++ {
					if !inside[z] || !cfg.Tree.IsAncestor(x, z) || z == x {
						continue
					}
					// For an ancestor-case U, Definition 2's p counts only
					// the cone subtrees hanging off U itself — the interior
					// below the path child Z is accounted by the order
					// interval term instead (see Lemma 4's accounting).
					if ec.Z >= 0 && x == ec.U && cfg.Tree.IsAncestor(ec.Z, z) {
						continue
					}
					want++
				}
				if got := cfg.PFace(ec, x); got != want {
					t.Fatalf("cfg %d edge %d-%d endpoint %d: PFace %d, geometric %d",
						ci, ec.U, ec.V, x, got, want)
				}
			}
		}
	}
}

// TestCanonicalOrder checks the canonicalization invariant PiL[U] < PiL[V]
// and that the path child Z is set exactly on the ancestor edges.
func TestCanonicalOrder(t *testing.T) {
	for _, cfg := range configsUnderTest(t) {
		for _, e := range cfg.FundamentalEdges() {
			ec := cfg.Classify(e)
			if cfg.PiL[ec.U] >= cfg.PiL[ec.V] {
				t.Fatalf("canonical order violated at edge %d", e)
			}
			if (ec.Z >= 0) != cfg.Tree.IsAncestor(ec.U, ec.V) {
				t.Fatalf("ancestor case (Z >= 0) wrong at edge %d", e)
			}
			if ec.Z >= 0 && cfg.Tree.Parent[ec.Z] != ec.U {
				t.Fatalf("path child wrong at edge %d", e)
			}
			if cfg.Tree.IsAncestor(ec.V, ec.U) {
				t.Fatalf("descendant canonicalized as U at edge %d", e)
			}
		}
	}
}

// TestWeightBoundsInside checks Lemma 5's usable inequality: the weight is
// at least the strict inside count and at most inside + border.
func TestWeightBoundsInside(t *testing.T) {
	for ci, cfg := range configsUnderTest(t) {
		for _, e := range cfg.FundamentalEdges() {
			ec := cfg.Classify(e)
			inside := len(cfg.InsideNodes(ec))
			border := len(cfg.BorderNodes(ec))
			w := cfg.Weight(e)
			if w < inside || w > inside+border {
				t.Fatalf("cfg %d edge %d: weight %d outside [inside=%d, inside+border=%d]",
					ci, e, w, inside, inside+border)
			}
		}
	}
}
