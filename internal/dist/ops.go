// Package dist is the round cost model of the paper's algorithms: the
// Ops tally of communication primitives, the price of every distributed
// subroutine of Sections 5.2 and 6.1 (Lemmas 9-19) as an Ops line, and the
// Meter that charges a tally to a trace.
//
// No subroutine is run here. The separator and DFS drivers compute their
// outputs centrally and charge the Ops lines of the lemmas they stand for;
// each line counts the primitive invocations of the lemma's phase
// structure. Three primitives carry every price, with the per-invocation
// round cost given by a shortcut.CostModel:
//
//   - OpPA: one part-wise aggregation or part-wide broadcast (Prop. 4);
//   - OpTreeAgg: one ancestor/descendant sum over per-part spanning trees
//     (Prop. 5);
//   - OpLocal: one round of exchange with direct neighbours.
//
// The Ops tally of a run, composed with a cost model (the paper's charged
// Õ(D) bound or the measured pipelined O(D+k) bound), gives the simulated
// round count reported by the experiments.
package dist

import (
	"planardfs/internal/shortcut"
)

// Ops tallies invocations of the communication primitives.
type Ops struct {
	PA      int // part-wise aggregations / broadcasts
	TreeAgg int // ancestor/descendant sums
	Local   int // direct neighbour exchange rounds
}

// Plus returns the sum of two tallies.
func (o Ops) Plus(p Ops) Ops {
	return Ops{PA: o.PA + p.PA, TreeAgg: o.TreeAgg + p.TreeAgg, Local: o.Local + p.Local}
}

// Times returns the tally scaled by a repetition count.
func (o Ops) Times(k int) Ops {
	return Ops{PA: o.PA * k, TreeAgg: o.TreeAgg * k, Local: o.Local * k}
}

// Rounds converts the tally into rounds under the cost model, with k
// concurrent parts.
func (o Ops) Rounds(cm shortcut.CostModel, k int) int {
	return o.PA*cm.Cost(shortcut.OpPA, k) +
		o.TreeAgg*cm.Cost(shortcut.OpTreeAgg, k) +
		o.Local*cm.Cost(shortcut.OpLocal, k)
}

// log2Ceil is shortcut.Log2Ceil re-exported for internal use.
func log2Ceil(x int) int { return shortcut.Log2Ceil(x) }

// Per-lemma operation counts. Each reflects the phase structure proven in
// the paper; constants are the number of primitive invocations per phase in
// our driver.

// SpanningForestOps is Lemma 9: Borůvka over low-congestion shortcuts,
// O(log n) merge iterations, each a constant number of PA calls.
func SpanningForestOps(n int) Ops {
	return Ops{PA: 3 * log2Ceil(n+1), Local: log2Ceil(n + 1)}
}

// PAProblemOps is one problem of Lemma 10 (MIN/MAX/SUM/RANGE/ANCESTOR/
// DESCENDANT): a constant number of PA and tree-aggregation calls.
func PAProblemOps() Ops { return Ops{PA: 2, TreeAgg: 1} }

// DFSOrderOps is Lemma 11: ceil(log2 n) fragment-merge phases, each a
// constant number of PA broadcasts plus one local exchange, after one
// subtree-size tree aggregation.
func DFSOrderOps(n int) Ops {
	l := log2Ceil(n + 1)
	return Ops{PA: 2 * l, TreeAgg: 1, Local: l}
}

// WeightsOps is Lemma 12: the DFS orders plus one local exchange per
// fundamental edge endpoint pair.
func WeightsOps(n int) Ops {
	return DFSOrderOps(n).Plus(Ops{Local: 2})
}

// MarkPathOps is Lemma 13: O(log n) phases of O(log n) fragment-merge
// iterations, each one PA broadcast.
func MarkPathOps(n int) Ops {
	l := log2Ceil(n + 1)
	return Ops{PA: l * l, Local: l}
}

// LCAOps is Lemma 14: DFS orders plus a constant number of PA problems.
func LCAOps(n int) Ops {
	return DFSOrderOps(n).Plus(PAProblemOps().Times(2))
}

// DetectFaceOps is Lemma 15: mark the border path, broadcast the endpoint
// intervals, decide locally.
func DetectFaceOps(n int) Ops {
	return MarkPathOps(n).Plus(Ops{PA: 4, Local: 1})
}

// HiddenOps is Lemma 16: detect the face, broadcast the target leaf's
// position, one local exchange.
func HiddenOps(n int) Ops {
	return DetectFaceOps(n).Plus(PAProblemOps().Times(2)).Plus(Ops{Local: 1})
}

// NotContainedOps is Lemma 17 (and 18): a constant number of MIN/MAX and
// ancestor problems plus local exchanges.
func NotContainedOps(n int) Ops {
	return PAProblemOps().Times(4).Plus(Ops{Local: 2})
}

// ReRootOps is Lemma 19: ancestor/descendant problems plus one broadcast.
func ReRootOps(n int) Ops {
	return PAProblemOps().Times(2).Plus(Ops{PA: 1})
}

// SeparatorOps is the Theorem 1 driver (Section 5.3): precomputation
// (embedding is charged one PA surrogate; per-part spanning forests; DFS
// orders; weights; subtree sizes) plus the per-phase subroutine budget.
// All parts run in parallel, so this is charged once per separator phase
// regardless of the number of parts.
func SeparatorOps(n int) Ops {
	ops := Ops{PA: 1}                       // planar embedding (Prop. 1, charged)
	ops = ops.Plus(SpanningForestOps(n))    // Lemma 9
	ops = ops.Plus(WeightsOps(n))           // Lemmas 11-12
	ops = ops.Plus(PAProblemOps())          // subtree sizes / part sizes
	ops = ops.Plus(PAProblemOps().Times(3)) // phases 2-3 range queries
	ops = ops.Plus(NotContainedOps(n))      // phase 4/5 edge selection
	ops = ops.Plus(DetectFaceOps(n))        // phase 4 face detection
	ops = ops.Plus(PAProblemOps())          // augmentation range query
	ops = ops.Plus(HiddenOps(n))            // phase 4.1 hidden problem
	ops = ops.Plus(NotContainedOps(n))      // hidden fallback edge selection
	ops = ops.Plus(MarkPathOps(n))          // final separator marking
	return ops
}

// JoinSubPhaseOps is one sub-phase of Lemma 2: per-component spanning
// forest, re-rooting, leaf/LCA discovery, path marking and attachment.
func JoinSubPhaseOps(n int) Ops {
	ops := SpanningForestOps(n)
	ops = ops.Plus(ReRootOps(n))
	ops = ops.Plus(LCAOps(n))
	ops = ops.Plus(PAProblemOps().Times(2))
	ops = ops.Plus(MarkPathOps(n)) // mark and attach the chosen path
	return ops
}

// DFSPhaseOps is one recursion phase of the Theorem 2 driver, in its two
// parts: one partition-parallel separator computation for every remaining
// component, and the deepest join's sub-phases (the joins of distinct
// components run in parallel, so the deepest join dominates).
func DFSPhaseOps(n, maxJoinSubPhases int) (separator, join Ops) {
	return SeparatorOps(n), JoinSubPhaseOps(n).Times(maxJoinSubPhases)
}

// DFSBuildOps is the Theorem 2 driver: phases × DFSPhaseOps.
func DFSBuildOps(n, phases, maxJoinSubPhases int) Ops {
	sep, join := DFSPhaseOps(n, maxJoinSubPhases)
	return sep.Plus(join).Times(phases)
}

// AwerbuchRounds is the baseline of [2]: the token crosses every tree edge
// twice, one round per move.
func AwerbuchRounds(n int) int { return 2*(n-1) + 1 }
