package dist

import (
	"planardfs/internal/shortcut"
	"planardfs/internal/trace"
)

// Meter bridges the round-accounting layer and the tracing subsystem: it
// converts an Ops tally into round-clock advances under a cost model and
// records the invocation as a span carrying its charged cost, with one
// child span per communication primitive on the primitive layer.
//
// A nil *Meter is valid and records nothing, so call sites thread it
// through unconditionally.
//
// Every primitive is charged at k = 1, the part count the separator
// and DFS round tallies (Result.Rounds, Result.DFSRounds) are priced at.
type Meter struct {
	Tr trace.Tracer
	CM shortcut.CostModel
}

// NewMeter returns a meter over tr, or nil when tr is nil or disabled.
func NewMeter(tr trace.Tracer, cm shortcut.CostModel) *Meter {
	if tr == nil || !tr.Enabled() {
		return nil
	}
	return &Meter{Tr: tr, CM: cm}
}

// On reports whether the meter records anything.
func (m *Meter) On() bool { return m != nil && m.Tr != nil && m.Tr.Enabled() }

// Start opens a span on the layer without advancing the clock; the caller
// owns ending it. Safe on a nil meter.
func (m *Meter) Start(layer trace.Layer, name string) trace.Span {
	if !m.On() {
		return trace.Nop.StartSpan(layer, name)
	}
	return m.Tr.StartSpan(layer, name)
}

// Charge records one completed subroutine invocation: a span on the given
// layer covering the rounds the cost model charges for ops, tiled by one
// child span per primitive kind (part-wise aggregation, tree aggregation,
// local exchange), each advancing the round clock by its share. Extra
// attributes (typically measured quantities like phase counts) attach to
// the subroutine span, so every span carries charged cost and measured
// structure side by side.
func (m *Meter) Charge(layer trace.Layer, name string, ops Ops, attrs ...trace.Attr) {
	if !m.On() {
		return
	}
	tr := m.Tr
	sp := tr.StartSpan(layer, name)
	// Counter names are constants: building them per charge would cost
	// two string allocations per primitive on every traced subroutine.
	prim := func(pname, opsName, roundsName string, count int, op shortcut.Op) {
		if count == 0 {
			return
		}
		rounds := int64(count * m.CM.Cost(op, 1))
		ps := tr.StartSpan(trace.LayerPrimitive, pname)
		ps.SetAttr("count", int64(count))
		ps.SetAttr("rounds", rounds)
		tr.Advance(rounds)
		ps.End()
		tr.Count(opsName, int64(count))
		tr.Count(roundsName, rounds)
	}
	prim("pa", "ops.pa", "rounds.pa", ops.PA, shortcut.OpPA)
	prim("treeagg", "ops.treeagg", "rounds.treeagg", ops.TreeAgg, shortcut.OpTreeAgg)
	prim("local", "ops.local", "rounds.local", ops.Local, shortcut.OpLocal)
	charged := int64(ops.Rounds(m.CM, 1))
	sp.SetAttr("charged_rounds", charged)
	for _, a := range attrs {
		sp.SetAttr(a.Key, a.Val)
	}
	sp.End()
	tr.Count("rounds.charged", charged)
	tr.Observe("rounds.per_invocation", charged)
}
