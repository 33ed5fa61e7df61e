// Package trace is the structured observability subsystem of the CONGEST
// stack: hierarchical spans, counters, gauges and fixed-bucket histograms,
// exported as JSONL event logs or Chrome trace_event files.
//
// The subsystem is deterministic by construction. Spans are stamped with a
// virtual round clock — the simulated CONGEST round count — never with wall
// time, so two runs of the same seeded workload produce byte-identical
// exports. The clock is advanced explicitly by the instrumented layers: the
// message-level simulator advances it one round at a time, the charged
// layers (separator phases, lemma subroutines, communication primitives)
// advance it by the round cost their cost model assigns.
//
// The package has no dependencies beyond the standard library and costs
// nothing when disabled: Nop implements Tracer with empty methods, and every
// instrumented hot path guards its bookkeeping behind Enabled(). A hot path
// that emits many metric events collects them in a Batch and hands them
// over in one Merge call.
package trace

// Layer identifies the algorithm layer a span belongs to. Each layer is
// rendered as one "thread" row in the Chrome trace_event export, so a run
// opens in Perfetto as a stacked timeline: network rounds at the bottom,
// the DFS driver at the top.
type Layer int

// The instrumented layers, bottom-up.
const (
	// LayerNetwork is one message-level CONGEST round.
	LayerNetwork Layer = iota
	// LayerPrimitive is one block of communication-primitive invocations
	// (part-wise aggregation, tree aggregation, local exchange).
	LayerPrimitive
	// LayerLemma is one separator engine call's charge (its tally of
	// lemma subroutines of Sections 5.2/6.1: DFS-ORDER, MARK-PATH,
	// DETECT-FACE, HIDDEN, spanning forest, ...).
	LayerLemma
	// LayerSeparator is a DFS phase's charge for its components'
	// separators.
	LayerSeparator
	// LayerDFS is one recursion phase of the Theorem 2 DFS driver, or its
	// JOIN charge.
	LayerDFS
	// LayerCert is one certification phase (prover labelling, verifier
	// label exchange, verdict aggregation) of internal/cert.
	LayerCert
	// LayerChaos is one supervised-recovery phase of internal/chaos (a
	// produce/certify attempt, a fallback switch, a terminal report).
	LayerChaos

	numLayers
)

func (l Layer) String() string {
	switch l {
	case LayerNetwork:
		return "network"
	case LayerPrimitive:
		return "primitive"
	case LayerLemma:
		return "lemma"
	case LayerSeparator:
		return "separator"
	case LayerDFS:
		return "dfs"
	case LayerCert:
		return "cert"
	case LayerChaos:
		return "chaos"
	}
	return "unknown"
}

// Attr is one span attribute. Attributes are integer-valued: everything the
// stack reports (rounds, message counts, sizes, phase identifiers) is a
// count, and integer attributes keep exports bit-reproducible.
type Attr struct {
	Key string
	Val int64
}

// Span is an open interval on the round clock. SetAttr attaches a key/value
// pair; End closes the span at the current clock. Methods on a span from
// Nop are no-ops.
type Span interface {
	SetAttr(key string, val int64)
	End()
}

// Tracer is the instrumentation sink threaded through the execution layers.
// Implementations: *Recorder (records everything) and Nop (records
// nothing). All methods must be safe for concurrent use.
type Tracer interface {
	// Enabled reports whether the tracer records anything; hot paths guard
	// per-event bookkeeping behind it.
	Enabled() bool
	// StartSpan opens a span on the layer at the current round clock.
	// Spans nest: a span started while another is open becomes its child.
	StartSpan(layer Layer, name string) Span
	// Advance moves the virtual round clock forward by d rounds.
	Advance(d int64)
	// Now returns the current round clock.
	Now() int64
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// SetGauge sets the named gauge to val.
	SetGauge(name string, val int64)
	// Observe adds val to the named fixed-bucket histogram.
	Observe(name string, val int64)
	// Sample appends a (round, val) point to the named time series,
	// rendered as a counter track in the Chrome export.
	Sample(name string, val int64)
	// Merge applies a batch of metric updates at once, with the effect of
	// the Count, Observe and Sample calls the batch stands for (see
	// Batch).
	Merge(b Batch)
}

// Batch is a set of metric updates that a hot path collects without the
// tracer and hands over in one Merge call, instead of one locked call per
// event. Merging it has the effect of the per-event calls it stands for:
//
//   - Counts: Count(Name, Value) for each entry;
//   - Hists: one Observe(Name, v) for every observation each histogram
//     holds, so a histogram with no observations changes nothing. Each
//     must have DefaultBounds, the buckets Observe uses (its Mean is
//     ignored);
//   - Series: a Sample(Name, p.Val) for each point, made when the clock
//     read p.Round.
//
// The tracer copies what it keeps, so the caller may reuse the batch's
// storage once Merge returns.
type Batch struct {
	Counts []NamedValue
	Hists  []NamedHistogram
	Series []NamedSeries
}

// NamedSeries is a run of time-series points of one name.
type NamedSeries struct {
	Name   string
	Points []SamplePoint
}

// Nop is the disabled tracer: every method is empty, Enabled is false.
var Nop Tracer = nopTracer{}

// OrNop returns t, or Nop when t is nil, so call sites never need a nil
// check.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop
	}
	return t
}

type nopTracer struct{}

type nopSpan struct{}

func (nopSpan) SetAttr(string, int64) {}
func (nopSpan) End()                  {}

func (nopTracer) Enabled() bool                { return false }
func (nopTracer) StartSpan(Layer, string) Span { return nopSpan{} }
func (nopTracer) Advance(int64)                {}
func (nopTracer) Now() int64                   { return 0 }
func (nopTracer) Count(string, int64)          {}
func (nopTracer) SetGauge(string, int64)       {}
func (nopTracer) Observe(string, int64)        {}
func (nopTracer) Sample(string, int64)         {}
func (nopTracer) Merge(Batch)                  {}
