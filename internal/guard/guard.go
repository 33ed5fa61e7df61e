// Package guard is the input-validation subsystem that runs before the
// Theorem 2 pipeline: it rejects non-planar and corrupted-embedding inputs
// with typed, certifiable verdicts instead of letting them produce garbage
// output downstream.
//
// A validation run is a sequence of stages, each either a centralized
// precheck or a genuine CONGEST node program executed on the simulator
// (word-bounded payloads, measured rounds and messages):
//
//  1. shape / connectivity — centralized admission prechecks: a graph
//     with an edge, an embedding of the instance's own graph with an outer
//     dart of it, and one component.
//  2. planarity testing — a CONGEST property tester in the
//     Levi–Medina–Ron style with one-sided error: planar inputs are
//     always accepted; non-planar inputs are rejected when a concrete
//     witness is found — a global edge-count violation m > 3n-6
//     (folded distributively) or a dense sampled ball violating the
//     planar density bound. A deterministic centralized oracle
//     (OracleTest) recomputes the same decisions for cross-checking.
//  3. Euler count — the internal/cert embedding scheme run as a
//     first-class guard stage: the folded Euler characteristic of the
//     claimed rotation system must be exactly 2 (genus 0).
//
// The distributed stages fold once: the Euler labels are exchanged first,
// and one fold carries the degree sum, the Euler sum and the Euler accept
// bits. The verdicts are then read in stage order, so the first failing
// stage names the rejection.
//
// Rotations are checked once, before the guard runs: gen.Wire.Check
// rejects a wire rotation that is not a permutation of the vertex's
// neighbours, and the planar.Embedding constructors make every rotation
// of an embedding a permutation of its vertex's darts. The shape stage
// admits only an embedding of the instance's own graph, so the Euler
// count is the one embedding property left to certify.
//
// Verdicts are typed: a rejection carries a Witness naming the Reason and
// the concrete evidence (the dense ball, the edge count, the Euler sum),
// and converts to a RejectionError matching errors.Is(err, ErrRejected).
// One-sided error is a hard contract: a connected, correctly embedded
// planar instance is never rejected by any stage.
package guard

import (
	"errors"
	"fmt"

	"planardfs/internal/cert"
	"planardfs/internal/trace"
)

// Reason classifies a rejection. The values are stable strings (they are
// serialized into HTTP error payloads and corpus fixtures).
type Reason string

// The rejection taxonomy, ordered by the stage that detects it.
const (
	// ReasonShape: the input is structurally unusable (no graph, no
	// vertices or edges, no embedding, an embedding of another graph, or an outer dart
	// outside the embedding).
	ReasonShape Reason = "shape"
	// ReasonDisconnected: the graph is not connected; every downstream
	// stage (BFS aggregation, Euler formula) assumes connectivity.
	ReasonDisconnected Reason = "disconnected"
	// ReasonEdgeCount: the distributed degree sum shows m > 3n-6, which no
	// planar simple graph attains.
	ReasonEdgeCount Reason = "edge-count"
	// ReasonDenseRegion: a sampled ball induces a subgraph denser than the
	// planar bound — the K5/K3,3-ish local witness of the property tester.
	ReasonDenseRegion Reason = "dense-region"
	// ReasonEuler: the aggregated Euler characteristic of the claimed
	// rotation system is not 2 (genus > 0): the rotations are a valid
	// permutation system but not a planar embedding.
	ReasonEuler Reason = "euler"
)

// Witness is the concrete evidence attached to a rejection.
type Witness struct {
	Reason Reason `json:"reason"`
	// Detail is the human-readable account of the evidence.
	Detail string `json:"detail"`
	// Rejectors counts the rejecting verifier nodes of a distributed stage.
	Rejectors int `json:"rejectors,omitempty"`
	// N, M and Bound carry the numbers of a density/edge-count violation:
	// the (sub)graph has N vertices and M edges against the planar bound.
	N     int `json:"n,omitempty"`
	M     int `json:"m,omitempty"`
	Bound int `json:"bound,omitempty"`
	// Center and Radius identify the dense ball of a ReasonDenseRegion
	// witness.
	Center int `json:"center,omitempty"`
	Radius int `json:"radius,omitempty"`
	// EulerSum is the aggregated 2V-2E+2F total of a ReasonEuler witness
	// (4 on acceptance).
	EulerSum int `json:"eulerSum,omitempty"`
}

// ErrRejected is the sentinel every guard rejection matches:
// errors.Is(err, ErrRejected) distinguishes "the input is bad" from
// infrastructure failures.
var ErrRejected = errors.New("guard: input rejected")

// RejectionError is the typed error form of a rejection verdict.
type RejectionError struct {
	Witness Witness
}

// Error implements error.
func (e *RejectionError) Error() string {
	return fmt.Sprintf("guard: input rejected (%s): %s", e.Witness.Reason, e.Witness.Detail)
}

// Unwrap makes errors.Is(err, ErrRejected) hold for every rejection.
func (e *RejectionError) Unwrap() error { return ErrRejected }

// CheckResult records one validation stage of a verdict.
type CheckResult struct {
	// Name identifies the stage: "shape", "connectivity", "edge-count",
	// "density", "euler".
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	// Rounds and Messages are the CONGEST cost of the stage: measured
	// rounds and messages, plus the prover charge of the Euler stage's
	// certification (zero for centralized prechecks).
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
}

// Verdict is the outcome of a validation run. Stages run in order and stop
// at the first rejection, so Checks lists every stage that ran; the last
// entry of a rejecting verdict is the one that failed.
type Verdict struct {
	OK      bool          `json:"ok"`
	Witness *Witness      `json:"witness,omitempty"`
	Checks  []CheckResult `json:"checks"`
	// Rounds totals the round cost of every distributed stage that ran:
	// the measured rounds of each CONGEST run, plus the Euler stage's
	// prover charge under the paper cost model. The shared fold counts
	// once, on the edge-count check; the Euler prover charge and exchange,
	// which run ahead of it, count on the Euler check, or in the totals
	// alone when an earlier stage rejects. A traced validation advances
	// the trace clock by exactly Rounds. Messages totals the messages of
	// the CONGEST runs (the guard overhead the bench mode reports).
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`

	// vf is the certification context an accepting ValidateInstance
	// verdict validated on, until TakeVerifier hands it over.
	vf *cert.Verifier
}

// TakeVerifier hands over the certification context an accepting
// ValidateInstance verdict validated on: its network
// and round engine, its BFS tree from vertex 0, its fold program
// and its label-exchange programs, untraced until the new owner calls
// SetTracer. A build of the same graph certifies on it instead of building
// its own (pipeline.Options.Admitted). The verdict drops its reference, so
// the context has one owner and a kept verdict pins nothing; later calls,
// rejecting verdicts and ValidateGraph verdicts return nil. Like the
// Verifier, TakeVerifier is not safe for concurrent use.
func (v *Verdict) TakeVerifier() *cert.Verifier {
	vf := v.vf
	v.vf = nil
	return vf
}

// Err returns nil for an accepting verdict and the typed RejectionError
// otherwise.
func (v *Verdict) Err() error {
	if v.OK {
		return nil
	}
	w := Witness{Reason: ReasonShape, Detail: "rejected without witness"}
	if v.Witness != nil {
		w = *v.Witness
	}
	return &RejectionError{Witness: w}
}

// reject closes the current check as failed and stamps the witness.
func (v *Verdict) reject(w Witness) *Verdict {
	v.OK = false
	v.Witness = &w
	return v
}

// addCheck appends a stage record and folds its cost into the totals.
func (v *Verdict) addCheck(name string, ok bool, rounds int, messages int64) {
	v.Checks = append(v.Checks, CheckResult{Name: name, OK: ok, Rounds: rounds, Messages: messages})
	v.Rounds += rounds
	v.Messages += messages
}

// Options configure a validation run. The zero value runs the default
// tester budget (16 seeded centers, radius-1 balls) untraced.
type Options struct {
	// Tracer records guard spans and the underlying network rounds; nil
	// disables tracing.
	Tracer trace.Tracer

	// Seed derives the tester's min(n, 16) ball centers. The same seed
	// always samples the same centers, so verdicts are reproducible.
	Seed int64
	// Exhaustive sweeps every vertex as a ball center instead of sampling
	// — the deterministic mode the corpus gate and fixtures rely on.
	Exhaustive bool
}

// centers returns the effective center count for an n-vertex graph.
func (o Options) centers(n int) int {
	if o.Exhaustive {
		return n
	}
	return min(n, 16)
}
