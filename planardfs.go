// Package planardfs is a from-scratch Go implementation of
// "Deterministic Distributed DFS via Cycle Separators in Planar Graphs"
// (Jauregui, Montealegre, Rapaport — PODC 2025).
//
// The package exposes the paper's two headline results over embedded planar
// graphs:
//
//   - Theorem 1: deterministic computation of cycle separators — T-path
//     separators closed by a real or ℰ-compatible virtual edge, leaving
//     components of at most 2n/3 vertices — in Õ(D) CONGEST rounds,
//     partition-parallel (FindCycleSeparator, SeparatorsForPartition).
//   - Theorem 2: deterministic construction of a DFS tree in Õ(D) CONGEST
//     rounds, certified end to end by the pipeline around it (Run).
//
// Each result has one entry. FindCycleSeparator returns a separator the
// engine registry has validated, with the rounds its call charged; its
// region forms, SeparatorsForPartition and DecomposeGraph, run the same
// validated Theorem 1 engine on every part or piece. Run
// returns the certified DFS tree, with the rounds of its build
// (PipelineResult.DFSRounds, PipelineResult.Rounds). NewVerifier is the
// one certification context for outputs built elsewhere.
//
// Everything the algorithms depend on is implemented in this module:
// combinatorial planar embeddings with face tracing and Jordan
// classification, planar graph generators, rooted spanning-tree machinery
// with embedding-ordered DFS orders, the deterministic face-weight formulas
// of Definition 2, a CONGEST-model simulator with message-level programs
// (BFS, pipelined part-wise aggregation, Awerbuch's DFS baseline), the
// low-congestion-shortcut cost layer, and a randomized-estimation baseline.
//
// Round accounting: algorithms are executed as local computation plus
// invocations of the paper's communication primitives; CostModel converts a
// run's primitive tally into simulated rounds, under either the paper's
// charged Õ(D) shortcut bound (PaperCost) or the measured pipelined
// O(D + k) bound (PipelinedCost).
package planardfs

import (
	"context"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/dfs"
	"planardfs/internal/dist"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/guard"
	"planardfs/internal/pipeline"
	"planardfs/internal/planar"
	"planardfs/internal/separator"
	"planardfs/internal/sepengine"
	"planardfs/internal/serve"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
	"planardfs/internal/weights"
)

// Core re-exported types. Aliases keep the full method sets usable while the
// implementations live in internal packages.
type (
	// Graph is a simple undirected graph with stable edge identifiers.
	Graph = graph.Graph
	// Edge is an undirected vertex pair.
	Edge = graph.Edge
	// Embedding is a combinatorial planar embedding (clockwise rotation
	// system).
	Embedding = planar.Embedding
	// Instance is an embedded planar graph with a designated outer face.
	Instance = gen.Instance
	// Tree is a rooted spanning tree.
	Tree = spanning.Tree
	// Config is a planar configuration (G, ℰ, T) with precomputed DFS
	// orders, ready for weight and separator computations.
	Config = weights.Config
	// Separator is a cycle separator (a T-path with closing endpoints).
	Separator = separator.Separator
	// SeparatorPhase identifies which case of the algorithm produced a
	// separator.
	SeparatorPhase = separator.Phase
	// Partition is a vertex partition with connected parts.
	Partition = shortcut.Partition
	// DFSTrace records the phase structure of a DFS construction run.
	DFSTrace = dfs.Trace
	// CostModel converts communication primitives into CONGEST rounds.
	CostModel = shortcut.CostModel
	// PaperCost charges the deterministic Õ(D) shortcut bound the paper
	// cites.
	PaperCost = shortcut.PaperCost
	// PipelinedCost charges the measured pipelined-aggregation bound
	// O(D + k).
	PipelinedCost = shortcut.PipelinedCost
	// Ops tallies invocations of the communication primitives.
	Ops = dist.Ops
	// Network is a CONGEST-model simulator over a graph.
	Network = congest.Network
	// NetworkStats aggregates instrumentation of a CONGEST run.
	NetworkStats = congest.Stats
	// Tracer receives round-stamped spans and metrics from instrumented
	// runs (see internal/trace).
	Tracer = trace.Tracer
	// TraceRecorder is the in-memory Tracer with JSONL and Chrome
	// trace_event exporters.
	TraceRecorder = trace.Recorder
	// TraceSpan is one recorded span.
	TraceSpan = trace.SpanEvent
	// TraceHistogram is a fixed-bucket histogram from a recorder.
	TraceHistogram = trace.Histogram
)

// NewTraceRecorder returns an empty trace recorder. Pass it wherever a
// Tracer is accepted (SeparatorEngineOptions.Tracer, Network.Tracer,
// PipelineOptions.Tracer), then export with WriteJSONL, WriteChromeTrace
// or WriteMetrics.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// NopTracer is the disabled tracer: every instrumented call site treats it
// (or a nil Tracer) as "tracing off" and skips all recording work.
var NopTracer = trace.Nop

// Graph generators (all return validated embeddings with an outer face).
var (
	// NewGrid returns the w x h grid graph.
	NewGrid = gen.Grid
	// NewCycle returns the n-cycle.
	NewCycle = gen.Cycle
	// NewWheel returns the wheel with an n-cycle rim.
	NewWheel = gen.Wheel
	// NewFan returns the fan graph on n vertices.
	NewFan = gen.Fan
	// NewStackedTriangulation returns a random maximal planar graph.
	NewStackedTriangulation = gen.StackedTriangulation
	// NewSparsePlanar returns a random connected planar graph.
	NewSparsePlanar = gen.SparsePlanar
	// NewPolygonTriangulation returns a random outerplanar triangulation.
	NewPolygonTriangulation = gen.PolygonTriangulation
	// NewRandomTree returns a random tree.
	NewRandomTree = gen.RandomTree
	// NewPathTree returns the path graph.
	NewPathTree = gen.PathTree
	// NewCaterpillar returns a caterpillar tree.
	NewCaterpillar = gen.Caterpillar
)

// TreeKind selects the spanning tree used by a configuration: TreeBFS
// (depth <= D; the common choice) or TreeDeepDFS (depth up to Θ(n); the
// stress case the paper's subroutines are designed for).
type TreeKind = pipeline.TreeKind

// Spanning tree kinds.
const (
	TreeBFS     = pipeline.TreeBFS
	TreeDeepDFS = pipeline.TreeDeepDFS
)

// OuterRoot returns a vertex on the instance's outer face, the natural root
// for spanning trees (the paper requires the root on the outer face).
// in.OuterDart must be a dart of in.Emb (0 <= OuterDart < 2·M); the entry
// points that take the instance whole, such as Run and NewConfig, return
// an error for one out of range instead.
func OuterRoot(in *Instance) int {
	return in.Emb.FaceRoot(in.OuterDart)
}

// NewConfig builds a planar configuration over the instance with a spanning
// tree of the given kind rooted at root (which must lie on the outer face).
func NewConfig(in *Instance, kind TreeKind, root int) (*Config, error) {
	return pipeline.NewConfig(in, kind, root)
}

// Multi-backend separator engines (internal/sepengine): a registry of
// cycle-separator backends behind one interface — the paper's Theorem 1
// constructive engine, classical Lipton–Tarjan, the BFS-level engine in
// the style of Har-Peled–Nayyeri, a dual-tree weight-decomposition engine,
// and the sampling-estimation baseline. Every engine output is
// cross-validated by the centralized separator oracle and side oracle of
// internal/cert before it is returned.
type (
	// SeparatorEngineResult is a validated engine output: the separator,
	// side masks, balance, cycle length and charged round cost.
	SeparatorEngineResult = sepengine.Result
	// SeparatorEngineOptions carry per-call engine knobs (tracer, seed,
	// sampling rate, margin).
	SeparatorEngineOptions = sepengine.Options
)

// ErrNoSeparator marks a legitimate engine failure: the engine ran to
// completion without finding a balanced cycle separator. The default
// engine (theorem1) never returns it on valid planar configurations.
var ErrNoSeparator = sepengine.ErrNoSeparator

// NoSeparatorError is the diagnostic form of ErrNoSeparator: errors.As
// recovers the failing engine and its run statistics, such as the
// randomized engine's sample count.
type NoSeparatorError = sepengine.NoSeparatorError

// DefaultSeparatorEngine is the registry name of the Theorem 1 engine.
const DefaultSeparatorEngine = sepengine.DefaultEngine

// SeparatorEngines lists the registered engine names, sorted.
func SeparatorEngines() []string { return sepengine.Names() }

// FindCycleSeparator computes a validated cycle separator of the
// configuration's graph with the named engine; the empty name selects the
// Theorem 1 engine. The result carries the rounds the call charged.
// Unknown names return a typed error listing the available engines.
func FindCycleSeparator(cfg *Config, engine string, opts SeparatorEngineOptions) (*SeparatorEngineResult, error) {
	return sepengine.Find(engine, cfg, opts)
}

// SeparatorsForPartition computes a validated cycle separator of every
// part's induced subgraph with the Theorem 1 engine (the
// partition-parallel form of Theorem 1): the i-th separator is part i's,
// in the instance's vertex IDs. The partition must cover the instance, and
// each part must induce a connected subgraph.
func SeparatorsForPartition(in *Instance, part *Partition) ([]*Separator, error) {
	return separator.ForPartition(in.Emb, in.OuterDart, part, sepengine.Finder(theorem1))
}

// NewPartition builds a Partition from a part-of array (part IDs 0..k-1).
func NewPartition(partOf []int) (*Partition, error) {
	return shortcut.NewPartition(partOf)
}

// Decomposition is a recursive separator decomposition tree.
type Decomposition = separator.Decomposition

// DecompositionNode is one piece of a decomposition tree.
type DecompositionNode = separator.DecompositionNode

// DecomposeGraph recursively splits the instance with validated Theorem 1
// cycle separators until pieces have at most leafSize vertices — the
// divide-and-conquer skeleton of the classical separator applications. The
// tree depth is O(log n) by the 2/3 balance.
func DecomposeGraph(in *Instance, leafSize int) (*Decomposition, error) {
	return separator.Decompose(in.Emb, in.OuterDart, leafSize, sepengine.Finder(theorem1))
}

// theorem1 is the registry's Theorem 1 engine, which the region entries
// above run through sepengine.Finder, so every separator they return has
// passed the separator and side oracles. The default name always resolves.
var theorem1, _ = sepengine.Get(DefaultSeparatorEngine)

// VerifySeparatorBalance returns the largest component after removing the
// separator vertices; a valid separator has max component <= 2n/3.
func VerifySeparatorBalance(g *Graph, sep []int) int {
	return separator.VerifyBalance(g, sep)
}

// The Theorem 2 pipeline (internal/pipeline): one ordered stage list —
// admission guard → BFS spanning tree → supervised Theorem 2 DFS (separator
// engine, fault plan, certify-retry-degrade recovery) → whole-instance cycle
// separator → spanning/DFS/separator certification — behind one entry
// point. planard runs the same pipeline for every cold build.
type (
	// PipelineOptions configure a pipeline run; the zero value runs the
	// paper's defaults (no guard, Theorem 1 engine, fault-free, untraced).
	PipelineOptions = pipeline.Options
	// PipelineResult carries the per-stage reports of a run: the guard
	// verdict, the BFS tree, the recovery report and DFS trace, the
	// certified DFS tree, the separator and the certification verdicts.
	PipelineResult = pipeline.Result
)

// ErrUnrecovered reports a pipeline run whose DFS stage exhausted every
// supervised attempt without a certified tree; the result's Recovery
// report carries the attempts.
var ErrUnrecovered = pipeline.ErrUnrecovered

// ErrCertRejected reports a pipeline run whose spanning-tree or separator
// certificate was rejected by a verifier; the result's Verdicts carry
// every verdict.
var ErrCertRejected = pipeline.ErrCertRejected

// Run executes the Theorem 2 pipeline over the instance, rooted on its
// outer face (OuterRoot). A guard rejection is an error matching
// ErrInputRejected, a DFS stage that fails under faults is ErrUnrecovered,
// a rejected spanning-tree or separator certificate is ErrCertRejected,
// and cancelling ctx stops the run between stages and supervised attempts.
// On error the result still carries the reports of the stages that ran.
func Run(ctx context.Context, in *Instance, opts PipelineOptions) (*PipelineResult, error) {
	return pipeline.Run(ctx, in, opts)
}

// VerifyDFSTree checks the DFS property: parent must describe a spanning
// tree of g rooted at root in which every graph edge connects an
// ancestor-descendant pair.
func VerifyDFSTree(g *Graph, root int, parent []int) error {
	return dfs.IsDFSTree(g, root, parent)
}

// Distributed certification (internal/cert): proof-labeling schemes whose
// verifiers run on the CONGEST simulator — an O(log n)-bit label per vertex,
// an O(1)-round label exchange, and one part-wise aggregation of the
// verdicts.
type (
	// CertVerdict is the outcome of a certification run: global acceptance,
	// rejecting vertices, and round/label-size accounting.
	CertVerdict = cert.Verdict
	// CertOptions configure a certification run (engine selection, tracer).
	CertOptions = cert.Options
	// Verifier is the certification context of one graph.
	Verifier = cert.Verifier
)

// NewVerifier returns the certification context of g: its methods
// (CertifySpanningTree, CertifyDFSTree, CertifySeparator,
// CertifyEmbedding, …) prove and distributively verify one output each,
// sharing one round engine and one fold tree. A Verifier is not
// safe for concurrent use.
func NewVerifier(g *Graph, opt CertOptions) *Verifier { return cert.NewVerifier(g, opt) }

// AwerbuchRounds returns the round cost of the classical DFS baseline [2].
func AwerbuchRounds(n int) int { return dist.AwerbuchRounds(n) }

// RunAwerbuchDFS executes Awerbuch's token DFS as a real message-level
// CONGEST program and returns the resulting DFS parent array and the
// network statistics.
func RunAwerbuchDFS(g *Graph, root int) ([]int, NetworkStats, error) {
	if err := g.CheckVertex(root); err != nil {
		return nil, NetworkStats{}, err
	}
	nw := congest.New(g)
	parent, _, err := congest.RunAwerbuch(nw, root, 10*g.N()+100)
	if err != nil {
		return nil, NetworkStats{}, err
	}
	return parent, nw.Stats(), nil
}

// RunPartwiseSum executes the pipelined part-wise aggregation as a real
// message-level CONGEST program, summing value per part; it returns the
// per-vertex results and network statistics.
func RunPartwiseSum(g *Graph, root int, part *Partition, value []int) ([]int, NetworkStats, error) {
	res, err := shortcut.RunPA(g, root, part, value, congest.OpSum)
	if err != nil {
		return nil, NetworkStats{}, err
	}
	return res.Values, res.Stats, nil
}

// Deterministic fault injection and certified recovery (internal/chaos):
// seeded fault plans perturb CONGEST runs reproducibly, and the supervised
// runtime retries, degrades or fails explicitly — never returning an
// uncertified result. Run's DFS stage is supervised this way: pass a plan
// in PipelineOptions.Plan and read the report from PipelineResult.Recovery.
type (
	// FaultPlan is a deterministic fault scenario: explicit faults plus a
	// seeded randomized Spec, re-derived per recovery attempt.
	FaultPlan = chaos.Plan
	// FaultSpec sizes the randomized portion of a fault plan.
	FaultSpec = chaos.Spec
	// FaultCounts tallies faults that actually fired during a run.
	FaultCounts = chaos.Counts
	// RecoveryReport is the full account of a supervised run: terminal
	// outcome, per-attempt records, fired faults, and verdicts.
	RecoveryReport = chaos.Report
	// RecoveryOutcome classifies how a supervised run ended.
	RecoveryOutcome = chaos.Outcome
)

// The supervised outcomes re-exported from internal/chaos.
const (
	RecoveryCertified      = chaos.OutcomeCertified
	RecoveryCertifiedRetry = chaos.OutcomeCertifiedRetry
	RecoveryDegraded       = chaos.OutcomeDegraded
	RecoveryFailed         = chaos.OutcomeFailed
)

// NewFaultPlan returns a plan deriving spec-sized random faults from seed.
func NewFaultPlan(seed int64, spec FaultSpec) *FaultPlan {
	return chaos.NewPlan(seed, spec)
}

// ParseFaultSpec parses a CLI fault-spec string, e.g.
// "drops=2,corruptions=1,crashes=1,structural=4".
func ParseFaultSpec(s string) (FaultSpec, error) { return chaos.ParseSpec(s) }

// Input validation (internal/guard): the admission subsystem that runs
// before the Theorem 2 pipeline (hand its verdict to Run as
// PipelineOptions.Admitted) and rejects non-planar and
// corrupted-embedding inputs with typed, certifiable verdicts — shape and
// connectivity prechecks, then a one-sided-error CONGEST planarity property
// tester and the Euler-count certification, both as real node programs on
// the simulator.
type (
	// GuardVerdict is the outcome of a validation run: per-stage results
	// with measured CONGEST cost, and a witness on rejection.
	GuardVerdict = guard.Verdict
	// GuardWitness is the concrete evidence attached to a rejection.
	GuardWitness = guard.Witness
	// GuardOptions configure a validation run (tester seed, exhaustive
	// sweep, tracing).
	GuardOptions = guard.Options
	// GuardReason classifies a rejection (shape, disconnected, edge-count,
	// dense-region, euler).
	GuardReason = guard.Reason
	// GuardRejectionError is the typed error form of a rejecting verdict.
	GuardRejectionError = guard.RejectionError
)

// ErrInputRejected is the sentinel every guard rejection matches:
// errors.Is(err, ErrInputRejected) distinguishes "the input is bad" from
// infrastructure failures.
var ErrInputRejected = guard.ErrRejected

// ValidateEmbedding validates an instance's graph and claimed embedding
// end to end — shape (an embedding of the instance's own graph, with an
// outer dart of it) and connectivity prechecks, the planarity property
// tester, and the Euler-count certification. A bad input is a rejecting verdict (verdict.Err()
// returns the typed GuardRejectionError), not an error. An accepting
// verdict keeps the certification context it validated on until
// PipelineOptions.Admitted hands it to a Run of the same instance, which
// then certifies on it instead of building its own.
func ValidateEmbedding(in *Instance, opt GuardOptions) (*GuardVerdict, error) {
	return guard.ValidateInstance(in, opt)
}

// ValidatePlanarity validates a bare graph (no embedding claims) with the
// prechecks and the one-sided-error planarity tester: a connected planar
// graph is always accepted; a non-planar graph is rejected when an
// edge-count or dense-region witness is found.
func ValidatePlanarity(g *Graph, opt GuardOptions) (*GuardVerdict, error) {
	return guard.ValidateGraph(g, opt)
}

// Simulation-as-a-service (internal/serve): an embeddable HTTP job server
// that runs the separator/DFS/cert/chaos pipelines on a bounded worker
// pool and answers repeat queries from a content-addressed decomposition
// cache. Run standalone with cmd/planard, or mount a JobServer under any
// http mux.
type (
	// JobServer is the embeddable simulation service (an http.Handler).
	JobServer = serve.Server
	// JobServerOptions size a JobServer (workers, queue depth, cache
	// budget, admission limits).
	JobServerOptions = serve.Options
	// JobStatus is the lifecycle view of one submitted job.
	JobStatus = serve.JobStatus
	// JobRequest is the POST /v1/jobs submission body.
	JobRequest = serve.JobRequest
)

// NewJobServer starts a simulation job server; stop it with Shutdown.
func NewJobServer(opts JobServerOptions) *JobServer { return serve.New(opts) }

// CanonicalGraphBytes returns the canonical byte encoding of an instance —
// the deterministic serialization whose SHA-256 (GraphContentHash) keys
// the serve layer's decomposition cache.
func CanonicalGraphBytes(in *Instance) []byte { return gen.CanonicalBytes(in) }

// GraphContentHash returns the content address of an instance (lowercase
// hex SHA-256 of CanonicalGraphBytes).
func GraphContentHash(in *Instance) string { return gen.ContentHash(in) }

// BFSLevelSeparator returns the classical Lipton-Tarjan first-step
// baseline: the median BFS level.
func BFSLevelSeparator(g *Graph, root int) []int {
	return separator.BFSLevelSeparator(g, root)
}
