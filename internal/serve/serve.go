// Package serve turns the planardfs library into a long-running service:
// an HTTP job server that runs the paper's separator/DFS/cert/chaos
// pipelines asynchronously on a bounded worker pool and answers repeat
// queries from a content-addressed decomposition cache.
//
// Architecture (DESIGN.md §12):
//
//   - POST /v1/jobs submits a simulation job (generator family+seed or an
//     inline instance). Admission control is a bounded queue: when it is
//     full the server sheds load with 429 and a Retry-After estimate
//     instead of buffering unboundedly.
//   - A fixed pool of workers drains the queue. Each job runs the
//     Theorem 2 pipeline under the supervised recovery runtime
//     (internal/chaos), so a faulty or adversarial job degrades or fails
//     explicitly instead of wedging the process.
//   - Completed decompositions are cached in an LRU keyed by the
//     canonical content hash of the instance (internal/gen
//     CanonicalBytes → SHA-256) under a byte budget, with single-flight
//     coalescing of concurrent builds of the same graph.
//   - GET /v1/graphs/{hash}/query/... answers LCA, DFS-order, separator
//     and certification queries directly from the cached structures in
//     microseconds — the "compute once, revalidate cheaply" path the
//     proof-labeling machinery was built for.
//   - GET /v1/jobs/{id}/trace streams the job's round-stamped span tree
//     as JSONL; GET /v1/metrics serves a consistent, defensively copied,
//     sorted-key snapshot of the server metrics registry.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/trace"
)

// Options size the server. The zero value is usable: see the defaults.
type Options struct {
	// Workers is the worker-pool size; 0 means 2.
	Workers int
	// QueueDepth bounds the job queue (admission control); 0 means 64.
	QueueDepth int
	// CacheBytes is the decomposition cache budget; 0 means 256 MiB,
	// negative means unbounded.
	CacheBytes int64
	// MaxN caps the vertex count of generator jobs; 0 means 1<<20.
	MaxN int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	if o.MaxN <= 0 {
		o.MaxN = 1 << 20
	}
	return o
}

// Server is the embeddable simulation service: an http.Handler plus the
// worker pool and cache behind it. Create with New, embed under any mux
// or run standalone (cmd/planard), and stop with Shutdown.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	metrics *trace.Recorder
	store   *store

	queue chan *job
	quit  chan struct{}
	wg    sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	draining  atomic.Bool
	closeOnce sync.Once

	jobsMu sync.Mutex
	jobs   map[string]*job
	nextID int64

	// testJobGate, when set by white-box tests, makes every worker block
	// here before executing a job — the deterministic way to hold the
	// queue full for backpressure assertions.
	testJobGate chan struct{}
}

// New starts a server: the worker pool runs until Shutdown.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		mux:        http.NewServeMux(),
		metrics:    trace.NewRecorder(),
		queue:      make(chan *job, opts.QueueDepth),
		quit:       make(chan struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
	}
	s.store = newStore(opts.CacheBytes, s.metrics)
	s.routes()
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics exposes the server's metrics registry (counters, gauges and
// latency histograms) for embedding hosts and benchmarks.
func (s *Server) Metrics() *trace.Recorder { return s.metrics }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the server: new jobs are rejected with 503 immediately,
// queued and in-flight jobs keep running until done or until ctx expires,
// at which point they are cancelled (their supervised retries stop
// mid-flight) and Shutdown returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.closeOnce.Do(func() { close(s.quit) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// routes wires the endpoint table.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/graphs/{hash}", s.handleGraphSummary)
	s.mux.HandleFunc("GET /v1/graphs/{hash}/query/{kind}", s.handleGraphQuery)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
}

// httpError is the uniform error body. Field locates a malformed request
// field (decode-time 400s); Witness carries the guard's typed rejection
// evidence (semantic 422s).
type httpError struct {
	Error   string         `json:"error"`
	Field   string         `json:"field,omitempty"`
	Witness *guard.Witness `json:"witness,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, httpError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /v1/jobs: validate, admit, enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := nowNanos()
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// The body is one object: anything but whitespace after it, a second
	// value or a stray '}' included, is a malformed request.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		writeErr(w, http.StatusBadRequest, "bad request body: data after the request object")
		return
	}
	if err := req.validate(s.opts.MaxN); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	inline, admitted, ok := s.admitInline(w, &req)
	if !ok {
		return
	}
	req.Graph = nil // decoded into inline; the job table keeps no raw bytes

	s.jobsMu.Lock()
	s.nextID++
	j := &job{
		id:         fmt.Sprintf("j%d", s.nextID),
		req:        req,
		rec:        trace.NewRecorder(),
		in:         inline,
		admitted:   admitted,
		state:      StateQueued,
		enqueuedNS: nowNanos(),
	}
	s.jobs[j.id] = j
	s.jobsMu.Unlock()

	select {
	case s.queue <- j:
	default:
		// Admission control: the queue is full; shed load with a hint.
		s.jobsMu.Lock()
		delete(s.jobs, j.id)
		s.jobsMu.Unlock()
		j.takeAdmitted()
		s.metrics.Count("serve.jobs.rejected", 1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeErr(w, http.StatusTooManyRequests,
			"job queue full (%d queued); retry later", s.opts.QueueDepth)
		return
	}
	s.metrics.Count("serve.jobs.submitted", 1)
	s.metrics.SetGauge("serve.queue.depth", int64(len(s.queue)))
	s.metrics.Observe("serve.latency.submit_us", sinceMicros(start))
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.status())
}

// admitInline decodes, field-checks and guard-validates an inline graph
// submission before it consumes a queue slot, writing the rejection and
// returning ok=false on any violation: a malformed body is a 400 naming
// the offending field, a structurally well-formed but non-planar or
// corrupted-embedding graph is a 422 carrying the guard's typed witness.
// Generator requests pass through untouched (their instances are valid by
// construction). On admission the decoded instance is returned so the
// worker never re-parses the raw bytes, with the accepting verdict, whose
// certification context the build adopts.
func (s *Server) admitInline(w http.ResponseWriter, req *JobRequest) (*gen.Instance, *guard.Verdict, bool) {
	if len(req.Graph) == 0 {
		return nil, nil, true
	}
	wire, err := gen.DecodeWire(req.Graph)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "graph: %v", err)
		return nil, nil, false
	}
	if wire.N > s.opts.MaxN {
		writeJSON(w, http.StatusBadRequest, httpError{
			Error: fmt.Sprintf("graph: n = %d exceeds the server limit %d", wire.N, s.opts.MaxN),
			Field: "n",
		})
		return nil, nil, false
	}
	if err := wire.Check(); err != nil {
		body := httpError{Error: err.Error()}
		var fe *gen.FieldError
		if errors.As(err, &fe) {
			body.Field = fe.Field
			if fe.Index >= 0 {
				body.Field = fmt.Sprintf("%s[%d]", fe.Field, fe.Index)
			}
		}
		s.metrics.Count("serve.jobs.malformed", 1)
		writeJSON(w, http.StatusBadRequest, body)
		return nil, nil, false
	}
	in, err := wire.Build()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "graph: %v", err)
		return nil, nil, false
	}
	verdict, err := guard.ValidateInstance(in, guard.Options{Seed: 1})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "guard: %v", err)
		return nil, nil, false
	}
	if !verdict.OK {
		s.metrics.Count("serve.jobs.rejected_input", 1)
		writeJSON(w, http.StatusUnprocessableEntity, httpError{
			Error:   fmt.Sprintf("graph rejected (%s): %s", verdict.Witness.Reason, verdict.Witness.Detail),
			Witness: verdict.Witness,
		})
		return nil, nil, false
	}
	return in, verdict, true
}

// retryAfterSeconds estimates the backoff hint from the recent build
// latency: a full queue drains in about depth × mean build time / workers.
func (s *Server) retryAfterSeconds() int {
	h := s.metrics.Histogram("serve.latency.build_ms")
	meanMS := 1000.0
	if h != nil && h.N > 0 {
		meanMS = h.Mean()
	}
	sec := int(meanMS*float64(s.opts.QueueDepth)/float64(s.opts.Workers)/1000 + 1)
	if sec < 1 {
		sec = 1
	}
	if sec > 300 {
		sec = 300
	}
	return sec
}

// lookupJob resolves {id} or writes 404.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.jobsMu.Lock()
	j := s.jobs[id]
	s.jobsMu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return nil
	}
	return j
}

// handleJobGet is GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleJobCancel is DELETE /v1/jobs/{id}: a queued job is canceled in
// place (workers skip it); a running job has its context cancelled, which
// stops supervised retries mid-flight. Terminal jobs are left unchanged.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.doneNS = nowNanos()
		j.admitted = nil
		s.metrics.Count("serve.jobs.canceled", 1)
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobTrace is GET /v1/jobs/{id}/trace: the job's recorded spans,
// metrics and samples as JSONL (internal/trace export format). The
// recorder is internally synchronized, so streaming a running job yields
// a consistent prefix of its trace.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	if err := j.rec.WriteJSONL(w); err != nil {
		// Too late for a status change; the connection is gone.
		return
	}
}

// handleMetrics is GET /v1/metrics: one consistent snapshot, taken under
// a single recorder lock and deep-copied, so concurrent scrapes never race
// the writers and two scrapes of an idle server are byte-identical
// (sections are name-sorted lists, never Go maps).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.MetricsSnapshot())
}

// handleHealth is GET /v1/healthz.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	state := "ok"
	if s.draining.Load() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": state})
}
