package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"planardfs/internal/chaos"
	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/sepengine"
	"planardfs/internal/trace"
)

// JobState is the lifecycle state of a submitted job.
type JobState string

// The job lifecycle: queued → running → {done, failed, canceled}. A
// queued job can be canceled before it ever runs.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// JobRequest is the POST /v1/jobs body. Exactly one of Family or Graph
// selects the instance: Family+N+Seed runs a deterministic generator,
// Graph carries an inline instance in the gen JSON schema (same shape as
// planargen output).
type JobRequest struct {
	// Family is a generator family name (gen.Families).
	Family string `json:"family,omitempty"`
	// N is the approximate vertex count for generator jobs.
	N int `json:"n,omitempty"`
	// Seed disambiguates randomized families; deterministic families
	// ignore it (and it does not enter the content hash).
	Seed int64 `json:"seed,omitempty"`
	// Graph is an inline instance (gen JSON schema).
	Graph json.RawMessage `json:"graph,omitempty"`
	// ChaosSpec optionally injects deterministic faults into the build,
	// e.g. "structural=2,drops=1"; the supervised runtime retries or
	// degrades, never serving an uncertified decomposition.
	ChaosSpec string `json:"chaosSpec,omitempty"`
	// ChaosSeed seeds the fault plan; used only with ChaosSpec.
	ChaosSeed int64 `json:"chaosSeed,omitempty"`
	// MaxAttempts bounds the supervised retries (0 = runtime default).
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// Engine selects the separator backend for the whole-instance cycle
	// separator (internal/sepengine registry); empty runs the default
	// Theorem 1 engine. Non-default engines key the decomposition cache as
	// hash:engine, so per-engine results never alias the default's.
	Engine string `json:"engine,omitempty"`
}

// validate rejects malformed requests before they consume a queue slot.
func (r *JobRequest) validate(maxN int) error {
	hasGen := r.Family != ""
	hasInline := len(r.Graph) > 0
	if hasGen == hasInline {
		return errors.New("exactly one of family or graph is required")
	}
	if hasGen {
		if r.N < 3 {
			return fmt.Errorf("generator jobs need n >= 3, got %d", r.N)
		}
		if r.N > maxN {
			return fmt.Errorf("n = %d exceeds the server limit %d", r.N, maxN)
		}
		known := false
		for _, f := range gen.Families {
			if f == r.Family {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("unknown family %q (know %v)", r.Family, gen.Families)
		}
	}
	if r.ChaosSpec != "" {
		if _, err := chaos.ParseSpec(r.ChaosSpec); err != nil {
			return err
		}
	}
	if _, err := sepengine.Get(r.Engine); err != nil {
		return err
	}
	return nil
}

// instance materializes the requested instance. Generator jobs re-derive
// the same instance (and therefore the same content hash) for the same
// (family, n, seed).
func (r *JobRequest) instance() (*gen.Instance, error) {
	if r.Family != "" {
		return gen.ByName(r.Family, r.N, r.Seed)
	}
	return gen.DecodeJSON(r.Graph)
}

// job is one tracked unit of work. Mutable fields are guarded by mu; the
// trace recorder is internally synchronized and safe to stream while the
// job runs.
type job struct {
	id  string
	req JobRequest
	rec *trace.Recorder
	// in caches the inline instance already decoded, checked and
	// guard-admitted by handleSubmit, so the worker never re-parses (or
	// re-trusts) the raw submission bytes. Nil for generator jobs.
	in *gen.Instance

	cancel context.CancelFunc

	mu       sync.Mutex
	state    JobState
	hash     string
	errMsg   string
	cached   bool
	outcome  string
	attempts int
	rounds   int

	submittedNS int64
	startedNS   int64
	doneNS      int64
}

// JobStatus is the GET /v1/jobs/{id} response.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Hash is the content address, known once the instance materialized.
	Hash string `json:"hash,omitempty"`
	// Cached reports that the decomposition was served from the store (or
	// a coalesced in-flight build) instead of a fresh pipeline run.
	Cached bool `json:"cached"`
	// Outcome is the supervised-recovery outcome of the build
	// (certified, certified-after-retry, degraded), empty until done.
	Outcome  string `json:"outcome,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Rounds is the charged paper-model round cost of the build.
	Rounds int    `json:"rounds,omitempty"`
	Error  string `json:"error,omitempty"`
	// QueueMicros and BuildMicros are wall-clock observability readings.
	QueueMicros int64 `json:"queueMicros"`
	BuildMicros int64 `json:"buildMicros"`
}

// status snapshots the job under its lock.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		State:    j.state,
		Hash:     j.hash,
		Cached:   j.cached,
		Outcome:  j.outcome,
		Attempts: j.attempts,
		Rounds:   j.rounds,
		Error:    j.errMsg,
	}
	if j.startedNS > 0 {
		st.QueueMicros = (j.startedNS - j.submittedNS) / 1000
	}
	if j.doneNS > 0 {
		st.BuildMicros = (j.doneNS - j.startedNS) / 1000
	}
	return st
}

// setState transitions the job; terminal states stamp doneNS.
func (j *job) setState(s JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateCanceled || j.state == StateDone || j.state == StateFailed {
		return // terminal states are sticky
	}
	j.state = s
	switch s {
	case StateRunning:
		j.startedNS = nowNanos()
	case StateDone, StateFailed, StateCanceled:
		j.doneNS = nowNanos()
	}
}

// fail marks the job failed with a message (unless already terminal).
func (j *job) fail(msg string) {
	j.mu.Lock()
	if j.state != StateCanceled {
		j.state = StateFailed
		j.errMsg = msg
		j.doneNS = nowNanos()
	}
	j.mu.Unlock()
}

// worker drains the job queue until quit closes, then finishes whatever is
// still queued (graceful drain) and exits.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.runJob(j)
		case <-s.quit:
			for {
				select {
				case j := <-s.queue:
					s.runJob(j)
				default:
					return
				}
			}
		}
	}
}

// runJob executes one job end to end: materialize the instance, hash it,
// and resolve the decomposition through the single-flight cache.
func (s *Server) runJob(j *job) {
	if s.testJobGate != nil {
		<-s.testJobGate
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.mu.Lock()
	if j.state == StateCanceled {
		j.mu.Unlock()
		cancel()
		return
	}
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	j.setState(StateRunning)
	s.metrics.SetGauge("serve.queue.depth", int64(len(s.queue)))
	waitUS := (nowNanos() - j.submittedNS) / 1000
	s.metrics.Observe("serve.latency.queue_wait_us", waitUS)

	in := j.in
	if in == nil {
		var err error
		in, err = j.req.instance()
		if err != nil {
			j.fail(err.Error())
			s.metrics.Count("serve.jobs.failed", 1)
			return
		}
	}
	// Non-default engines get their own cache entries: the content address
	// keys the default engine's decomposition, hash:engine the others, so
	// existing query URLs keep resolving the default transparently.
	hash := gen.ContentHash(in)
	if j.req.Engine != "" && j.req.Engine != sepengine.DefaultEngine {
		hash += ":" + j.req.Engine
	}
	j.mu.Lock()
	j.hash = hash
	j.mu.Unlock()

	plan, err := chaos.PlanFor(j.req.ChaosSpec, j.req.ChaosSeed)
	if err != nil {
		j.fail(err.Error())
		s.metrics.Count("serve.jobs.failed", 1)
		return
	}

	buildStart := nowNanos()
	d, cached, err := s.store.do(ctx, hash, func() (*Decomp, error) {
		res, err := pipeline.Run(ctx, in, pipeline.Options{
			Engine:      j.req.Engine,
			Plan:        plan,
			MaxAttempts: j.req.MaxAttempts,
			Tracer:      j.rec,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		d := newDecomp(hash, in, res)
		d.BuildNanos = nowNanos() - buildStart
		return d, nil
	})
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		j.setState(StateCanceled)
		s.metrics.Count("serve.jobs.canceled", 1)
	case err != nil:
		j.fail(err.Error())
		s.metrics.Count("serve.jobs.failed", 1)
	default:
		j.mu.Lock()
		j.cached = cached
		j.outcome = d.Outcome
		j.attempts = d.Attempts
		j.rounds = d.Rounds
		j.mu.Unlock()
		j.setState(StateDone)
		s.metrics.Count("serve.jobs.completed", 1)
		s.metrics.Observe("serve.latency.build_ms", (nowNanos()-buildStart)/1e6)
	}
}
