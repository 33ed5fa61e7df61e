package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"planardfs/internal/serve"
)

// pollInterval is the client's wait between job-status polls.
const pollInterval = time.Millisecond

// opTimeout bounds one operation; a slower op counts as failed.
const opTimeout = 60 * time.Second

// harness is the in-process deployment the client talks to: one httptest
// server whose handler is swapped to a fresh serve.Server per cold pass,
// so every op of a run travels over the same keep-alive connection.
type harness struct {
	ts  *httptest.Server
	hc  *http.Client
	srv atomic.Pointer[serve.Server]

	// timeHandler makes the handler record how long Server.ServeHTTP took
	// for the last request (traced runs only; one client, so one request
	// is in flight at a time).
	timeHandler bool
	lastHandler atomic.Int64
}

func newHarness(timeHandler bool) *harness {
	h := &harness{timeHandler: timeHandler}
	h.ts = httptest.NewServer(http.HandlerFunc(h.serveHTTP))
	h.hc = h.ts.Client()
	return h
}

func (h *harness) serveHTTP(w http.ResponseWriter, r *http.Request) {
	s := h.srv.Load()
	if s == nil {
		http.Error(w, "no server installed", http.StatusServiceUnavailable)
		return
	}
	if !h.timeHandler {
		s.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	s.ServeHTTP(w, r)
	h.lastHandler.Store(int64(time.Since(t0)))
}

// install routes requests to s (nil detaches the current server).
func (h *harness) install(s *serve.Server) { h.srv.Store(s) }

func (h *harness) close() {
	h.hc.CloseIdleConnections()
	h.ts.Close()
}

// do sends one request and reads the whole response body.
func (h *harness) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path, requires 200 and decodes the body into v.
func (h *harness) getJSON(ctx context.Context, path string, v any) error {
	code, b, err := h.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, b)
	}
	return json.Unmarshal(b, v)
}

// jobRun is one submitted job followed to a terminal state.
type jobRun struct {
	status  serve.JobStatus
	latency time.Duration // submit until the terminal status arrived
	submit  time.Duration // the POST round trip alone
	polls   int
}

// runJob submits body and polls the job until it leaves queued/running.
func (h *harness) runJob(ctx context.Context, body []byte) (jobRun, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var r jobRun
	t0 := time.Now()
	code, b, err := h.do(ctx, http.MethodPost, "/v1/jobs", body)
	r.submit = time.Since(t0)
	if err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	if code != http.StatusAccepted {
		return r, fmt.Errorf("submit: status %d: %s", code, b)
	}
	if err := json.Unmarshal(b, &r.status); err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	for r.status.State == serve.StateQueued || r.status.State == serve.StateRunning {
		select {
		case <-ctx.Done():
			return r, fmt.Errorf("job %s: %w", r.status.ID, ctx.Err())
		case <-time.After(pollInterval):
		}
		r.polls++
		if err := h.getJSON(ctx, "/v1/jobs/"+r.status.ID, &r.status); err != nil {
			return r, fmt.Errorf("poll: %w", err)
		}
	}
	r.latency = time.Since(t0)
	return r, nil
}
