package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"planardfs/internal/gen"
)

// TestSingleFlightConcurrentSubmitters races many submitters on the same
// graph hash: exactly one pipeline build may run (cache misses == 1), and
// every job must finish done with the same hash. Run under -race this also
// exercises the store and job locking.
func TestSingleFlightConcurrentSubmitters(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 64})
	const submitters = 24
	ids := make([]string, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := postJob(t, ts.URL, `{"family":"stacked","n":120,"seed":5}`)
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()

	hash := ""
	for _, id := range ids {
		fin := awaitJob(t, ts.URL, id)
		if fin.State != StateDone {
			t.Fatalf("job %s: %+v", id, fin)
		}
		if hash == "" {
			hash = fin.Hash
		} else if fin.Hash != hash {
			t.Fatalf("hash diverged: %s vs %s", fin.Hash, hash)
		}
	}
	if misses := s.Metrics().Counter("serve.cache.misses"); misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (single-flight coalescing)", misses)
	}
	hits := s.Metrics().Counter("serve.cache.hits")
	joined := s.Metrics().Counter("serve.cache.joined")
	if hits+joined != submitters-1 {
		t.Fatalf("hits %d + joined %d != %d", hits, joined, submitters-1)
	}
	if entries := s.Metrics().Gauge("serve.cache.entries"); entries != 1 {
		t.Fatalf("cache entries = %d, want 1", entries)
	}
}

// TestBackpressure429 fills the queue while workers are gated and asserts
// the admission-control contract: 429 with a Retry-After header, the
// rejection counter ticking, and rejected jobs not tracked.
func TestBackpressure429(t *testing.T) {
	const depth = 4
	s := New(Options{Workers: 1, QueueDepth: depth})
	gate := make(chan struct{})
	s.testJobGate = gate
	ts := httptest.NewServer(s)
	defer ts.Close()

	// One job occupies the worker (blocked on the gate); `depth` more fill
	// the queue. Depending on scheduling the worker may not have picked up
	// the first job yet, so allow one extra accepted submission before
	// demanding rejections.
	accepted := 0
	var rejectedResp *http.Response
	for i := 0; i < depth+2; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"family":"grid","n":36,"seed":1}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusAccepted {
			accepted++
			resp.Body.Close()
			continue
		}
		rejectedResp = resp
		break
	}
	if rejectedResp == nil {
		t.Fatalf("no rejection after %d submissions into a depth-%d queue", depth+2, depth)
	}
	defer rejectedResp.Body.Close()
	if rejectedResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rejectedResp.StatusCode)
	}
	if ra := rejectedResp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.Metrics().Counter("serve.jobs.rejected"); got < 1 {
		t.Fatalf("rejected counter = %d", got)
	}

	// Every rejected submission returned a well-formed error and the
	// accepted ones still complete once the gate opens.
	close(gate)
	deadline := time.Now().Add(60 * time.Second)
	for s.Metrics().Counter("serve.jobs.completed") < int64(accepted) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d accepted jobs completed",
				s.Metrics().Counter("serve.jobs.completed"), accepted)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAdmittedContextDroppedOnEveryPath follows the certification context
// an inline submission's admission hands to its build, from the handler
// goroutine to the worker. One graph is submitted twice, so the first job
// builds on the context and the second is served from the cache, and a
// third inline job is canceled while queued. No job left in the table
// keeps a context.
func TestAdmittedContextDroppedOnEveryPath(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 8})
	gate := make(chan struct{})
	s.testJobGate = gate
	ts := httptest.NewServer(s)
	defer ts.Close()
	inline := func(family string, n int) string {
		in, err := gen.ByName(family, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		data, err := gen.EncodeJSON(in)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf(`{"graph":%s}`, data)
	}
	keeps := func(id string) bool {
		s.jobsMu.Lock()
		j := s.jobs[id]
		s.jobsMu.Unlock()
		if j == nil {
			t.Fatalf("job %s is not in the job table", id)
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.admitted != nil
	}

	first := postJob(t, ts.URL, inline("grid", 36))
	canceled := postJob(t, ts.URL, inline("wheel", 12))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+canceled.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if keeps(canceled.ID) {
		t.Error("a job canceled while queued keeps its admitted context")
	}
	close(gate)
	if fin := awaitJob(t, ts.URL, first.ID); fin.State != StateDone || fin.Cached {
		t.Fatalf("first inline job: %+v, want a fresh build", fin)
	}
	second := postJob(t, ts.URL, inline("grid", 36))
	if fin := awaitJob(t, ts.URL, second.ID); fin.State != StateDone || !fin.Cached {
		t.Fatalf("second inline job: %+v, want a cache hit", fin)
	}
	if st := getJob(t, ts.URL, canceled.ID); st.State != StateCanceled {
		t.Fatalf("canceled job: %+v", st)
	}
	for _, id := range []string{first.ID, second.ID, canceled.ID} {
		if keeps(id) {
			t.Errorf("job %s keeps its admitted context", id)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesDuringBuilds races query traffic against job
// execution and metrics scrapes; meaningful under -race.
func TestConcurrentQueriesDuringBuilds(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 32})
	st := postJob(t, ts.URL, `{"family":"grid","n":64,"seed":1}`)
	fin := awaitJob(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("%+v", fin)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch w % 3 {
				case 0:
					getJSON(t, ts.URL+"/v1/graphs/"+fin.Hash+"/query/lca?u=0&v=63", nil)
				case 1:
					getJSON(t, ts.URL+"/v1/metrics", nil)
				default:
					postJob(t, ts.URL, `{"family":"grid","n":64,"seed":1}`)
				}
			}
		}(w)
	}
	wg.Wait()
}
