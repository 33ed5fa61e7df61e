package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"planardfs/internal/dfs"
	"planardfs/internal/gen"
	"planardfs/internal/spanning"
)

// newTestServer returns a started server and its httptest front end; both
// are torn down with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// postJob submits a job and decodes the accepted status.
func postJob(t *testing.T, base, body string) JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e httpError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, e.Error)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// awaitJob polls until the job reaches a terminal state.
func awaitJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getJob(t, base, id)
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func getJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get job: status %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getJSON fetches a URL and decodes the JSON body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestJobLifecycleGeneratorFamily(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	st := postJob(t, ts.URL, `{"family":"grid","n":64,"seed":1}`)
	if st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("accepted state = %q", st.State)
	}
	fin := awaitJob(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %q (err %q)", fin.State, fin.Error)
	}
	if fin.Hash == "" || fin.Outcome != "certified" || fin.Cached {
		t.Fatalf("done status = %+v", fin)
	}
	if fin.Rounds <= 0 {
		t.Fatalf("rounds = %d, want > 0", fin.Rounds)
	}

	// The hash must match the canonical hash of the same generator call.
	in, err := gen.ByName("grid", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := gen.ContentHash(in); fin.Hash != want {
		t.Fatalf("hash = %s, want %s", fin.Hash, want)
	}

	// Re-submitting the same job is a cache hit served without a rebuild.
	st2 := postJob(t, ts.URL, `{"family":"grid","n":64,"seed":1}`)
	fin2 := awaitJob(t, ts.URL, st2.ID)
	if fin2.State != StateDone || !fin2.Cached || fin2.Hash != fin.Hash {
		t.Fatalf("resubmit status = %+v", fin2)
	}
	if got := s.Metrics().Counter("serve.cache.hits"); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
}

// TestInlineJobRetainsNoGraphBytes checks that an admitted inline job
// runs on the instance admission decoded: it finishes done with the
// instance's content hash, while the job the server keeps holds the
// decoded instance and no raw graph bytes.
func TestInlineJobRetainsNoGraphBytes(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	in, err := gen.ByName("grid", 36, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gen.EncodeJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	st := postJob(t, ts.URL, fmt.Sprintf(`{"graph":%s}`, data))
	fin := awaitJob(t, ts.URL, st.ID)
	if fin.State != StateDone || fin.Hash != gen.ContentHash(in) {
		t.Fatalf("inline job: %+v, want done with hash %s", fin, gen.ContentHash(in))
	}
	s.jobsMu.Lock()
	j := s.jobs[st.ID]
	s.jobsMu.Unlock()
	if j == nil {
		t.Fatalf("job %s is not in the job table", st.ID)
	}
	if len(j.req.Graph) != 0 {
		t.Fatalf("job %s retains %d bytes of its inline graph", st.ID, len(j.req.Graph))
	}
	if j.in == nil || gen.ContentHash(j.in) != fin.Hash {
		t.Fatalf("job %s does not hold its admitted instance", st.ID)
	}
}

// TestInlineQueueWaitExcludesAdmission: an inline job is stamped for its
// queue wait as it enters the queue, after the handler decoded and
// admitted its graph, not at handler entry. Admission dominates the
// submit handler on a stacked triangulation of n = 3000, so the stamp
// falls in the second half of the handler's wall time (at handler entry
// it fell at its start), and the job's reported queue wait is what
// follows the stamp.
func TestInlineQueueWaitExcludesAdmission(t *testing.T) {
	s := New(Options{Workers: 1})
	gate := make(chan struct{})
	s.testJobGate = gate
	ts := httptest.NewServer(s)
	defer ts.Close()
	in, err := gen.ByName("stacked", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gen.EncodeJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"graph":%s}`, data)
	t0 := nowNanos()
	st := postJob(t, ts.URL, body)
	t1 := nowNanos()
	close(gate)
	fin := awaitJob(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("inline job: %+v", fin)
	}
	s.jobsMu.Lock()
	j := s.jobs[st.ID]
	s.jobsMu.Unlock()
	j.mu.Lock()
	enqueued, started := j.enqueuedNS, j.startedNS
	j.mu.Unlock()
	if enqueued < t0+(t1-t0)/2 || enqueued > t1 {
		t.Errorf("job stamped %d µs into a %d µs submit, want after admission, in the second half",
			(enqueued-t0)/1000, (t1-t0)/1000)
	}
	if want := (started - enqueued) / 1000; fin.QueueMicros != want {
		t.Errorf("queue wait %d µs, want %d µs from the enqueue stamp", fin.QueueMicros, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestJobInlineGraphAndQueries(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	in, err := gen.ByName("wheel", 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gen.EncodeJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	st := postJob(t, ts.URL, fmt.Sprintf(`{"graph":%s}`, data))
	fin := awaitJob(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("inline job: %+v", fin)
	}
	if want := gen.ContentHash(in); fin.Hash != want {
		t.Fatalf("inline hash = %s, want %s", fin.Hash, want)
	}
	base := ts.URL + "/v1/graphs/" + fin.Hash

	// Summary.
	var sum GraphSummary
	if code := getJSON(t, base, &sum); code != http.StatusOK {
		t.Fatalf("summary status %d", code)
	}
	if sum.N != in.G.N() || sum.M != in.G.M() || sum.SepLen == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	for _, v := range sum.Verdicts {
		if !v.OK {
			t.Fatalf("verdict %s rejected in clean build", v.Scheme)
		}
	}

	// LCA and order answers must agree with a locally built reference of
	// the same cached DFS tree.
	var ord struct {
		Parent int `json:"parent"`
		Tin    int `json:"tin"`
		Tout   int `json:"tout"`
	}
	if code := getJSON(t, base+"/query/order?v="+fmt.Sprint(sum.Root), &ord); code != http.StatusOK {
		t.Fatalf("order status %d", code)
	}
	if ord.Parent != -1 || ord.Tin != 0 || ord.Tout != in.G.N() {
		t.Fatalf("root order = %+v", ord)
	}

	pt, _, err := dfs.Build(in.G, in.Emb, in.OuterDart, sum.Root)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := spanning.NewFromParents(sum.Root, pt.Parent)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < in.G.N(); u += 3 {
		for v := 1; v < in.G.N(); v += 4 {
			var got struct {
				LCA int `json:"lca"`
			}
			url := fmt.Sprintf("%s/query/lca?u=%d&v=%d", base, u, v)
			if code := getJSON(t, url, &got); code != http.StatusOK {
				t.Fatalf("lca status %d", code)
			}
			if want := ref.LCA(u, v); got.LCA != want {
				t.Fatalf("lca(%d,%d) = %d, want %d", u, v, got.LCA, want)
			}
		}
	}

	// Separator membership: sides partition the graph, separator vertices
	// report side 0.
	onSep := 0
	for v := 0; v < in.G.N(); v++ {
		var got struct {
			OnSeparator bool `json:"onSeparator"`
			Side        int  `json:"side"`
		}
		url := fmt.Sprintf("%s/query/separator?v=%d", base, v)
		if code := getJSON(t, url, &got); code != http.StatusOK {
			t.Fatalf("separator status %d", code)
		}
		if got.OnSeparator {
			onSep++
			if got.Side != 0 {
				t.Fatalf("separator vertex %d has side %d", v, got.Side)
			}
		}
	}
	if onSep != sum.SepLen {
		t.Fatalf("separator membership count %d != sepLen %d", onSep, sum.SepLen)
	}

	// Cert verdicts round-trip.
	var verdicts []VerdictSummary
	if code := getJSON(t, base+"/query/cert", &verdicts); code != http.StatusOK {
		t.Fatalf("cert status %d", code)
	}
	if len(verdicts) != 3 || verdicts[0].Scheme != "spanning" || verdicts[1].Scheme != "dfs" || verdicts[2].Scheme != "separator" {
		t.Fatalf("verdicts = %+v", verdicts)
	}

	// Bad queries.
	if code := getJSON(t, base+"/query/lca?u=-1&v=0", nil); code != http.StatusBadRequest {
		t.Fatalf("bad lca status %d", code)
	}
	if code := getJSON(t, base+"/query/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown kind status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/graphs/deadbeef/query/lca?u=0&v=1", nil); code != http.StatusNotFound {
		t.Fatalf("unknown hash status %d", code)
	}
}

func TestJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxN: 1000})
	for _, body := range []string{
		`{}`,
		`{"family":"grid","n":64,"graph":{"n":3}}`,
		`{"family":"nosuch","n":64}`,
		`{"family":"grid","n":2}`,
		`{"family":"grid","n":100000}`,
		`{"family":"grid","n":64,"chaosSpec":"bogus=1"}`,
		`{"family":"grid","n":64,"engine":"nosuch-engine"}`,
		`{"family":"grid","n":64,"unknownField":true}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/j999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job status %d", code)
	}
}

// TestJobEngineSelection submits the same instance under the default and a
// non-default separator engine: the two jobs must not share a cache entry
// (the non-default key carries the engine suffix), and the graph summary
// must report the backend that produced the cached separator.
func TestJobEngineSelection(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxN: 1000})
	def := awaitJob(t, ts.URL, postJob(t, ts.URL, `{"family":"stacked","n":80,"seed":3}`).ID)
	if def.State != StateDone {
		t.Fatalf("default job: %+v", def)
	}
	alt := awaitJob(t, ts.URL, postJob(t, ts.URL, `{"family":"stacked","n":80,"seed":3,"engine":"lipton-tarjan"}`).ID)
	if alt.State != StateDone {
		t.Fatalf("engine job: %+v", alt)
	}
	if alt.Cached {
		t.Fatal("engine job aliased the default engine's cache entry")
	}
	if alt.Hash != def.Hash+":lipton-tarjan" {
		t.Fatalf("engine job keyed %q, want %q", alt.Hash, def.Hash+":lipton-tarjan")
	}
	var sum GraphSummary
	if code := getJSON(t, ts.URL+"/v1/graphs/"+alt.Hash, &sum); code != 200 {
		t.Fatalf("engine summary status %d", code)
	}
	if sum.Engine != "lipton-tarjan" {
		t.Fatalf("summary engine %q, want lipton-tarjan", sum.Engine)
	}
	var dsum GraphSummary
	if code := getJSON(t, ts.URL+"/v1/graphs/"+def.Hash, &dsum); code != 200 {
		t.Fatalf("default summary status %d", code)
	}
	if dsum.Engine != "theorem1" {
		t.Fatalf("default summary engine %q, want theorem1", dsum.Engine)
	}
}

func TestChaosJobDegradesOrRetriesButStaysCertified(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	// Heavy structural corruption: the primary pipeline attempts are
	// rejected by certification until the burst decays or the runtime
	// degrades to Awerbuch — either way the result is certified.
	st := postJob(t, ts.URL, `{"family":"grid","n":49,"seed":1,"chaosSpec":"structural=8","chaosSeed":11}`)
	fin := awaitJob(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("chaos job: %+v", fin)
	}
	switch fin.Outcome {
	case "certified-after-retry", "degraded", "certified":
	default:
		t.Fatalf("outcome = %q", fin.Outcome)
	}
	if fin.Attempts < 1 {
		t.Fatalf("attempts = %d", fin.Attempts)
	}
}

func TestJobTraceStreamsJSONL(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st := postJob(t, ts.URL, `{"family":"grid","n":36,"seed":1}`)
	awaitJob(t, ts.URL, st.ID)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines, sawChaos := 0, false
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if rec["layer"] == "chaos" {
			sawChaos = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 10 || !sawChaos {
		t.Fatalf("trace stream: %d lines, sawChaos=%v", lines, sawChaos)
	}
}

func TestMetricsEndpointStable(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st := postJob(t, ts.URL, `{"family":"grid","n":36,"seed":1}`)
	awaitJob(t, ts.URL, st.ID)
	read := func() []byte {
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := read(), read()
	if !bytes.Equal(a, b) {
		t.Fatalf("two scrapes of an idle server differ:\n%s\n%s", a, b)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "serve.jobs.completed" && c.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("serve.jobs.completed missing from scrape: %s", a)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 8})
	gate := make(chan struct{})
	s.testJobGate = gate
	ts := httptest.NewServer(s)
	defer ts.Close()

	blocker := postJob(t, ts.URL, `{"family":"grid","n":36,"seed":1}`)
	queued := postJob(t, ts.URL, `{"family":"grid","n":49,"seed":1}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateCanceled {
		t.Fatalf("cancel: state %q", st.State)
	}

	// Release the workers; the canceled job must never run.
	close(gate)
	fin := awaitJob(t, ts.URL, blocker.ID)
	if fin.State != StateDone {
		t.Fatalf("blocker: %+v", fin)
	}
	if st := getJob(t, ts.URL, queued.ID); st.State != StateCanceled {
		t.Fatalf("canceled job reran: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()
	st := postJob(t, ts.URL, `{"family":"grid","n":64,"seed":1}`)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The queued job was drained to completion, not abandoned.
	fin := getJob(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("drained job state %q (err %q)", fin.State, fin.Error)
	}
	// New submissions are rejected while draining.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"family":"grid","n":36,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status %d, want 503", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK || health.Status != "draining" {
		t.Fatalf("health = %d/%+v", code, health)
	}
}
