package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"planardfs/internal/chaos"
	"planardfs/internal/gen"
)

// postRaw submits a raw body and returns the status code and decoded
// error body (zero-valued when the response is not an error shape).
func postRaw(t *testing.T, base, body string) (int, httpError) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e httpError
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e
}

// inlineBody wraps a wire instance into a POST /v1/jobs body.
func inlineBody(t *testing.T, w *gen.Wire) string {
	t.Helper()
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(map[string]json.RawMessage{"graph": raw})
	if err != nil {
		t.Fatal(err)
	}
	return string(req)
}

// wireFixture generates a valid wire instance to corrupt per case.
func wireFixture(t *testing.T) *gen.Wire {
	t.Helper()
	in, err := gen.ByName("grid", 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	return gen.WireOf(in)
}

// TestSubmitMalformedBodies is the admission table test: every malformed
// or corrupted inline submission is rejected with a structured 4xx body —
// a 400 naming the offending field for wire-level violations, a 422
// carrying the guard witness for semantic ones — and never reaches the
// worker pool.
func TestSubmitMalformedBodies(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxN: 100})
	cases := []struct {
		name       string
		body       func(t *testing.T) string
		wantCode   int
		wantField  string // substring of the reported field, 400s only
		wantReason string // witness reason, 422s only
	}{
		{
			name:     "not json",
			body:     func(*testing.T) string { return "{not json" },
			wantCode: http.StatusBadRequest,
		},
		{
			name:     "unknown top-level field",
			body:     func(*testing.T) string { return `{"family":"grid","n":9,"bogus":1}` },
			wantCode: http.StatusBadRequest,
		},
		{
			name:     "trailing bytes",
			body:     func(*testing.T) string { return `{"family":"grid","n":16}garbage` },
			wantCode: http.StatusBadRequest,
		},
		{
			name:     "two objects",
			body:     func(*testing.T) string { return `{"family":"grid","n":16}{"family":"grid","n":16}` },
			wantCode: http.StatusBadRequest,
		},
		{
			name:     "trailing close brace",
			body:     func(*testing.T) string { return `{"family":"grid","n":16}}` },
			wantCode: http.StatusBadRequest,
		},
		{
			name:     "both family and graph",
			body:     func(*testing.T) string { return `{"family":"grid","n":9,"graph":{"n":1}}` },
			wantCode: http.StatusBadRequest,
		},
		{
			name:     "graph not an object",
			body:     func(*testing.T) string { return `{"graph":[1,2,3]}` },
			wantCode: http.StatusBadRequest,
		},
		{
			name: "negative vertex count",
			body: func(t *testing.T) string {
				w := wireFixture(t)
				w.N = -4
				return inlineBody(t, w)
			},
			wantCode:  http.StatusBadRequest,
			wantField: "n",
		},
		{
			name: "n over server limit",
			body: func(t *testing.T) string {
				w := wireFixture(t)
				w.N = 101
				return inlineBody(t, w)
			},
			wantCode:  http.StatusBadRequest,
			wantField: "n",
		},
		{
			name: "edge endpoint out of range",
			body: func(t *testing.T) string {
				w := wireFixture(t)
				w.Edges[3][1] = w.N + 5
				return inlineBody(t, w)
			},
			wantCode:  http.StatusBadRequest,
			wantField: "edges[3]",
		},
		{
			name: "self-loop",
			body: func(t *testing.T) string {
				w := wireFixture(t)
				w.Edges[0][1] = w.Edges[0][0]
				return inlineBody(t, w)
			},
			wantCode:  http.StatusBadRequest,
			wantField: "edges[0]",
		},
		{
			name: "duplicate edge",
			body: func(t *testing.T) string {
				w := wireFixture(t)
				w.Edges[5] = w.Edges[4]
				return inlineBody(t, w)
			},
			wantCode:  http.StatusBadRequest,
			wantField: "edges[5]",
		},
		{
			name: "too many edges",
			body: func(t *testing.T) string {
				w := wireFixture(t)
				extra := make([][2]int, 0, 3*w.N)
				for u := 0; u < w.N; u++ {
					for v := u + 1; v < w.N; v++ {
						extra = append(extra, [2]int{u, v})
					}
				}
				w.Edges = extra
				return inlineBody(t, w)
			},
			wantCode:  http.StatusBadRequest,
			wantField: "edges",
		},
		{
			name: "rotation table wrong shape",
			body: func(t *testing.T) string {
				w := wireFixture(t)
				w.Rotations = w.Rotations[:len(w.Rotations)-1]
				return inlineBody(t, w)
			},
			wantCode:  http.StatusBadRequest,
			wantField: "rotations",
		},
		{
			name: "rotation lists non-neighbour",
			body: func(t *testing.T) string {
				w := wireFixture(t)
				p := chaos.NewPlan(41, chaos.Spec{Structural: 2})
				if p.RetargetDarts(1, w.N, w.Rotations) == 0 {
					t.Fatal("retarget applied nothing")
				}
				return inlineBody(t, w)
			},
			wantCode:  http.StatusBadRequest,
			wantField: "rotations",
		},
		{
			name: "outer dart out of range",
			body: func(t *testing.T) string {
				w := wireFixture(t)
				w.OuterDart = 2 * len(w.Edges)
				return inlineBody(t, w)
			},
			wantCode:  http.StatusBadRequest,
			wantField: "outerDart",
		},
		{
			name: "genus-corrupted rotations",
			body: func(t *testing.T) string {
				for seed := int64(1); seed < 50; seed++ {
					w := wireFixture(t)
					p := chaos.NewPlan(seed, chaos.Spec{Structural: 4})
					if p.SpliceFaces(1, w.Rotations) == 0 {
						continue
					}
					if in, err := w.Build(); err == nil && in.Emb.Genus() != 0 {
						return inlineBody(t, w)
					}
				}
				t.Fatal("no seed raised the genus")
				return ""
			},
			wantCode:   http.StatusUnprocessableEntity,
			wantReason: "euler",
		},
		{
			name: "disconnected graph",
			body: func(t *testing.T) string {
				w := &gen.Wire{
					N:         4,
					Edges:     [][2]int{{0, 1}, {2, 3}},
					Rotations: [][]int{{1}, {0}, {3}, {2}},
				}
				return inlineBody(t, w)
			},
			wantCode:   http.StatusUnprocessableEntity,
			wantReason: "disconnected",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, e := postRaw(t, ts.URL, tc.body(t))
			if code != tc.wantCode {
				t.Fatalf("status %d (%s), want %d", code, e.Error, tc.wantCode)
			}
			if e.Error == "" {
				t.Fatal("error body missing")
			}
			if tc.wantField != "" && !strings.Contains(e.Field, tc.wantField) {
				t.Fatalf("field %q does not name %q (error: %s)", e.Field, tc.wantField, e.Error)
			}
			if tc.wantReason != "" {
				if e.Witness == nil || string(e.Witness.Reason) != tc.wantReason {
					t.Fatalf("witness %+v, want reason %q", e.Witness, tc.wantReason)
				}
			}
		})
	}
	// Nothing above may have consumed a worker: a valid inline submission,
	// whitespace after its object allowed, still runs end to end.
	w := wireFixture(t)
	st := postJob(t, ts.URL, inlineBody(t, w)+" \n")
	st = awaitJob(t, ts.URL, st.ID)
	if st.State != StateDone {
		t.Fatalf("valid inline job ended %s: %s", st.State, st.Error)
	}
	if got := s.Metrics().MetricsSnapshot(); got == nil {
		t.Fatal("metrics snapshot nil")
	}
}
