package cert_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/pipeline"
	"planardfs/internal/serve"
)

// TestGuardedBuildUsesOneVerifier gates the certification contexts a
// guarded build makes on the first cold-stacked input (a stacked
// triangulation of n = 1000): a pipeline.Run handed the verdict of the
// admission that validated its instance and a planard inline job, admitted
// before it is queued, each make one Verifier, the
// guard's, and build one BFS tree from vertex 0 and one set of
// label-exchange programs (two of each when the build made its own
// Verifier). congest's TestGuardedBuildUsesOneEngine gates the round
// engine and the aggregation programs of the same builds.
func TestGuardedBuildUsesOneVerifier(t *testing.T) {
	in, err := gen.ByName("stacked", 1000, rand.New(rand.NewSource(1)).Int63())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		build func(t *testing.T, in *gen.Instance)
	}{
		{"guarded pipeline.Run", func(t *testing.T, in *gen.Instance) {
			adm, err := guard.ValidateInstance(in, guard.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pipeline.Run(context.Background(), in, pipeline.Options{Admitted: adm}); err != nil {
				t.Fatal(err)
			}
		}},
		{"planard inline job", serveInlineJob},
	} {
		verifiers, trees, exchanges := cert.Builds()
		c.build(t, in)
		v, tr, ex := cert.Builds()
		if v-verifiers != 1 || tr-trees != 1 || ex-exchanges != 1 {
			t.Errorf("%s: %d Verifiers, %d BFS trees, %d exchange program sets, want 1 of each",
				c.name, v-verifiers, tr-trees, ex-exchanges)
		}
	}
}

// serveInlineJob submits in as an inline planard job to a fresh server,
// drains the server and checks the job was built.
func serveInlineJob(t *testing.T, in *gen.Instance) {
	t.Helper()
	data, err := gen.EncodeJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.JobRequest{Graph: data})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Options{Workers: 1})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var st serve.JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body.Bytes())
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil))
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.State != serve.StateDone || st.Cached {
		t.Fatalf("inline job: %s, want a fresh build done", w.Body.Bytes())
	}
}

// TestBuildFoldsOncePerBoundary gates the label exchanges and folds a
// build runs: one of each per certification. A guarded build — a
// pipeline.Run handed its admission's verdict, or a planard inline job —
// runs four of each: the guard's Euler exchange and its one fold of the
// degree sum, the Euler sum and the Euler accept bits; the dfs stage's
// certification of the accepted tree; and the certify stage's spanning
// tree and separator certifications. An unguarded pipeline.Run runs three
// of each. A pipeline.Separate runs one of each fewer, with no DFS tree to
// certify: three guarded, two unguarded (the separator stage's
// certification of the accepted separator and the spanning tree's). The
// inputs are the first cold-stacked instance and a grid, whose Theorem 2
// trees and separators are certified on their first attempt.
func TestBuildFoldsOncePerBoundary(t *testing.T) {
	stacked, err := gen.ByName("stacked", 1000, rand.New(rand.NewSource(1)).Int63())
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.ByName("grid", 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	type pipelineRun func(context.Context, *gen.Instance, pipeline.Options) (*pipeline.Result, error)
	unguarded := func(run pipelineRun) func(*testing.T, *gen.Instance) {
		return func(t *testing.T, in *gen.Instance) {
			if _, err := run(context.Background(), in, pipeline.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	guarded := func(run pipelineRun) func(*testing.T, *gen.Instance) {
		return func(t *testing.T, in *gen.Instance) {
			adm, err := guard.ValidateInstance(in, guard.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run(context.Background(), in, pipeline.Options{Admitted: adm}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name  string
		in    *gen.Instance
		build func(t *testing.T, in *gen.Instance)
		want  int64
	}{
		{"guarded pipeline.Run", stacked, guarded(pipeline.Run), 4},
		{"planard inline job", stacked, serveInlineJob, 4},
		{"unguarded stacked pipeline.Run", stacked, unguarded(pipeline.Run), 3},
		{"unguarded grid pipeline.Run", grid, unguarded(pipeline.Run), 3},
		{"guarded pipeline.Separate", stacked, guarded(pipeline.Separate), 3},
		{"unguarded stacked pipeline.Separate", stacked, unguarded(pipeline.Separate), 2},
		{"unguarded grid pipeline.Separate", grid, unguarded(pipeline.Separate), 2},
	} {
		exchanges, folds := cert.Runs()
		c.build(t, c.in)
		ex, f := cert.Runs()
		if ex-exchanges != c.want || f-folds != c.want {
			t.Errorf("%s: %d exchanges and %d folds, want %d of each", c.name, ex-exchanges, f-folds, c.want)
		}
	}
}
