package congest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/pipeline"
	"planardfs/internal/serve"
)

// TestGuardedBuildUsesOneEngine gates the round engines and fold programs
// a guarded build builds on the first cold-stacked input (a stacked
// triangulation of n = 1000): a pipeline.Run handed the verdict of the
// admission that validated its instance and a planard inline job,
// admitted before it is queued, each build one round engine and one fold
// program set, the guard's Verifier's, which certify the build too (two of each when the build made its own
// Verifier). cert's TestGuardedBuildUsesOneVerifier gates the Verifiers,
// BFS trees and exchange programs of the same builds.
func TestGuardedBuildUsesOneEngine(t *testing.T) {
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
		engines, folds := congest.Builds()
		c.build(t, in)
		e, f := congest.Builds()
		if e-engines != 1 || f-folds != 1 {
			t.Errorf("%s: %d round engines, %d fold program sets, want 1 of each", c.name, e-engines, f-folds)
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
