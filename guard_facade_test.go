package planardfs

import (
	"context"
	"errors"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/graph"
)

// corruptedInstance builds an instance whose rotation system is a valid
// permutation system of genus > 0 — structurally buildable (the wire
// Build path skips genus validation by design) but semantically not a
// planar embedding.
func corruptedInstance(t *testing.T) *Instance {
	t.Helper()
	in, err := NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := gen.WireOf(in)
	for seed := int64(1); seed < 50; seed++ {
		plan := NewFaultPlan(seed, FaultSpec{Structural: 4})
		rot := make([][]int, len(w.Rotations))
		for v := range rot {
			rot[v] = append([]int(nil), w.Rotations[v]...)
		}
		if plan.SpliceFaces(1, rot) == 0 {
			continue
		}
		cw := *w
		cw.Rotations = rot
		bad, err := cw.Build()
		if err != nil {
			t.Fatalf("seed %d: corrupted wire did not build: %v", seed, err)
		}
		if bad.Emb.Genus() != 0 {
			return bad
		}
	}
	t.Fatal("no seed produced a genus-raising corruption")
	return nil
}

// TestValidateEmbeddingFacade pins the facade guard API: planar instances
// accepted, corrupted embeddings rejected with a typed witness.
func TestValidateEmbeddingFacade(t *testing.T) {
	in, err := NewWheel(10)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ValidateEmbedding(in, GuardOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK || v.Err() != nil {
		t.Fatalf("wheel rejected: %+v", v.Witness)
	}

	bad := corruptedInstance(t)
	v, err = ValidateEmbedding(bad, GuardOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("corrupted embedding accepted")
	}
	rerr := v.Err()
	if !errors.Is(rerr, ErrInputRejected) {
		t.Fatalf("rejection does not match ErrInputRejected: %v", rerr)
	}
	var re *GuardRejectionError
	if !errors.As(rerr, &re) || re.Witness.Reason != "euler" {
		t.Fatalf("want euler witness, got %v", rerr)
	}
}

// TestValidatePlanarityFacade pins the bare-graph path on K5.
func TestValidatePlanarityFacade(t *testing.T) {
	g := NewGraphK(t, 5)
	v, err := ValidatePlanarity(g, GuardOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Witness.Reason != "edge-count" {
		t.Fatalf("K5 verdict OK=%v witness=%+v", v.OK, v.Witness)
	}
}

// NewGraphK builds the complete graph on n vertices (test helper).
func NewGraphK(t *testing.T, n int) *Graph {
	t.Helper()
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if _, err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestBuildDFSTreeGuarded pins the guarded pipeline run: a valid instance
// runs to certification, a corrupted one is rejected with the typed
// witness before any later stage runs.
func TestBuildDFSTreeGuarded(t *testing.T) {
	in, err := NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	guarded := func(in *Instance) (*PipelineResult, error) {
		adm, err := ValidateEmbedding(in, GuardOptions{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return Run(context.Background(), in, PipelineOptions{Admitted: adm})
	}
	res, err := guarded(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admission.OK || res.Recovery.Outcome != RecoveryCertified {
		t.Fatalf("admission %v, outcome %v; want accepted and certified", res.Admission.OK, res.Recovery.Outcome)
	}
	if err := VerifyDFSTree(in.G, OuterRoot(in), res.Parent); err != nil {
		t.Fatal(err)
	}

	res, err = guarded(corruptedInstance(t))
	if !errors.Is(err, ErrInputRejected) {
		t.Fatalf("corrupted run error %v does not match ErrInputRejected", err)
	}
	var re *GuardRejectionError
	if !errors.As(err, &re) || re.Witness.Reason != "euler" {
		t.Fatalf("want euler witness, got %v", err)
	}
	if res.Admission == nil || res.Admission.OK {
		t.Fatal("rejecting verdict not reported")
	}
	if res.BFS != nil || res.Recovery != nil {
		t.Fatal("a stage after admission ran on a rejected input")
	}
}
