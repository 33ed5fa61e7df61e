package cert_test

import (
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/dfs"
	"planardfs/internal/gen"
	"planardfs/internal/separator"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
	"planardfs/internal/weights"
)

func instance(t *testing.T, family string, n int) *gen.Instance {
	t.Helper()
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// findSeparator runs the real Theorem 1 driver on the instance with a BFS
// tree rooted on the outer face.
func findSeparator(t *testing.T, in *gen.Instance) *separator.Separator {
	t.Helper()
	root := in.Emb.FaceRoot(in.OuterDart)
	tr, err := spanning.BFSTree(in.G, root)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := weights.NewConfig(in.G, in.Emb, in.OuterDart, tr)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := separator.Find(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sep
}

func wantOK(t *testing.T, v *cert.Verdict, err error, name string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !v.OK || len(v.Rejectors) != 0 {
		t.Fatalf("%s: verdict not OK, rejectors %v", name, v.Rejectors)
	}
	if v.VerifierRounds > 3 {
		t.Fatalf("%s: verifier took %d rounds, want O(1) <= 3", name, v.VerifierRounds)
	}
	if v.ProverRounds <= 0 || v.AggRounds <= 0 {
		t.Fatalf("%s: missing round accounting: prover %d, agg %d",
			name, v.ProverRounds, v.AggRounds)
	}
}

// TestCertifyAllFamilies certifies all four schemes on correct structures
// from every generator family, cross-checked against the centralized
// oracles.
func TestCertifyAllFamilies(t *testing.T) {
	for _, fam := range gen.Families {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			in := instance(t, fam, 24)
			g := in.G
			opt := cert.Options{}

			st, err := spanning.BFSTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			v, err := cert.CertifySpanningTree(g, st, opt)
			wantOK(t, v, err, "spanning")
			if err := cert.CheckSpanningTree(g, st); err != nil {
				t.Fatalf("spanning oracle: %v", err)
			}

			dt, err := spanning.DeepDFSTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			v, err = cert.CertifyDFSTree(g, 0, dt.Parent, opt)
			wantOK(t, v, err, "dfs")
			if err := dfs.IsDFSTree(g, 0, dt.Parent); err != nil {
				t.Fatalf("dfs oracle: %v", err)
			}

			sep := findSeparator(t, in)
			v, err = cert.CertifySeparator(g, sep, opt)
			wantOK(t, v, err, "separator")
			if err := cert.CheckSeparator(g, sep); err != nil {
				t.Fatalf("separator oracle: %v", err)
			}

			v, err = cert.NewVerifier(g, opt).CertifyEmbedding(in.Emb)
			wantOK(t, v, err, "embedding")
			if v.EulerSum != 4 {
				t.Fatalf("embedding: Euler sum %d, want 4", v.EulerSum)
			}
			if err := in.Emb.Validate(); err != nil {
				t.Fatalf("embedding oracle: %v", err)
			}
		})
	}
}

// TestVerifierRoundsConstant pins the O(1) verification claim: the label
// exchange takes the same constant round count regardless of n.
func TestVerifierRoundsConstant(t *testing.T) {
	var rounds []int
	for _, n := range []int{16, 64, 144} {
		in := instance(t, "grid", n)
		st, err := spanning.BFSTree(in.G, 0)
		if err != nil {
			t.Fatal(err)
		}
		v, err := cert.CertifySpanningTree(in.G, st, cert.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, v.VerifierRounds)
	}
	for _, r := range rounds {
		if r != rounds[0] || r > 3 {
			t.Fatalf("verifier rounds not constant: %v", rounds)
		}
	}
}

// TestCertTracing asserts the cert layer lands in the trace: a scheme span
// with prove/verify/fold children, and a clock advanced by exactly the
// prover charge plus the simulated network rounds.
func TestCertTracing(t *testing.T) {
	in := instance(t, "grid", 25)
	st, err := spanning.BFSTree(in.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	v, err := cert.CertifySpanningTree(in.G, st, cert.Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Fatal("verdict not OK")
	}
	names := map[string]int{}
	for _, sp := range rec.Spans() {
		if sp.Layer == trace.LayerCert {
			names[sp.Name]++
		}
	}
	for _, want := range []string{"cert.spanning", "cert.prove", "cert.verify", "cert.fold"} {
		if names[want] == 0 {
			t.Fatalf("missing cert span %q in %v", want, names)
		}
	}
	wantClock := int64(v.ProverRounds + v.VerifierRounds + v.AggRounds)
	if rec.Now() != wantClock {
		t.Fatalf("round clock at %d, want prover+verify+agg = %d", rec.Now(), wantClock)
	}
}
