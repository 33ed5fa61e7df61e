package planardfs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

func TestPublicSeparatorFlow(t *testing.T) {
	in, err := NewStackedTriangulation(120, 3)
	if err != nil {
		t.Fatal(err)
	}
	root := OuterRoot(in)
	for _, kind := range []TreeKind{TreeBFS, TreeDeepDFS} {
		cfg, err := NewConfig(in, kind, root)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FindCycleSeparator(cfg, "", SeparatorEngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds <= 0 {
			t.Fatalf("kind %d: the call charged %d rounds", kind, res.Rounds)
		}
		n := in.G.N()
		if maxC := VerifySeparatorBalance(in.G, res.Sep.Path); 3*maxC > 2*n {
			t.Fatalf("kind %d: unbalanced: %d of %d", kind, maxC, n)
		}
	}
	if _, err := NewConfig(in, TreeKind(99), root); err == nil {
		t.Fatal("unknown tree kind accepted")
	}
}

func TestPublicDFSFlow(t *testing.T) {
	in, err := NewGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), in, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDFSTree(in.G, OuterRoot(in), res.Parent); err != nil {
		t.Fatal(err)
	}
	if res.DFSTrace.Phases == 0 {
		t.Fatal("empty trace")
	}
	// Round accounting: deterministic Õ(D) beats Awerbuch's Θ(n) once n is
	// large relative to D... at this size just check that the run charged
	// its stages.
	if res.DFSRounds <= 0 || res.Separator.Rounds <= 0 || res.Rounds() <= res.DFSRounds {
		t.Fatalf("charged rounds: dfs %d, separator %d, build %d", res.DFSRounds, res.Separator.Rounds, res.Rounds())
	}
	if AwerbuchRounds(in.G.N()) != 2*(in.G.N()-1)+1 {
		t.Fatal("Awerbuch bound wrong")
	}
}

func TestPublicPartitionFlow(t *testing.T) {
	in, err := NewGrid(9, 6)
	if err != nil {
		t.Fatal(err)
	}
	partOf := make([]int, in.G.N())
	for y := 0; y < 6; y++ {
		for x := 0; x < 9; x++ {
			partOf[y*9+x] = x / 3
		}
	}
	part, err := NewPartition(partOf)
	if err != nil {
		t.Fatal(err)
	}
	results, err := SeparatorsForPartition(in, part)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parts = %d", len(results))
	}
	// A partition of fewer vertices than the instance has is rejected.
	short, err := NewPartition(partOf[:12])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SeparatorsForPartition(in, short); err == nil {
		t.Fatal("partition of 12 of 54 vertices accepted")
	}
	// Invalid partition rejected.
	bad := make([]int, in.G.N())
	for v := range bad {
		bad[v] = v % 2
	}
	if badPart, err := NewPartition(bad); err == nil {
		if _, err := SeparatorsForPartition(in, badPart); err == nil {
			t.Fatal("disconnected parts accepted")
		}
	}
}

func TestPublicCongestPrograms(t *testing.T) {
	in, err := NewGrid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	parent, stats, err := RunAwerbuchDFS(in.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDFSTree(in.G, 0, parent); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds > AwerbuchRounds(in.G.N())+1 {
		t.Fatalf("Awerbuch rounds %d exceed bound %d", stats.Rounds, AwerbuchRounds(in.G.N()))
	}

	partOf := make([]int, in.G.N())
	value := make([]int, in.G.N())
	for v := range partOf {
		partOf[v] = v % 4
		value[v] = 1
	}
	part, err := NewPartition(partOf)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunPartwiseSum(in.G, 0, part, value)
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range res {
		if r != 9 {
			t.Fatalf("vertex %d: part sum %d, want 9", v, r)
		}
	}
}

func TestPublicBaselines(t *testing.T) {
	in, err := NewStackedTriangulation(90, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewConfig(in, TreeBFS, OuterRoot(in))
	if err != nil {
		t.Fatal(err)
	}
	// The sample count is reported on success and, through
	// NoSeparatorError, on a soft failure.
	res, err := FindCycleSeparator(cfg, "randomized", SeparatorEngineOptions{Seed: 4, SampleRate: 1.0})
	samples := 0
	var nse *NoSeparatorError
	switch {
	case err == nil:
		samples = res.Samples
	case errors.As(err, &nse):
		samples = nse.Samples
	default:
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("full sample reported zero samples")
	}
	lvl := BFSLevelSeparator(in.G, 0)
	if len(lvl) == 0 {
		t.Fatal("empty level separator")
	}
	if 2*VerifySeparatorBalance(in.G, lvl) > in.G.N() {
		t.Fatal("level separator unbalanced")
	}
}

func TestPublicDecompose(t *testing.T) {
	in, err := NewStackedTriangulation(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecomposeGraph(in, 15)
	if err != nil {
		t.Fatal(err)
	}
	if d.Leaves == 0 || d.MaxDepth == 0 {
		t.Fatalf("trivial decomposition: %+v", d)
	}
	seen := 0
	d.Walk(func(n *DecompositionNode) {
		seen += len(n.Separator)
		if len(n.Children) == 0 {
			seen += len(n.Vertices)
		}
	})
	if seen != in.G.N() {
		t.Fatalf("decomposition covers %d of %d vertices", seen, in.G.N())
	}
}

func TestPublicRecoveryFlow(t *testing.T) {
	in, err := NewGrid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	root := OuterRoot(in)
	ctx := context.Background()

	// Fault-free supervision: one attempt, certified.
	res, err := Run(ctx, in, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Outcome != RecoveryCertified {
		t.Fatalf("fault-free outcome = %v, want certified", res.Recovery.Outcome)
	}
	if err := VerifyDFSTree(in.G, root, res.Parent); err != nil {
		t.Fatal(err)
	}

	// Structural faults decay across attempts: the supervisor must either
	// certify a correct tree after retries or degrade to the (message-level)
	// Awerbuch fallback — never return an uncertified tree.
	spec, err := ParseFaultSpec("structural=3")
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlan(11, spec)
	rec := NewTraceRecorder()
	res, err = Run(ctx, in, PipelineOptions{Plan: plan, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Recovery
	switch rep.Outcome {
	case RecoveryCertifiedRetry, RecoveryDegraded:
	default:
		t.Fatalf("outcome = %v, want retry or degraded under structural faults", rep.Outcome)
	}
	if err := VerifyDFSTree(in.G, root, res.Parent); err != nil {
		t.Fatalf("supervised run returned a non-DFS tree: %v", err)
	}
	if rep.Faults.Structural == 0 {
		t.Fatal("no structural fault fired")
	}
	if rec.Counter("chaos.attempts") < 2 {
		t.Fatal("retry not visible in metrics")
	}
	if len(rep.Verdicts) == 0 {
		t.Fatal("no distributed verdicts recorded")
	}
}

// TestOutOfRangeRoot checks that every facade call taking a root rejects
// one outside the graph with an error instead of panicking.
func TestOutOfRangeRoot(t *testing.T) {
	in, err := NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(make([]int, in.G.N()))
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		call func(root int) error
		// exact requires the error to be the graph's own vertex check,
		// returned before any network is built.
		exact bool
	}{
		{"NewConfig/BFS", func(root int) error {
			_, err := NewConfig(in, TreeBFS, root)
			return err
		}, false},
		{"NewConfig/DeepDFS", func(root int) error {
			_, err := NewConfig(in, TreeDeepDFS, root)
			return err
		}, false},
		{"RunAwerbuchDFS", func(root int) error {
			_, _, err := RunAwerbuchDFS(in.G, root)
			return err
		}, true},
		{"RunPartwiseSum", func(root int) error {
			_, _, err := RunPartwiseSum(in.G, root, part, make([]int, in.G.N()))
			return err
		}, true},
	}
	for _, c := range calls {
		for _, root := range []int{-1, in.G.N()} {
			t.Run(fmt.Sprintf("%s/root=%d", c.name, root), func(t *testing.T) {
				err := c.call(root)
				if err == nil {
					t.Fatal("out-of-range root accepted")
				}
				if want := in.G.CheckVertex(root); c.exact && err.Error() != want.Error() {
					t.Fatalf("error = %q, want %q", err, want)
				}
			})
		}
	}
}

// TestOuterDartOutOfRange checks that every facade call reading the
// instance's outer dart rejects one outside the embedding with the
// embedding's own error instead of panicking, the guarded Run included:
// there the guard's shape stage rejects the dart with that error as its
// witness.
func TestOuterDartOutOfRange(t *testing.T) {
	in, err := NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := NewPartition(make([]int, in.G.N()))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{-1, 1 << 20} {
		bad := *in
		bad.OuterDart = d
		want := fmt.Sprintf("planar: outer dart %d out of range", d)
		calls := []struct {
			name string
			call func() error
		}{
			{"Run", func() error {
				_, err := Run(context.Background(), &bad, PipelineOptions{})
				return err
			}},
			{"Run/guard", func() error {
				adm, err := ValidateEmbedding(&bad, GuardOptions{Seed: 1})
				if err != nil {
					return err
				}
				_, err = Run(context.Background(), &bad, PipelineOptions{Admitted: adm})
				return err
			}},
			{"NewConfig", func() error {
				_, err := NewConfig(&bad, TreeBFS, 0)
				return err
			}},
			{"SeparatorsForPartition", func() error {
				_, err := SeparatorsForPartition(&bad, whole)
				return err
			}},
			// A leaf size of n splits no piece, so no separator reads
			// the dart.
			{"DecomposeGraph", func() error {
				_, err := DecomposeGraph(&bad, in.G.N())
				return err
			}},
		}
		for _, c := range calls {
			t.Run(fmt.Sprintf("%s/dart=%d", c.name, d), func(t *testing.T) {
				err := c.call()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("error = %v, want one reporting %q", err, want)
				}
			})
		}
	}
}

// TestCertifyRejectsNilInputs: a nil tree, separator or embedding is an
// error from the facade's Verifier and the cert package alike, not a nil
// dereference.
func TestCertifyRejectsNilInputs(t *testing.T) {
	in, err := NewGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		call func() (*CertVerdict, error)
	}{
		{"CertifySpanningTree", func() (*CertVerdict, error) { return NewVerifier(in.G, CertOptions{}).CertifySpanningTree(nil) }},
		{"CertifySeparator", func() (*CertVerdict, error) { return NewVerifier(in.G, CertOptions{}).CertifySeparator(nil) }},
		{"CertifyEmbedding", func() (*CertVerdict, error) { return NewVerifier(in.G, CertOptions{}).CertifyEmbedding(nil) }},
		{"cert.CertifySpanningTree", func() (*CertVerdict, error) { return cert.CertifySpanningTree(in.G, nil, cert.Options{}) }},
		{"cert.CertifySeparator", func() (*CertVerdict, error) { return cert.CertifySeparator(in.G, nil, cert.Options{}) }},
		{"Verifier.CertifyEmbedding", func() (*CertVerdict, error) {
			return cert.NewVerifier(in.G, cert.Options{}).CertifyEmbedding(nil)
		}},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			v, err := c.call()
			if err == nil || v != nil {
				t.Fatalf("got verdict %v, error %v; want an error", v, err)
			}
		})
	}
}

// TestFindCycleSeparatorMatchesRun: on every family, the facade's separator
// call on the BFS configuration rooted at OuterRoot returns the separator,
// and charges the rounds, of the separator stage of Run on the same
// instance.
func TestFindCycleSeparatorMatchesRun(t *testing.T) {
	for _, fam := range gen.Families {
		in, err := gen.ByName(fam, 40, 3)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := NewConfig(in, TreeBFS, OuterRoot(in))
		if err != nil {
			t.Fatal(err)
		}
		got, err := FindCycleSeparator(cfg, "", SeparatorEngineOptions{})
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		res, err := Run(context.Background(), in, PipelineOptions{})
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		a, b := got.Sep, res.Separator.Sep
		if !slices.Equal(a.Path, b.Path) || a.EndA != b.EndA || a.EndB != b.EndB || a.Phase != b.Phase || got.Rounds != res.Separator.Rounds {
			t.Fatalf("%s: FindCycleSeparator gave path %v, ends %d..%d, phase %v, %d rounds; Run gave %v, %d..%d, %v, %d rounds",
				in.Name, a.Path, a.EndA, a.EndB, a.Phase, got.Rounds, b.Path, b.EndA, b.EndB, b.Phase, res.Separator.Rounds)
		}
	}
}

// TestRunRejectsMalformedInstance: an instance without a graph or an
// embedding, or whose embedding is of another graph, is an error from
// Run, the Theorem 1 pipeline and NewConfig before any stage runs, not a
// nil dereference or a whole DFS build; weights.NewConfig refuses a nil
// embedding the same way.
func TestRunRejectsMalformedInstance(t *testing.T) {
	in, err := NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewGrid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name string
		in   *Instance
	}{
		{"nil", nil},
		{"empty", &Instance{}},
		{"graph only", &Instance{G: in.G}},
		{"embedding only", &Instance{Emb: in.Emb}},
		{"embedding of another graph", &Instance{G: in.G, Emb: other.Emb, OuterDart: in.OuterDart}},
	} {
		for _, run := range []struct {
			name string
			run  func(context.Context, *Instance, PipelineOptions) (*PipelineResult, error)
		}{{"Run", Run}, {"Separate", pipeline.Separate}} {
			res, err := run.run(context.Background(), bad.in, PipelineOptions{})
			if err == nil {
				t.Errorf("%s: %s accepted a malformed instance", bad.name, run.name)
			} else if res.BFS != nil || res.Recovery != nil {
				t.Errorf("%s: %s ran a stage on a malformed instance", bad.name, run.name)
			}
		}
		if _, err := NewConfig(bad.in, TreeBFS, 0); err == nil {
			t.Errorf("%s: NewConfig accepted a malformed instance", bad.name)
		}
	}
	tree, err := spanning.BFSTree(in.G, OuterRoot(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := weights.NewConfig(in.G, nil, in.OuterDart, tree); err == nil {
		t.Error("weights.NewConfig accepted a nil embedding")
	}
}
