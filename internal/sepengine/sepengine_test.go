package sepengine

import (
	"errors"
	"fmt"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/gen"
	"planardfs/internal/separator"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
	"planardfs/internal/weights"
)

// testFamilies is the engine-matrix coverage set: the wheel defeats pure
// fundamental-cycle engines, grids and cylinders exercise BFS levels,
// stacked and polygon are the random (near-)maximal triangulations.
var testFamilies = []string{"wheel", "grid", "cylinderish", "stacked", "polygon"}

func buildConfig(t testing.TB, family string, n int, seed int64) *weights.Config {
	t.Helper()
	in, err := gen.ByName(family, n, seed)
	if err != nil {
		t.Fatalf("%s/%d: %v", family, n, err)
	}
	root := in.Emb.FaceRoot(in.OuterDart)
	tr, err := spanning.BFSTree(in.G, root)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := weights.NewConfig(in.G, in.Emb, in.OuterDart, tr)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// checkResult validates the full Result contract against the centralized
// cert oracles, independently of the checks finish() already ran.
func checkResult(t *testing.T, cfg *weights.Config, res *Result, name string) {
	t.Helper()
	n := cfg.G.N()
	if err := cert.CheckSeparator(cfg.G, res.Sep); err != nil {
		t.Fatalf("%s: cert rejects separator: %v", name, err)
	}
	side, sidesMax, err := cert.SeparatorSides(cfg.G, res.Sep.Path)
	if err != nil {
		t.Fatalf("%s: no side assignment: %v", name, err)
	}
	if err := cert.CheckSeparatorSides(cfg.G, res.Sep.Path, side); err != nil {
		t.Fatalf("%s: cert rejects sides: %v", name, err)
	}
	if res.CycleLen != len(res.Sep.Path) {
		t.Fatalf("%s: CycleLen %d != path length %d", name, res.CycleLen, len(res.Sep.Path))
	}
	maxComp := separator.VerifyBalance(cfg.G, res.Sep.Path)
	if 3*maxComp > 2*n {
		t.Fatalf("%s: unbalanced: max component %d of n=%d", name, maxComp, n)
	}
	// finish takes Balance from the side assignment's component pass.
	if sidesMax != maxComp || res.Balance != float64(maxComp)/float64(n) {
		t.Fatalf("%s: SeparatorSides largest component %d, Balance %v; VerifyBalance says %d of n=%d",
			name, sidesMax, res.Balance, maxComp, n)
	}
	if res.Balance < 0 || res.Balance > 2.0/3.0+1e-9 {
		t.Fatalf("%s: Balance %v outside [0, 2/3]", name, res.Balance)
	}
	if res.Rounds <= 0 {
		t.Fatalf("%s: non-positive charged rounds %d", name, res.Rounds)
	}
	if len(res.Side) != n {
		t.Fatalf("%s: Side covers %d of %d vertices", name, len(res.Side), n)
	}
}

// TestEngineMatrixSmall runs every registered engine over every family for
// every n in [6, 64]: each run must return a cert-valid separator or the
// typed ErrNoSeparator — never an unvalidated result or a foreign error.
// The default engine must always succeed (it is the paper's constructive
// procedure and its totality is the repo's core claim). Every call is
// traced on a fresh recorder, and a successful one must advance the round
// clock by exactly the Rounds its Result reports.
func TestEngineMatrixSmall(t *testing.T) {
	for _, family := range testFamilies {
		family := family
		t.Run(family, func(t *testing.T) {
			t.Parallel()
			succeeded := make(map[string]int, len(Names()))
			for n := 6; n <= 64; n++ {
				cfg := buildConfig(t, family, n, int64(n))
				for _, name := range Names() {
					rec := trace.NewRecorder()
					res, err := Find(name, cfg, Options{Seed: int64(7*n + 1), Tracer: rec})
					label := fmt.Sprintf("%s/%s/n=%d", name, family, n)
					if err != nil {
						if !errors.Is(err, ErrNoSeparator) {
							t.Fatalf("%s: unexpected error: %v", label, err)
						}
						if name == DefaultEngine {
							t.Fatalf("%s: default engine must be total, got %v", label, err)
						}
						continue
					}
					if res.Engine != name {
						t.Fatalf("%s: result tagged %q", label, res.Engine)
					}
					checkResult(t, cfg, res, label)
					if rec.Now() != int64(res.Rounds) {
						t.Fatalf("%s: trace advances %d rounds, Result.Rounds is %d", label, rec.Now(), res.Rounds)
					}
					succeeded[name]++
				}
			}
			// Every engine must succeed somewhere in the family sweep:
			// "always ErrNoSeparator" would make an engine vacuously correct.
			for _, name := range Names() {
				if succeeded[name] == 0 {
					t.Errorf("%s never produced a separator on family %s", name, family)
				}
			}
		})
	}
}

// TestEngineMatrixLarge is the n=1000 row of the matrix, with the full
// distributed separator PLS run on every successful result.
func TestEngineMatrixLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large matrix row skipped in -short mode")
	}
	for _, family := range testFamilies {
		family := family
		t.Run(family, func(t *testing.T) {
			t.Parallel()
			cfg := buildConfig(t, family, 1000, 1000)
			for _, name := range Names() {
				res, err := Find(name, cfg, Options{Seed: 9001})
				label := fmt.Sprintf("%s/%s/n=1000", name, family)
				if err != nil {
					if !errors.Is(err, ErrNoSeparator) {
						t.Fatalf("%s: unexpected error: %v", label, err)
					}
					if name == DefaultEngine {
						t.Fatalf("%s: default engine must be total, got %v", label, err)
					}
					continue
				}
				checkResult(t, cfg, res, label)
				verdict, err := cert.CertifySeparator(cfg.G, res.Sep, cert.Options{})
				if err != nil {
					t.Fatalf("%s: PLS error: %v", label, err)
				}
				if !verdict.OK {
					t.Fatalf("%s: distributed verifier rejected (rejectors %v)", label, verdict.Rejectors)
				}
			}
		})
	}
}

// TestCorruptedResultsRejected corrupts successful separator paths with
// the chaos structural-fault stream and checks the cert oracle rejects
// every corrupted variant: the validation layer is what stands between an
// engine bug and a silently wrong decomposition.
func TestCorruptedResultsRejected(t *testing.T) {
	for _, family := range testFamilies {
		cfg := buildConfig(t, family, 48, 48)
		n := cfg.G.N()
		for _, name := range Names() {
			res, err := Find(name, cfg, Options{Seed: 5})
			if err != nil {
				continue // matrix tests cover the error contract
			}
			for attempt := 1; attempt <= 3; attempt++ {
				plan := chaos.NewPlan(int64(attempt)*77, chaos.Spec{Structural: 4})
				corrupted := append([]int(nil), res.Sep.Path...)
				if plan.CorruptInts(attempt, n, corrupted) == 0 {
					t.Fatalf("%s/%s: corruption plan applied nothing", name, family)
				}
				bad := &separator.Separator{
					Path: corrupted,
					EndA: res.Sep.EndA,
					EndB: res.Sep.EndB,
				}
				if cert.CheckSeparator(cfg.G, bad) == nil {
					t.Fatalf("%s/%s attempt %d: cert accepted corrupted path %v (original %v)",
						name, family, attempt, corrupted, res.Sep.Path)
				}
			}
		}
	}
}

// TestUnknownEngine checks the discovery contract: unknown names return
// the typed UnknownEngineError naming the available set, and the empty
// name resolves to the default engine.
func TestUnknownEngine(t *testing.T) {
	_, err := Get("no-such-engine")
	var ue *UnknownEngineError
	if !errors.As(err, &ue) {
		t.Fatalf("Get(no-such-engine) = %v, want *UnknownEngineError", err)
	}
	if ue.Name != "no-such-engine" || len(ue.Available) != len(Names()) {
		t.Fatalf("error carries name %q and %d engines, want full set %v", ue.Name, len(ue.Available), Names())
	}
	e, err := Get("")
	if err != nil || e.Name() != DefaultEngine {
		t.Fatalf("Get(\"\") = %v, %v; want the default engine %q", e, err, DefaultEngine)
	}
	if len(Names()) < 5 {
		t.Fatalf("registry holds %v, want at least 5 engines", Names())
	}
}
