package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/dfs"
	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/sepengine"
	"planardfs/internal/trace"
)

func instance(t *testing.T, family string, n int, seed int64) *gen.Instance {
	t.Helper()
	in, err := gen.ByName(family, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestRunTraceGolden pins the default run byte for byte. The charged
// rounds were recorded when the Lemma 2 JOIN began walking the separator
// path, which changed the DFS trees, their phases and their JOIN
// sub-phases; the digests when the separator stage began charging its
// trace as one sepengine.theorem1 call (dist.SeparatorOps) instead of
// per Lemma 1 phase. Both were re-recorded when certification began
// folding verdicts with a convergecast and broadcast (2·depth+1 rounds,
// not part-wise aggregation's 2·depth+3), 2 rounds fewer for each of the
// three verdicts: 2,003,981 → 2,003,975 and 697,878 → 697,872 rounds.
func TestRunTraceGolden(t *testing.T) {
	cases := []struct {
		family string
		n      int
		seed   int64
		digest string
		rounds int
	}{
		{"grid", 100, 1, "00b4d4a6ca5371be301abcf6a8e272945ad7bc114a2dc3beb1c5cbe03d870135", 2003975},
		{"stacked", 150, 7, "29a39472084dc9b8c8d32470358b1d43abbb87e5b754bbfc332c5e4de8168a95", 697872},
	}
	for _, c := range cases {
		rec := trace.NewRecorder()
		res, err := Run(context.Background(), instance(t, c.family, c.n, c.seed), Options{Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := rec.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != c.digest {
			t.Errorf("%s: trace digest %s, want %s", c.family, got, c.digest)
		}
		if res.Rounds() != c.rounds {
			t.Errorf("%s: rounds %d, want %d", c.family, res.Rounds(), c.rounds)
		}
	}
}

// TestRunDefaultReports checks every stage report of a fault-free run.
func TestRunDefaultReports(t *testing.T) {
	in := instance(t, "stacked", 150, 7)
	res, err := Run(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admission != nil {
		t.Fatal("an unguarded run reports an admission")
	}
	if res.Recovery.Outcome != chaos.OutcomeCertified || len(res.Recovery.Attempts) != 1 {
		t.Fatalf("dfs stage %v after %d attempts, want certified after 1",
			res.Recovery.Outcome, len(res.Recovery.Attempts))
	}
	pt, _, err := dfs.Build(in.G, in.Emb, in.OuterDart, res.Root)
	if err != nil {
		t.Fatal(err)
	}
	for v := range pt.Parent {
		if pt.Parent[v] != res.Parent[v] {
			t.Fatalf("parent[%d] = %d, dfs.Build says %d", v, res.Parent[v], pt.Parent[v])
		}
	}
	if res.DFS.Root != res.Root || res.BFS.Root != res.Root {
		t.Fatal("trees not rooted at Root")
	}
	if res.DFSTrace.Phases == 0 || res.DFSTrace.EngineFallbacks != 0 {
		t.Fatalf("dfs trace %+v", res.DFSTrace)
	}
	if res.Separator.Engine != sepengine.DefaultEngine {
		t.Fatalf("separator engine %q", res.Separator.Engine)
	}
	want := res.DFSRounds
	for i, scheme := range []string{"spanning", "dfs", "separator"} {
		v := res.Verdicts[i]
		if v.Scheme != scheme || !v.OK {
			t.Fatalf("verdict %d: %s ok=%v, want %s accepted", i, v.Scheme, v.OK, scheme)
		}
		want += v.ProverRounds + v.VerifierRounds + v.AggRounds
	}
	if res.DFSRounds <= 0 || res.Rounds() != want {
		t.Fatalf("rounds %d (dfs %d), want %d", res.Rounds(), res.DFSRounds, want)
	}
}

// TestRunEngineDrivesDFSComponents pins that a non-default engine runs the
// DFS stage's per-component separators as well as the whole-instance one:
// the run's tree and DFS trace are those of a build whose components all go
// through the engine, and they differ from the default engine's. Only the
// whole-instance call is traced; the components' rounds are charged from
// the DFS trace.
func TestRunEngineDrivesDFSComponents(t *testing.T) {
	in := instance(t, "stacked", 150, 7)
	rec := trace.NewRecorder()
	res, err := Run(context.Background(), in, Options{Engine: "lipton-tarjan", Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Separator.Engine != "lipton-tarjan" {
		t.Fatalf("separator engine %q", res.Separator.Engine)
	}
	eng, err := sepengine.Get("lipton-tarjan")
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := 0
	pt, dtr, err := dfs.BuildWithSeparator(in.G, in.Emb, in.OuterDart, res.Root, nil, componentFinder(eng, &fallbacks))
	if err != nil {
		t.Fatal(err)
	}
	dtr.EngineFallbacks = fallbacks
	if !reflect.DeepEqual(pt.Parent, res.Parent) || !reflect.DeepEqual(dtr, res.DFSTrace) {
		t.Fatal("the run's DFS tree is not the engine-driven build's")
	}
	def, err := Run(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(def.Parent, res.Parent) {
		t.Fatal("the engine left the DFS tree unchanged; the components did not use it")
	}
	calls := 0
	for _, sp := range rec.Spans() {
		if sp.Name == "sepengine.lipton-tarjan" {
			calls++
		}
	}
	if calls != 1 {
		t.Fatalf("engine traced %d times, want once (the whole-instance separator)", calls)
	}
}

// TestTraceChargesTheRoundTally holds the trace to the one round account:
// on fault-free runs the accepted dfs-stage attempt advances the round
// clock by exactly Result.DFSRounds plus its DFS verdict's rounds, the
// separator stage (one sepengine.theorem1 charge) by exactly
// Result.Separator.Rounds, and the clock ends at Result.Rounds() plus
// Result.Separator.Rounds. On a run with structural faults, every
// Theorem 2 attempt advances by the rounds it reports plus its verdict's.
func TestTraceChargesTheRoundTally(t *testing.T) {
	verdictRounds := func(v *cert.Verdict) int64 {
		return int64(v.ProverRounds + v.VerifierRounds + v.AggRounds)
	}
	attr := func(sp trace.SpanEvent, key string) int64 {
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Val
			}
		}
		t.Fatalf("span %s has no %q attribute", sp.Name, key)
		return 0
	}
	attempts := func(rec *trace.Recorder) []trace.SpanEvent {
		var out []trace.SpanEvent
		for _, sp := range rec.Spans() {
			if sp.Name == "chaos.attempt" {
				out = append(out, sp)
			}
		}
		return out
	}
	for _, c := range []struct {
		family string
		n      int
	}{{"grid", 256}, {"cylinderish", 300}, {"stacked", 300}} {
		rec := trace.NewRecorder()
		res, err := Run(context.Background(), instance(t, c.family, c.n, 1), Options{Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		at := attempts(rec)
		if len(at) != 1 {
			t.Fatalf("%s: %d attempts, want 1", c.family, len(at))
		}
		dfsVerdict := res.Verdicts[1]
		if got, want := at[0].End-at[0].Start, int64(res.DFSRounds)+verdictRounds(dfsVerdict); got != want {
			t.Errorf("%s: dfs stage advances %d rounds, want DFSRounds %d + verdict %d", c.family, got, res.DFSRounds, verdictRounds(dfsVerdict))
		}
		stages := 0
		for _, sp := range rec.Spans() {
			if sp.Parent == -1 && sp.Name == "sepengine."+sepengine.DefaultEngine {
				stages++
				if got := sp.End - sp.Start; got != int64(res.Separator.Rounds) {
					t.Errorf("%s: separator stage advances %d rounds, want Separator.Rounds %d", c.family, got, res.Separator.Rounds)
				}
			}
		}
		if stages != 1 {
			t.Fatalf("%s: %d separator stage spans, want 1", c.family, stages)
		}
		if rec.Now() != int64(res.Rounds()+res.Separator.Rounds) {
			t.Errorf("%s: clock %d, want Rounds() %d + Separator.Rounds %d", c.family, rec.Now(), res.Rounds(), res.Separator.Rounds)
		}
	}

	rec := trace.NewRecorder()
	plan := chaos.NewPlan(11, chaos.Spec{Structural: 3})
	res, err := Run(context.Background(), instance(t, "grid", 36, 1), Options{Plan: plan, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	// An attempt whose parents fail the prover's structural precheck is
	// rejected before any distributed verification, so it has no verdict;
	// every other attempt has the next one.
	at, vs := attempts(rec), res.Recovery.Verdicts
	primary, verified := 0, 0
	for i, a := range res.Recovery.Attempts {
		var want int64
		if !strings.HasPrefix(a.Err, "structural precheck") {
			want = verdictRounds(vs[0])
			vs = vs[1:]
			if a.Stage == "separator-pipeline" {
				verified++
			}
		}
		if a.Stage != "separator-pipeline" {
			continue
		}
		primary++
		want += attr(at[i], "rounds")
		if got := at[i].End - at[i].Start; got != want {
			t.Errorf("faulted attempt %d advances %d rounds, want %d", a.Attempt, got, want)
		}
	}
	if primary < 2 || verified == 0 {
		t.Fatalf("%d Theorem 2 attempts, %d verified; the plan should force a retry", primary, verified)
	}
}

// corrupted returns a grid whose rotation system has genus > 0: buildable,
// but not a planar embedding.
func corrupted(t *testing.T) *gen.Instance {
	t.Helper()
	w := gen.WireOf(instance(t, "grid", 16, 1))
	for seed := int64(1); seed < 50; seed++ {
		cw := *w
		cw.Rotations = make([][]int, len(w.Rotations))
		for v := range cw.Rotations {
			cw.Rotations[v] = append([]int(nil), w.Rotations[v]...)
		}
		if chaos.NewPlan(seed, chaos.Spec{Structural: 4}).SpliceFaces(1, cw.Rotations) == 0 {
			continue
		}
		bad, err := cw.Build()
		if err != nil {
			t.Fatal(err)
		}
		if bad.Emb.Genus() != 0 {
			return bad
		}
	}
	t.Fatal("no seed produced a genus-raising corruption")
	return nil
}

// TestRunGuard pins the admit stage: an accepted input runs on, a rejected
// one ends with the typed witness before any other stage runs.
func TestRunGuard(t *testing.T) {
	guarded := func(in *gen.Instance) (*Result, error) {
		adm, err := guard.ValidateInstance(in, guard.Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return Run(context.Background(), in, Options{Admitted: adm})
	}
	res, err := guarded(instance(t, "grid", 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admission.OK || len(res.Verdicts) != 3 {
		t.Fatalf("admitted run: admission %v, %d verdicts", res.Admission.OK, len(res.Verdicts))
	}

	res, err = guarded(corrupted(t))
	var re *guard.RejectionError
	if !errors.Is(err, guard.ErrRejected) || !errors.As(err, &re) || re.Witness.Reason != "euler" {
		t.Fatalf("corrupted input: %v, want an euler rejection", err)
	}
	if res.Admission == nil || res.BFS != nil || res.Recovery != nil {
		t.Fatal("a stage after admission ran on a rejected input")
	}
}

// TestRunAdoptsTheAdmission pins the one certification context of a
// guarded build. A run handed an admission (Admitted) certifies on the
// admission's Verifier and reports exactly the verdicts and rounds of an
// unguarded run. Traced with its admission on one recorder, the guarded
// run records the pinned trace, whose digests were recorded when the
// admission could also run inside Run, re-recorded when the guard
// dropped its distributed rotation check and again when certification
// began folding with a convergecast and broadcast and the guard began
// folding once, and its clock ends at
// Admission.Rounds + Rounds() + Separator.Rounds; a run handed an untraced
// admission records the unguarded run's trace byte for byte. An
// admission's context serves one build of its own graph only.
func TestRunAdoptsTheAdmission(t *testing.T) {
	jsonl := func(rec *trace.Recorder) []byte {
		var b bytes.Buffer
		if err := rec.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, c := range []struct {
		in     *gen.Instance
		digest string
	}{
		{instance(t, "grid", 100, 1), "768c6ce86ef2899479b5c831581feacece5013186a43cff66ad2830265ef70c2"},
		{instance(t, "stacked", 150, 7), "f9f19b304c30924bd95ae3ff5b132ed8729c7d78c07b72f5703be635d9e32d95"},
	} {
		in := c.in
		plain := trace.NewRecorder()
		want, err := Run(context.Background(), in, Options{Tracer: plain})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		adm, err := guard.ValidateInstance(in, guard.Options{Seed: 1, Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		guarded, err := Run(context.Background(), in, Options{Admitted: adm, Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(jsonl(rec))); got != c.digest {
			t.Errorf("%s: guarded trace digest %s, want %s", in.Name, got, c.digest)
		}
		if got, want := rec.Now(), int64(guarded.Admission.Rounds+guarded.Rounds()+guarded.Separator.Rounds); got != want {
			t.Errorf("%s: guarded clock %d, want Admission.Rounds %d + Rounds() %d + Separator.Rounds %d",
				in.Name, got, guarded.Admission.Rounds, guarded.Rounds(), guarded.Separator.Rounds)
		}
		if adm, err = guard.ValidateInstance(in, guard.Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
		handed := trace.NewRecorder()
		admitted, err := Run(context.Background(), in, Options{Admitted: adm, Tracer: handed})
		if err != nil {
			t.Fatal(err)
		}
		if admitted.Admission != adm {
			t.Errorf("%s: Result.Admission is not the handed-in verdict", in.Name)
		}
		if !bytes.Equal(jsonl(handed), jsonl(plain)) {
			t.Errorf("%s: a run on a handed-in admission traces differently from an unguarded run", in.Name)
		}
		for _, res := range []*Result{guarded, admitted} {
			if !reflect.DeepEqual(res.Verdicts, want.Verdicts) || res.Rounds() != want.Rounds() {
				t.Errorf("%s: guarded verdicts or rounds (%d) differ from the unguarded run's (%d)", in.Name, res.Rounds(), want.Rounds())
			}
		}
		if _, err := Run(context.Background(), in, Options{Admitted: adm}); err == nil {
			t.Errorf("%s: an admission whose context was taken served a second build", in.Name)
		}
	}

	grid, other := instance(t, "grid", 36, 1), instance(t, "grid", 36, 1)
	adm, err := guard.ValidateInstance(other, guard.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), grid, Options{Admitted: adm}); err == nil {
		t.Error("an admission of another graph was adopted")
	}
	bad := corrupted(t)
	if adm, err = guard.ValidateInstance(bad, guard.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), bad, Options{Admitted: adm}); !errors.Is(err, guard.ErrRejected) {
		t.Errorf("a rejecting admission: %v, want its typed rejection", err)
	}
}

// TestRunFaultsStayCertified drives the dfs stage through structural
// faults: the run retries or degrades, and every stage still certifies.
func TestRunFaultsStayCertified(t *testing.T) {
	in := instance(t, "grid", 36, 1)
	plan := chaos.NewPlan(11, chaos.Spec{Structural: 3})
	res, err := Run(context.Background(), in, Options{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	switch res.Recovery.Outcome {
	case chaos.OutcomeCertifiedRetry, chaos.OutcomeDegraded:
	default:
		t.Fatalf("outcome %v, want retry or degraded", res.Recovery.Outcome)
	}
	if res.Recovery.Faults.Structural == 0 {
		t.Fatal("no structural fault fired")
	}
	if err := dfs.IsDFSTree(in.G, res.Root, res.Parent); err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Verdicts {
		if !v.OK {
			t.Fatalf("%s rejected", v.Scheme)
		}
	}
}

// runs lists both pipelines for the tests that hold them to the same checks.
var runs = []struct {
	name string
	run  func(context.Context, *gen.Instance, Options) (*Result, error)
}{{"Run", Run}, {"Separate", Separate}}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range runs {
		if _, err := r.run(ctx, instance(t, "grid", 36, 1), Options{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled %s: %v", r.name, err)
		}
	}
}

func TestRunUnknownEngine(t *testing.T) {
	for _, r := range runs {
		_, err := r.run(context.Background(), instance(t, "grid", 36, 1), Options{Engine: "nope"})
		var ue *sepengine.UnknownEngineError
		if !errors.As(err, &ue) {
			t.Fatalf("%s with an unknown engine: %v", r.name, err)
		}
	}
}

// TestRunEdgeless checks that an unguarded run over a single vertex, an
// instance with no dart to name its outer face, returns an error before
// the spanning stage instead of panicking in the root rule.
func TestRunEdgeless(t *testing.T) {
	in, err := gen.PathTree(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		res, err := r.run(context.Background(), in, Options{})
		if err == nil {
			t.Fatalf("%s accepted an edgeless instance", r.name)
		}
		if res.BFS != nil || res.Recovery != nil {
			t.Fatalf("%s ran a stage on an edgeless instance", r.name)
		}
	}
}

// TestDFSVerdictIsCertifiedOnce checks the verdict the certify stage takes
// from the dfs stage against the certification it replaced: it must equal,
// field by field, an independent cert.CertifyDFSTree of the returned tree,
// fault-free, after a retry forced by structural faults, and after
// degrading to the Awerbuch fallback. No cert.dfs span may run beyond the
// dfs stage's own attempts.
func TestDFSVerdictIsCertifiedOnce(t *testing.T) {
	in := instance(t, "grid", 36, 1)
	// The faulted plans leave rejecting DFS verdicts ahead of the accepted
	// one, so taking any verdict but the last would be caught.
	cases := []struct {
		name     string
		opts     Options
		outcome  chaos.Outcome
		verdicts int
	}{
		{"fault-free", Options{}, chaos.OutcomeCertified, 1},
		{"retry", Options{Plan: chaos.NewPlan(5, chaos.Spec{Structural: 2})}, chaos.OutcomeCertifiedRetry, 3},
		{"degraded", Options{Plan: chaos.NewPlan(5, chaos.Spec{Structural: 4})}, chaos.OutcomeDegraded, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := trace.NewRecorder()
			opts := c.opts
			opts.Tracer = rec
			res, err := Run(context.Background(), in, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Recovery.Outcome != c.outcome || len(res.Recovery.Verdicts) != c.verdicts {
				t.Fatalf("outcome %v with %d dfs-stage verdicts, want %v with %d",
					res.Recovery.Outcome, len(res.Recovery.Verdicts), c.outcome, c.verdicts)
			}
			got := res.Verdicts[1]
			if got.Scheme != "dfs" || !got.OK {
				t.Fatalf("dfs verdict %s ok=%v, want an accepting dfs verdict", got.Scheme, got.OK)
			}
			if last := res.Recovery.Verdicts[len(res.Recovery.Verdicts)-1]; got != last {
				t.Fatal("the dfs verdict is not the accepted attempt's")
			}
			want, err := cert.CertifyDFSTree(in.G, res.Root, res.Parent, cert.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reused dfs verdict differs from an independent certification\n got: %+v\nwant: %+v", got, want)
			}
			spans := 0
			for _, sp := range rec.Spans() {
				if sp.Name == "cert.dfs" {
					spans++
				}
			}
			if spans != len(res.Recovery.Verdicts) {
				t.Fatalf("%d cert.dfs spans for %d dfs-stage verdicts: the tree was certified again", spans, len(res.Recovery.Verdicts))
			}
		})
	}
}

// TestAcceptedDFSVerdictTyped pins the certify stage's guard on the dfs
// stage's report: a run whose last verdict is missing, nil, rejecting or
// of another scheme ends with ErrNoVerdict instead of a panic.
func TestAcceptedDFSVerdictTyped(t *testing.T) {
	accept := &cert.Verdict{Scheme: "dfs", OK: true}
	reject := &cert.Verdict{Scheme: "dfs", Rejectors: []int{3}}
	for i, rep := range []*chaos.Report{
		{},
		{Verdicts: []*cert.Verdict{nil}},
		{Verdicts: []*cert.Verdict{accept, reject}},
		{Verdicts: []*cert.Verdict{{Scheme: "spanning", OK: true}}},
	} {
		if v, err := acceptedVerdict(rep, "dfs"); !errors.Is(err, ErrNoVerdict) || v != nil {
			t.Errorf("report %d: verdict %v, error %v; want ErrNoVerdict", i, v, err)
		}
	}
	v, err := acceptedVerdict(&chaos.Report{Verdicts: []*cert.Verdict{reject, accept}}, "dfs")
	if err != nil || v != accept {
		t.Fatalf("retried report: verdict %v, error %v; want the accepting verdict", v, err)
	}
}

// TestRejectionTyped pins the certify stage's verdict check: every
// accepting verdict list passes, and a list with a rejecting verdict ends
// with ErrCertRejected naming the first rejecting scheme and its rejector
// count.
func TestRejectionTyped(t *testing.T) {
	accept := func(scheme string) *cert.Verdict { return &cert.Verdict{Scheme: scheme, OK: true} }
	if err := rejection(nil); err != nil {
		t.Fatalf("no verdicts: %v", err)
	}
	if err := rejection([]*cert.Verdict{accept("spanning"), accept("dfs"), accept("separator")}); err != nil {
		t.Fatalf("all accepting: %v", err)
	}
	for _, c := range []struct {
		vs   []*cert.Verdict
		want string
	}{
		{[]*cert.Verdict{{Scheme: "spanning", Rejectors: []int{4, 9}}, accept("dfs"), accept("separator")},
			"spanning certificate rejected by 2 verifiers"},
		{[]*cert.Verdict{accept("spanning"), accept("dfs"), {Scheme: "separator", Rejectors: []int{0}}},
			"separator certificate rejected by 1 verifiers"},
	} {
		err := rejection(c.vs)
		if !errors.Is(err, ErrCertRejected) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %v; want ErrCertRejected with %q", err, c.want)
		}
	}
}

// TestSeparateMatchesRun holds the Theorem 1 pipeline to the separator
// stage of the Theorem 2 pipeline: on every family at n = 300, unguarded
// and guarded, Separate gives Run's root, BFS tree, separator (path,
// phase, rounds, balance) and spanning and separator verdicts. A traced
// fault-free Separate ends its clock at Rounds() + Separator.Rounds, as
// Run does.
func TestSeparateMatchesRun(t *testing.T) {
	for _, fam := range gen.Families {
		for _, guarded := range []bool{false, true} {
			in := instance(t, fam, 300, 1)
			opts := func() Options {
				if !guarded {
					return Options{}
				}
				adm, err := guard.ValidateInstance(in, guard.Options{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				return Options{Admitted: adm}
			}
			want, err := Run(context.Background(), in, opts())
			if err != nil {
				t.Fatalf("%s: Run: %v", in.Name, err)
			}
			got, err := Separate(context.Background(), in, opts())
			if err != nil {
				t.Fatalf("%s: Separate: %v", in.Name, err)
			}
			a, b := got.Separator, want.Separator
			switch {
			case got.Root != want.Root || !reflect.DeepEqual(got.BFS.Parent, want.BFS.Parent):
				t.Errorf("%s (guarded %v): root %d, want %d, or BFS trees differ", in.Name, guarded, got.Root, want.Root)
			case !reflect.DeepEqual(a.Sep.Path, b.Sep.Path) || a.Sep.Phase != b.Sep.Phase || a.Rounds != b.Rounds || a.Balance != b.Balance:
				t.Errorf("%s (guarded %v): separator %v %v %d rounds balance %.3f, want %v %v %d rounds balance %.3f",
					in.Name, guarded, a.Sep.Path, a.Sep.Phase, a.Rounds, a.Balance, b.Sep.Path, b.Sep.Phase, b.Rounds, b.Balance)
			case len(got.Verdicts) != 2 || !reflect.DeepEqual(got.Verdicts[0], want.Verdicts[0]) || !reflect.DeepEqual(got.Verdicts[1], want.Verdicts[2]):
				t.Errorf("%s (guarded %v): verdicts differ from Run's spanning and separator verdicts", in.Name, guarded)
			case got.Recovery.Outcome != chaos.OutcomeCertified || got.Parent != nil || got.DFSRounds != 0:
				t.Errorf("%s (guarded %v): outcome %v, DFS fields set", in.Name, guarded, got.Recovery.Outcome)
			}
		}
	}

	for _, fam := range []string{"grid", "stacked"} {
		rec := trace.NewRecorder()
		res, err := Separate(context.Background(), instance(t, fam, 300, 1), Options{Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Now() != int64(res.Rounds()+res.Separator.Rounds) {
			t.Errorf("%s: clock %d, want Rounds() %d + Separator.Rounds %d", fam, rec.Now(), res.Rounds(), res.Separator.Rounds)
		}
	}
}

// TestSeparateRecovers drives the separator stage through structural
// faults: corrupted paths are rejected and the run retries or degrades to
// the fault-free engine, ending with a separator an independent
// certification accepts, never an uncertified one. A rejecting admission
// ends the run with its typed rejection before any stage.
func TestSeparateRecovers(t *testing.T) {
	in := instance(t, "grid", 64, 1)
	res, err := Separate(context.Background(), in, Options{Plan: chaos.NewPlan(7, chaos.Spec{Structural: 6})})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Recovery
	switch rep.Outcome {
	case chaos.OutcomeCertifiedRetry, chaos.OutcomeDegraded:
	default:
		t.Fatalf("outcome %v, want retry or degraded", rep.Outcome)
	}
	if a := rep.Attempts[0]; a.Stage != "separator" || a.Accepted || rep.Faults.Structural == 0 {
		t.Fatalf("first attempt %+v after %d structural faults, want a rejected separator attempt", a, rep.Faults.Structural)
	}
	for _, v := range res.Verdicts {
		if !v.OK {
			t.Fatalf("%s verdict rejected", v.Scheme)
		}
	}
	v, err := cert.NewVerifier(in.G, cert.Options{}).CertifySeparator(res.Separator.Sep)
	if err != nil || !v.OK || res.Verdicts[1] != rep.Verdicts[len(rep.Verdicts)-1] {
		t.Fatalf("the returned separator is not the certified one: %v", err)
	}

	// A corrupted path can still certify (here on the first attempt); its
	// sides and balance are then its own, not the engine's path's.
	wheel := instance(t, "wheel", 40, 1)
	res, err = Separate(context.Background(), wheel, Options{Plan: chaos.NewPlan(2, chaos.Spec{Structural: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if a := res.Recovery.Attempts[0]; !a.Accepted || a.Faults.Structural == 0 {
		t.Fatalf("first attempt %+v, want a corrupted path accepted", a)
	}
	side, maxComp, err := cert.SeparatorSides(wheel.G, res.Separator.Sep.Path)
	if err != nil || !reflect.DeepEqual(res.Separator.Side, side) || res.Separator.Balance != float64(maxComp)/float64(wheel.G.N()) {
		t.Fatalf("sides or balance %.3f are not the accepted path's (largest side %d): %v", res.Separator.Balance, maxComp, err)
	}

	bad := corrupted(t)
	adm, err := guard.ValidateInstance(bad, guard.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err = Separate(context.Background(), bad, Options{Admitted: adm})
	if !errors.Is(err, guard.ErrRejected) {
		t.Fatalf("a rejecting admission: %v, want its typed rejection", err)
	}
	if res.Admission != adm || res.BFS != nil || res.Recovery != nil || res.Separator != nil {
		t.Fatal("a stage after admission ran on a rejected input")
	}
}
