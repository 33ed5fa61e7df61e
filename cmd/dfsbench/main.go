// Command dfsbench prints the DFS experiment tables (E2, E5, E6, E7, E9,
// E11 of EXPERIMENTS.md).
//
// Usage:
//
//	dfsbench -experiment e2 [-sizes 64,256,1024] [-families grid,stacked]
//	dfsbench -trace out.json -metrics   # instrumented run, Perfetto-loadable
//	dfsbench -certify                   # self-check one DFS run end to end
//	dfsbench -recover -chaos structural=4 -chaos-seed 7
//	                                    # supervised run under injected faults
//	dfsbench -guard -experiment e2      # admission-guard every instance first
//
// -guard validates every (family, size) instance with the admission guard
// (internal/guard) before the run and exits nonzero printing the typed
// witness on rejection.
//
// -certify exits nonzero when a verifier rejects; -recover exits nonzero
// when the supervised runtime exhausts its attempts without a certified
// (or degraded-but-certified) tree.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"planardfs"
	"planardfs/internal/cert"
	"planardfs/internal/dfs"
	"planardfs/internal/exp"
	"planardfs/internal/gen"
	"planardfs/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dfsbench:", err)
		os.Exit(1)
	}
}

func run() error {
	experiment := flag.String("experiment", "e2", "one of e2,e5,e6,e7,e9,e11")
	sizesFlag := flag.String("sizes", "64,256,1024", "comma-separated vertex counts")
	famFlag := flag.String("families", strings.Join(exp.DefaultFamilies, ","), "comma-separated families")
	seed := flag.Int64("seed", 1, "base seed")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of one instrumented DFS run (load in Perfetto)")
	metrics := flag.Bool("metrics", false, "print the metrics registry of the instrumented run")
	certify := flag.Bool("certify", false, "run the Theorem 2 DFS on one instance and certify its output (embedding + DFS tree)")
	chaosSpec := flag.String("chaos", "", "fault spec for -recover, e.g. structural=4 (see internal/chaos.ParseSpec)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed deriving the deterministic fault plan")
	recoverRun := flag.Bool("recover", false, "run one supervised DFS (certify, retry with backoff, degrade to Awerbuch); exits nonzero on recovery exhaustion")
	guardRun := flag.Bool("guard", false, "validate every instance with the admission guard before running; exits nonzero printing the witness on rejection")
	flag.Parse()

	sizes, err := parseInts(*sizesFlag)
	if err != nil {
		return err
	}
	fams := strings.Split(*famFlag, ",")

	if *guardRun {
		if err := guardAdmit(fams, sizes, *seed); err != nil {
			return err
		}
	}

	if *recoverRun {
		return recoveryRun(fams[0], sizes[len(sizes)-1], *seed, *chaosSpec, *chaosSeed)
	}

	if *certify {
		return certifyRun(fams[0], sizes[len(sizes)-1], *seed)
	}

	if *traceOut != "" || *metrics {
		rec := trace.NewRecorder()
		sum, err := exp.TraceDFS(fams[0], sizes[len(sizes)-1], *seed, rec)
		if err != nil {
			return err
		}
		fmt.Printf("traced DFS run: %s n=%d m=%d phases=%d rounds=%d spans=%d layers=%v\n",
			sum.Family, sum.N, sum.M, sum.DFS.Phases, sum.Rounds, sum.Spans, sum.Layers)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			if err := rec.WriteChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("trace written to %s\n", *traceOut)
		}
		if *metrics {
			rec.WriteMetrics(os.Stdout)
		}
		return nil
	}

	switch *experiment {
	case "e2":
		rows, err := exp.E2(fams, sizes, *seed)
		if err != nil {
			return err
		}
		fmt.Println("E2 — Theorem 2: DFS rounds, deterministic Õ(D) vs Awerbuch Θ(n)")
		fmt.Printf("%-12s %7s %5s %7s %8s %12s %12s %10s %10s %10s\n",
			"family", "n", "D", "phases", "maxJoin", "paper", "pipelined", "awe-thy", "awe-msr", "paper/Dlog3")
		for _, r := range rows {
			fmt.Printf("%-12s %7d %5d %7d %8d %12d %12d %10d %10d %10.2f\n",
				r.Family, r.N, r.D, r.Phases, r.MaxJoinSubPhases,
				r.PaperRounds, r.PipelinedRounds, r.AwerbuchTheory, r.AwerbuchMeasured, r.NormPaper)
		}
	case "e5":
		n := sizes[len(sizes)-1]
		rows, err := exp.E5(fams, n, *seed)
		if err != nil {
			return err
		}
		fmt.Println("E5 — Lemma 11: DFS-order fragment merging, phases vs tree depth")
		fmt.Printf("%-12s %7s %9s %8s %9s %8s\n", "family", "n", "depth", "phases", "log-bound", "PA-ops")
		for _, r := range rows {
			fmt.Printf("%-12s %7d %9d %8d %9d %8d\n",
				r.Family, r.N, r.TreeDepth, r.Phases, r.LogBound, r.PARounds)
		}
	case "e6":
		n := sizes[len(sizes)-1]
		rows, err := exp.E6(fams, n, *seed)
		if err != nil {
			return err
		}
		fmt.Println("E6 — Lemma 13: MARK-PATH iterations vs path length")
		fmt.Printf("%-12s %7s %9s %8s %12s %8s\n", "family", "n", "pathLen", "phases", "iterations", "log²n")
		for _, r := range rows {
			fmt.Printf("%-12s %7d %9d %8d %12d %8d\n",
				r.Family, r.N, r.PathLen, r.Phases, r.Iterations, r.LogSquared)
		}
	case "e7":
		n := sizes[len(sizes)-1]
		rows, err := exp.E7(fams, n, *seed)
		if err != nil {
			return err
		}
		fmt.Println("E7 — Lemma 2: JOIN sub-phase convergence")
		fmt.Printf("%-12s %7s %8s %10s %9s %9s\n", "family", "n", "phases", "joinTotal", "maxJoin", "log-bnd")
		for _, r := range rows {
			fmt.Printf("%-12s %7d %8d %10d %9d %9d\n",
				r.Family, r.N, r.Phases, r.JoinSubPhases, r.MaxJoin, r.LogBound)
		}
	case "e9":
		n := sizes[len(sizes)-1]
		rows, err := exp.E9(fams, n, *seed)
		if err != nil {
			return err
		}
		fmt.Println("E9 — §6.2: component shrink per recursion phase")
		fmt.Printf("%-12s %7s %8s %10s  %s\n", "family", "n", "phases", "maxShrink", "maxComponent trajectory")
		for _, r := range rows {
			fmt.Printf("%-12s %7d %8d %10.3f  %v\n",
				r.Family, r.N, r.Phases, r.MaxShrink, r.MaxComponent)
		}
	case "e11":
		n := sizes[len(sizes)-1]
		rows, err := exp.E11(fams, n, *seed)
		if err != nil {
			return err
		}
		fmt.Println("E11 — Awerbuch baseline at the message level")
		fmt.Printf("%-12s %7s %8s %8s %10s\n", "family", "n", "rounds", "bound", "messages")
		for _, r := range rows {
			fmt.Printf("%-12s %7d %8d %8d %10d\n", r.Family, r.N, r.Rounds, r.Bound, r.Messages)
		}
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return nil
}

// certifyRun builds the Theorem 2 DFS tree on one generated instance and
// runs the distributed certification verifiers on the embedding and the
// resulting tree, printing one verdict line per scheme.
func certifyRun(family string, n int, seed int64) error {
	in, err := gen.ByName(family, n, seed)
	if err != nil {
		return err
	}
	root := in.Emb.FaceRoot(in.OuterDart)
	pt, _, err := dfs.Build(in.G, in.Emb, in.OuterDart, root)
	if err != nil {
		return err
	}
	fmt.Printf("certifying DFS run: %s n=%d m=%d root=%d\n", in.Name, in.G.N(), in.G.M(), root)
	ev, err := cert.CertifyEmbedding(in.Emb, cert.Options{})
	if err != nil {
		return err
	}
	printVerdict(ev)
	dv, err := cert.CertifyDFSTree(in.G, root, pt.Parent, cert.Options{})
	if err != nil {
		return err
	}
	printVerdict(dv)
	if !ev.OK || !dv.OK {
		return fmt.Errorf("certification rejected the run")
	}
	return nil
}

// recoveryRun executes one Theorem 2 pipeline run with its DFS stage under
// the fault plan: the Theorem 2 output is perturbed, certified by the DFS
// proof-labeling scheme, retried with decaying faults and degraded to
// Awerbuch's token DFS if every attempt is rejected.
func recoveryRun(family string, n int, seed int64, spec string, chaosSeed int64) error {
	in, err := gen.ByName(family, n, seed)
	if err != nil {
		return err
	}
	root := in.Emb.FaceRoot(in.OuterDart)
	var plan *planardfs.FaultPlan
	if spec != "" {
		s, err := planardfs.ParseFaultSpec(spec)
		if err != nil {
			return err
		}
		s.Protect = []int{root} // the root survives: crashes land elsewhere
		plan = planardfs.NewFaultPlan(chaosSeed, s)
	}
	fmt.Printf("supervised DFS run: %s n=%d m=%d root=%d\n", in.Name, in.G.N(), in.G.M(), root)
	res, err := planardfs.Run(context.Background(), in, planardfs.PipelineOptions{Plan: plan})
	if res != nil && res.Recovery != nil {
		printReport(res.Recovery)
	}
	if errors.Is(err, planardfs.ErrUnrecovered) {
		return fmt.Errorf("recovery exhausted after %d attempts", len(res.Recovery.Attempts))
	}
	if err != nil {
		return err
	}
	edges := 0
	for _, p := range res.Parent {
		if p >= 0 {
			edges++
		}
	}
	fmt.Printf("recovered DFS tree: %d tree edges\n", edges)
	return nil
}

// printReport summarizes a supervised run, one line per attempt.
func printReport(rep *planardfs.RecoveryReport) {
	fmt.Printf("recovery: outcome=%s attempts=%d faults[%s]\n",
		rep.Outcome, len(rep.Attempts), rep.Faults)
	for _, a := range rep.Attempts {
		status := "accepted"
		if !a.Accepted {
			status = "rejected"
			if a.Err != "" {
				status += ": " + a.Err
			}
		}
		fmt.Printf("  %s attempt %d: budget=%d rounds=%d faults=%d %s\n",
			a.Stage, a.Attempt, a.Budget, a.Rounds, a.Faults.Total(), status)
	}
}

// printVerdict reports one certification verdict on stdout.
func printVerdict(v *cert.Verdict) {
	status := "ACCEPT"
	if !v.OK {
		status = fmt.Sprintf("REJECT at %v", v.Rejectors)
	}
	fmt.Printf("certify %s: %s labelWords=%d proverRounds=%d verifierRounds=%d aggRounds=%d msgs=%d\n",
		v.Scheme, status, v.LabelWords, v.ProverRounds, v.VerifierRounds, v.AggRounds, v.Stats.Messages)
}

// guardAdmit validates every (family, size) instance the run will touch
// with the admission guard. A rejection prints the typed witness and fails
// the command before any experiment runs on the bad input.
func guardAdmit(fams []string, sizes []int, seed int64) error {
	for _, fam := range fams {
		for _, n := range sizes {
			in, err := gen.ByName(fam, n, seed)
			if err != nil {
				return err
			}
			v, err := planardfs.ValidateEmbedding(in, planardfs.GuardOptions{Seed: seed})
			if err != nil {
				return err
			}
			if !v.OK {
				fmt.Fprintf(os.Stderr, "guard: REJECT %s n=%d reason=%s detail=%q\n",
					in.Name, in.G.N(), v.Witness.Reason, v.Witness.Detail)
				return fmt.Errorf("input rejected by the admission guard: %w", v.Err())
			}
			fmt.Printf("guard: accept %s n=%d rounds=%d msgs=%d\n",
				in.Name, in.G.N(), v.Rounds, v.Messages)
		}
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		x, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}
