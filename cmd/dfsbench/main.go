// Command dfsbench prints the DFS experiment tables (E2, E5, E6, E7, E9,
// E11 of EXPERIMENTS.md).
//
// Usage:
//
//	dfsbench -experiment e2 [-sizes 64,256,1024] [-families grid,stacked]
//	dfsbench -trace out.json -metrics   # instrumented run, Perfetto-loadable
//	dfsbench -certify                   # one guarded, certified pipeline run
//	dfsbench -recover -chaos structural=4 -chaos-seed 7
//	                                    # supervised run under injected faults
//	dfsbench -guard -experiment e2      # admission-guard every instance first
//
// -guard validates every (family, size) instance with the admission guard
// (internal/guard) before the run and exits nonzero printing the typed
// witness on rejection. -certify always guards the one instance it runs,
// so -guard adds nothing to it.
//
// -certify runs the Theorem 2 pipeline (planardfs.Run) with the admission
// guard on one instance and prints the guard's admission line and the
// spanning-tree, DFS and separator verdicts. It exits nonzero when the
// guard rejects, when the Theorem 2 tree is not certified on its first
// attempt (printing the recovery report instead of the verdicts), or when
// a verifier rejects; -recover exits nonzero when the supervised
// runtime exhausts its attempts without a certified (or
// degraded-but-certified) tree.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"planardfs"
	"planardfs/internal/chaos"
	"planardfs/internal/cli"
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
	certify := flag.Bool("certify", false, "run the guarded Theorem 2 pipeline on one instance and print its admission and certification verdicts (spanning tree + DFS tree + separator)")
	chaosSpec := flag.String("chaos", "", "fault spec for -recover, e.g. structural=4 (see internal/chaos.ParseSpec)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed deriving the deterministic fault plan")
	recoverRun := flag.Bool("recover", false, "run one supervised DFS (certify, retry with backoff, degrade to Awerbuch); exits nonzero on recovery exhaustion")
	guardRun := flag.Bool("guard", false, "validate every instance with the admission guard before running; exits nonzero printing the witness on rejection")
	flag.Parse()

	sizes, err := cli.ParseInts(*sizesFlag)
	if err != nil {
		return err
	}
	fams := strings.Split(*famFlag, ",")

	// A -certify run admits the one instance it certifies itself.
	if *guardRun && (!*certify || *recoverRun) {
		if err := cli.GuardAdmit(os.Stdout, os.Stderr, fams, sizes, *seed); err != nil {
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
		return cli.WriteTrace(os.Stdout, rec, *traceOut, *metrics)
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

// certifyRun runs the Theorem 2 pipeline with the admission guard on one
// generated instance and prints the admission line, then one verdict line
// per certification scheme: spanning tree, DFS tree and separator.
func certifyRun(family string, n int, seed int64) error {
	in, err := gen.ByName(family, n, seed)
	if err != nil {
		return err
	}
	fmt.Printf("certifying DFS run: %s n=%d m=%d root=%d\n", in.Name, in.G.N(), in.G.M(), planardfs.OuterRoot(in))
	res, err := planardfs.Run(context.Background(), in, planardfs.PipelineOptions{
		Guard: &planardfs.GuardOptions{Seed: seed},
	})
	if res != nil && res.Admission != nil {
		if err := cli.PrintAdmission(os.Stdout, os.Stderr, in, res.Admission); err != nil {
			return err
		}
	}
	if res != nil && res.Recovery != nil {
		if err := requireFirstAttempt(os.Stdout, res.Recovery); err != nil {
			return err
		}
	}
	if err != nil {
		return err
	}
	return cli.PrintVerdicts(os.Stdout, res.Verdicts...)
}

// requireFirstAttempt fails a -certify run unless its Theorem 2 tree was
// certified on the first attempt. Without a fault plan any other outcome
// means the verifier rejected the Theorem 2 tree, and the dfs stage's
// retry or Awerbuch fallback would otherwise hide that behind an accepted
// verdict. The recovery report is printed on w to show the rejections.
func requireFirstAttempt(w io.Writer, rep *planardfs.RecoveryReport) error {
	if rep.Outcome == planardfs.RecoveryCertified {
		return nil
	}
	cli.PrintReport(w, rep)
	return fmt.Errorf("the Theorem 2 DFS tree was not certified (outcome=%s)", rep.Outcome)
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
	root := planardfs.OuterRoot(in)
	plan, err := chaos.PlanFor(spec, chaosSeed, root) // the root survives: crashes land elsewhere
	if err != nil {
		return err
	}
	fmt.Printf("supervised DFS run: %s n=%d m=%d root=%d\n", in.Name, in.G.N(), in.G.M(), root)
	res, err := planardfs.Run(context.Background(), in, planardfs.PipelineOptions{Plan: plan})
	if res != nil && res.Recovery != nil {
		cli.PrintReport(os.Stdout, res.Recovery)
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
