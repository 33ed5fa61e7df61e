// Command sepbench prints the separator experiment tables (E1, E3, E4, E8,
// E10, E12, E13 of EXPERIMENTS.md).
//
// Usage:
//
//	sepbench -experiment e1 [-sizes 64,256,1024,4096] [-families grid,stacked]
//	sepbench -trace out.json -metrics   # instrumented separator run
//	sepbench -certify                   # one guarded, certified separator run
//	sepbench -certify -engine lipton-tarjan
//	                                    # self-check a specific engine
//	sepbench -engine list               # print the registered engines
//	sepbench -recover -chaos structural=4 -chaos-seed 7
//	                                    # supervised separator under faults
//	sepbench -guard -experiment e1      # admission-guard every instance first
//
// -guard validates every (family, size) instance with the admission guard
// (internal/guard) before the run and exits nonzero printing the typed
// witness on rejection. -certify always guards the one instance it runs.
//
// -certify, -recover, E1 and E12 run the certified Theorem 1 pipeline
// (pipeline.Separate); -recover puts its separator stage under the fault
// plan. -engine selects the separator backend for -certify from the
// internal/sepengine registry (run with the pipeline's engine seed, 0);
// "-engine list" prints the registered engines and exits.
//
// -certify exits nonzero when the guard or a verifier rejects; -recover
// exits nonzero when the supervised runtime exhausts its attempts without
// a certified separator.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"planardfs/internal/chaos"
	"planardfs/internal/cli"
	"planardfs/internal/exp"
	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/pipeline"
	"planardfs/internal/sepengine"
	"planardfs/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sepbench:", err)
		os.Exit(1)
	}
}

func run() error {
	experiment := flag.String("experiment", "e1", "one of e1,e3,e4,e8,e10,e12,e13")
	sizesFlag := flag.String("sizes", "64,256,1024,4096", "comma-separated vertex counts")
	famFlag := flag.String("families", strings.Join(exp.DefaultFamilies, ","), "comma-separated families")
	trials := flag.Int("trials", 25, "trials/seeds for statistical experiments")
	seed := flag.Int64("seed", 1, "base seed")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of one instrumented separator run (load in Perfetto)")
	metrics := flag.Bool("metrics", false, "print the metrics registry of the instrumented run")
	certify := flag.Bool("certify", false, "run the guarded Theorem 1 pipeline on one instance and print its admission and certification verdicts (spanning tree + separator)")
	chaosSpec := flag.String("chaos", "", "fault spec for -recover, e.g. structural=4 (see internal/chaos.ParseSpec)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed deriving the deterministic fault plan")
	recoverRun := flag.Bool("recover", false, "run one supervised separator construction (certify, retry with backoff, fall back fault-free); exits nonzero on recovery exhaustion")
	engine := flag.String("engine", "", "separator engine for -certify (default: the Theorem 1 engine); \"list\" prints the registered engines")
	guardRun := flag.Bool("guard", false, "validate every instance with the admission guard before running; exits nonzero printing the witness on rejection")
	flag.Parse()

	if *engine == "list" {
		for _, name := range sepengine.Names() {
			fmt.Println(name)
		}
		return nil
	}

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

	if *recoverRun || *certify {
		in, err := gen.ByName(fams[0], sizes[len(sizes)-1], *seed)
		if err != nil {
			return err
		}
		if *recoverRun {
			return recoveryRun(in, *chaosSpec, *chaosSeed)
		}
		return certifyRun(in, *seed, *engine)
	}

	if *traceOut != "" || *metrics {
		rec := trace.NewRecorder()
		res, err := exp.TraceSeparator(fams[0], sizes[len(sizes)-1], *seed, rec)
		if err != nil {
			return err
		}
		if rec.Now() != int64(res.Rounds) {
			return fmt.Errorf("traced separator run advanced the round clock by %d, its result reports %d rounds", rec.Now(), res.Rounds)
		}
		fmt.Printf("traced separator run: %s n=%d sepLen=%d phase=%s rounds=%d spans=%d\n",
			fams[0], sizes[len(sizes)-1], len(res.Sep.Path), res.Sep.Phase, res.Rounds, len(rec.Spans()))
		return cli.WriteTrace(os.Stdout, rec, *traceOut, *metrics)
	}

	switch *experiment {
	case "e1":
		rows, err := exp.E1(fams, sizes, *seed)
		if err != nil {
			return err
		}
		fmt.Println("E1 — Theorem 1: cycle separator rounds scale with Õ(D)")
		fmt.Printf("%-12s %7s %7s %5s %7s %-15s %12s %12s %10s\n",
			"family", "n", "m", "depth", "sepLen", "phase", "paper", "pipelined", "paper/Dlog4")
		for _, r := range rows {
			fmt.Printf("%-12s %7d %7d %5d %7d %-15s %12d %12d %10.2f\n",
				r.Family, r.N, r.M, r.D, r.SepLen, r.Phase, r.PaperRounds, r.PipelinedRounds, r.NormPaper)
		}
	case "e3":
		n := sizes[len(sizes)-1]
		rows, err := exp.E3(fams, n, *trials)
		if err != nil {
			return err
		}
		fmt.Println("E3 — Lemma 1/5: separator balance over random instances")
		fmt.Printf("%-12s %7s %7s %9s %10s %10s  %s\n",
			"family", "n", "trials", "balanced", "worst", "exhaust.", "phases")
		for _, r := range rows {
			fmt.Printf("%-12s %7d %7d %9d %10.3f %10d  %v\n",
				r.Family, r.N, r.Trials, r.Balanced, r.WorstRatio, r.Exhaustive, r.Phases)
		}
	case "e4":
		n := sizes[0]
		rows, err := exp.E4(fams, n, *trials)
		if err != nil {
			return err
		}
		fmt.Println("E4 — Lemmas 3-4: deterministic weight formula exactness")
		fmt.Printf("%-12s %7s %9s %9s\n", "family", "n", "edges", "exact")
		for _, r := range rows {
			fmt.Printf("%-12s %7d %9d %9d\n", r.Family, r.N, r.Edges, r.Exact)
		}
	case "e8":
		n := sizes[len(sizes)-1]
		rows, err := exp.E8("grid", n, []int{1, 4, 16, 64, 256}, *seed)
		if err != nil {
			return err
		}
		fmt.Println("E8 — Prop. 2/4: part-wise aggregation rounds and shortcut quality")
		fmt.Printf("%7s %5s %5s %10s %10s %10s %8s %8s %10s\n",
			"n", "depth", "k", "measured", "pipe-est", "paper-est", "cong.", "dilat.", "msgs/node")
		for _, r := range rows {
			fmt.Printf("%7d %5d %5d %10d %10d %10d %8d %8d %10.1f\n",
				r.N, r.D, r.K, r.MeasuredRounds, r.PipelinedEst, r.PaperEst,
				r.MaxCongestion, r.MaxDilation, r.MessagesPerNode)
		}
	case "e10":
		n := sizes[0]
		rows, err := exp.E10("stacked", n, []float64{0.02, 0.05, 0.1, 0.25, 0.5, 1.0}, *trials, *seed)
		if err != nil {
			return err
		}
		fmt.Println("E10 — deterministic vs randomized (sampling) separator")
		fmt.Printf("%7s %8s %7s %9s %9s %11s\n", "n", "rate", "trials", "randOK", "detOK", "avgSamples")
		for _, r := range rows {
			fmt.Printf("%7d %8.2f %7d %9d %9d %11.1f\n",
				r.N, r.SampleRate, r.Trials, r.RandOK, r.DetOK, r.AvgSamples)
		}
	case "e12":
		n := sizes[len(sizes)-1]
		rows, err := exp.E12(fams, n, *seed)
		if err != nil {
			return err
		}
		fmt.Println("E12 — separator size: cycle separator vs BFS-level baseline")
		fmt.Printf("%-12s %7s %5s %9s %9s %10s %10s\n",
			"family", "n", "depth", "cycleLen", "levelLen", "cycleBal", "levelBal")
		for _, r := range rows {
			fmt.Printf("%-12s %7d %5d %9d %9d %10.3f %10.3f\n",
				r.Family, r.N, r.D, r.CycleSepLen, r.LevelSepLen, r.CycleBalance, r.LevelBalance)
		}
	case "e13":
		n := sizes[0]
		rows, err := exp.E13(fams, n, *trials)
		if err != nil {
			return err
		}
		fmt.Println("E13 — ablation: each disabled design element forces fallbacks")
		fmt.Printf("%-20s %8s %11s %11s %8s\n", "ablation", "trials", "exhaustive", "unbalanced", "errors")
		for _, r := range rows {
			fmt.Printf("%-20s %8d %11d %11d %8d\n", r.Ablation, r.Trials, r.Exhaustive, r.Unbalanced, r.Errors)
		}
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return nil
}

// certifyRun validates in with the admission guard, runs pipeline.Separate
// on that admission with the named engine, and prints the separator, the
// admission line (whose Euler stage certifies the embedding) and the
// spanning-tree and separator verdicts.
func certifyRun(in *gen.Instance, seed int64, engine string) error {
	adm, err := guard.ValidateInstance(in, guard.Options{Seed: seed})
	if err != nil {
		return err
	}
	if !adm.OK {
		return cli.PrintAdmission(os.Stdout, os.Stderr, in, adm)
	}
	res, err := pipeline.Separate(context.Background(), in, pipeline.Options{Admitted: adm, Engine: engine})
	// A rejected certificate fails in PrintVerdicts, after every verdict.
	if err != nil && !errors.Is(err, pipeline.ErrCertRejected) {
		return err
	}
	sep := res.Separator
	fmt.Printf("certifying separator run: %s n=%d m=%d engine=%s sepLen=%d phase=%s balance=%.3f rounds=%d\n",
		in.Name, in.G.N(), in.G.M(), sep.Engine, len(sep.Sep.Path), sep.Sep.Phase, sep.Balance, sep.Rounds)
	if err := cli.PrintAdmission(os.Stdout, os.Stderr, in, adm); err != nil {
		return err
	}
	return cli.PrintVerdicts(os.Stdout, res.Verdicts...)
}

// recoveryRun runs pipeline.Separate on in with its separator stage under
// the fault plan and prints the per-attempt report.
func recoveryRun(in *gen.Instance, spec string, chaosSeed int64) error {
	root := in.Emb.FaceRoot(in.OuterDart)
	plan, err := chaos.PlanFor(spec, chaosSeed, root) // the root survives: crashes land elsewhere
	if err != nil {
		return err
	}
	fmt.Printf("supervised separator run: %s n=%d m=%d root=%d\n", in.Name, in.G.N(), in.G.M(), root)
	res, err := pipeline.Separate(context.Background(), in, pipeline.Options{Plan: plan})
	if res != nil && res.Recovery != nil {
		cli.PrintReport(os.Stdout, res.Recovery)
	}
	if err != nil {
		return err
	}
	fmt.Printf("recovered separator: len=%d phase=%s\n", len(res.Separator.Sep.Path), res.Separator.Sep.Phase)
	return nil
}
