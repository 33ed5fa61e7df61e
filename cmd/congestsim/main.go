// Command congestsim runs a message-level CONGEST program over an embedded
// planar graph (generated inline or loaded from planargen JSON) and prints
// the round/message statistics.
//
// Usage:
//
//	congestsim -program awerbuch -family grid -n 400
//	congestsim -program pa -parts 16 -in graph.json
//	congestsim -program boruvka -family stacked -n 500
//	congestsim -program awerbuch -certify         # self-check the output tree
//	congestsim -trace out.json -metrics           # Perfetto trace + metrics dump
//
// Every program runs on the simulator's one round schedule, which steps
// only the nodes that received a message, sent one, or set a wake timer
// (Borůvka's phase clock, fault-injection crash and stall-release rounds).
// -trace writes a Chrome trace_event file of the run and -metrics prints
// the counter registry.
// -certify runs the distributed certification verifier on the program
// output (bfs and awerbuch), reports the verdict, and exits nonzero on
// rejection.
//
// Fault injection: -chaos "drops=2,corruptions=1,crashes=1" arms a
// deterministic fault plan (seeded by -chaos-seed) on the run; with
// -recover the run executes under the supervised recovery runtime
// (certify, retry with backoff, degrade), exiting nonzero only when
// recovery exhausts its attempts:
//
//	congestsim -program bfs -chaos drops=3 -chaos-seed 7 -recover
package main

import (
	"flag"
	"fmt"
	"os"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/cli"
	"planardfs/internal/congest"
	"planardfs/internal/dfs"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "congestsim:", err)
		os.Exit(1)
	}
}

func run() error {
	program := flag.String("program", "awerbuch", "one of bfs,awerbuch,pa,boruvka")
	family := flag.String("family", "grid", "graph family (ignored with -in)")
	n := flag.Int("n", 256, "approximate vertex count (ignored with -in)")
	seed := flag.Int64("seed", 1, "generator seed")
	inFile := flag.String("in", "", "load a planargen JSON instance instead")
	parts := flag.Int("parts", 8, "part count for -program pa / boruvka")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of the run (load in Perfetto)")
	metrics := flag.Bool("metrics", false, "print the metrics registry of the run")
	certify := flag.Bool("certify", false, "run the distributed certification verifier on the program output")
	chaosSpec := flag.String("chaos", "", "deterministic fault-injection spec, e.g. \"drops=2,corruptions=1,crashes=1\"")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-plan seed for -chaos")
	recoverRun := flag.Bool("recover", false, "execute under the supervised recovery runtime (certify, retry, degrade)")
	flag.Parse()

	if *parts < 1 {
		return fmt.Errorf("-parts must be at least 1 (got %d)", *parts)
	}
	plan, err := chaos.PlanFor(*chaosSpec, *chaosSeed, 0) // the root survives: crashes elsewhere
	if err != nil {
		return err
	}

	var in *gen.Instance
	if *inFile != "" {
		data, rerr := os.ReadFile(*inFile)
		if rerr != nil {
			return rerr
		}
		in, err = gen.DecodeJSON(data)
	} else {
		in, err = gen.ByName(*family, *n, *seed)
	}
	if err != nil {
		return err
	}
	g := in.G
	fmt.Printf("graph %s: n=%d m=%d\n", in.Name, g.N(), g.M())

	nw := congest.New(g)
	var rec *trace.Recorder
	var copt cert.Options
	if *traceOut != "" || *metrics {
		rec = trace.NewRecorder()
		nw.Tracer = rec
		copt.Tracer = rec
	}
	if *recoverRun {
		if err := runSupervised(*program, g, *parts, plan, copt); err != nil {
			return err
		}
		return cli.WriteTrace(os.Stdout, rec, *traceOut, *metrics)
	}
	var inj *chaos.Injector
	if plan != nil {
		inj = plan.Arm(nw, 1)
	}
	switch *program {
	case "bfs":
		nodes := congest.NewBFSNodes(nw, 0)
		if _, err := nw.Run(nodes, 10*g.N()+100); err != nil {
			return err
		}
		ecc := 0
		for v := 0; v < g.N(); v++ {
			if d := nodes[v].(*congest.BFSNode).Dist; d > ecc {
				ecc = d
			}
		}
		fmt.Printf("BFS: eccentricity %d\n", ecc)
		if *certify {
			parent := make([]int, g.N())
			for v := range parent {
				parent[v] = nodes[v].(*congest.BFSNode).ParentID
			}
			tree, err := spanning.NewFromParents(0, parent)
			if err != nil {
				return fmt.Errorf("BFS output is not a tree: %w", err)
			}
			v, err := cert.CertifySpanningTree(g, tree, copt)
			if err != nil {
				return err
			}
			if err := cli.PrintVerdicts(os.Stdout, v); err != nil {
				return err
			}
		}
	case "awerbuch":
		nodes := congest.NewAwerbuchNodes(nw, 0)
		if _, err := nw.Run(nodes, 10*g.N()+100); err != nil {
			return err
		}
		parent := make([]int, g.N())
		for v := range parent {
			parent[v] = nodes[v].(*congest.AwerbuchNode).ParentID
		}
		if err := dfs.IsDFSTree(g, 0, parent); err != nil {
			return fmt.Errorf("output not a DFS tree: %w", err)
		}
		fmt.Println("Awerbuch DFS: output verified")
		if *certify {
			v, err := cert.CertifyDFSTree(g, 0, parent, copt)
			if err != nil {
				return err
			}
			if err := cli.PrintVerdicts(os.Stdout, v); err != nil {
				return err
			}
		}
	case "pa":
		partOf, value := sumParts(g.N(), *parts)
		part, err := shortcut.NewPartition(partOf)
		if err != nil {
			return err
		}
		tree, err := spanning.BFSTree(g, 0)
		if err != nil {
			return err
		}
		nodes := congest.NewPANodes(nw, tree.Parent, 0, partOf, value, congest.OpSum)
		if _, err := nw.Run(nodes, 100*(g.N()+*parts)); err != nil {
			return err
		}
		fmt.Printf("part-wise sum over %d parts: done\n", part.K())
		if *certify {
			fmt.Println("certify: no certification scheme for program pa (tree outputs only)")
		}
	case "boruvka":
		partOf := make([]int, g.N())
		res := g.BFS(0)
		for i, v := range res.Order {
			partOf[v] = i * *parts / g.N()
		}
		// BFS-prefix parts can be disconnected; fall back to one part then.
		part, err := shortcut.NewPartition(partOf)
		if err == nil {
			err = part.Validate(g)
		}
		if err != nil {
			partOf = make([]int, g.N())
		}
		nodes := congest.NewBoruvkaNodes(nw, partOf)
		if _, err := nw.Run(nodes, (2*g.N()+4)*(shortcut.Log2Ceil(g.N())+3)); err != nil {
			return err
		}
		edges := 0
		for v := 0; v < g.N(); v++ {
			for _, on := range nodes[v].(*congest.BoruvkaNode).ForestPorts {
				if on {
					edges++
				}
			}
		}
		fmt.Printf("Borůvka forest: %d edges (double-counted)\n", edges)
		if *certify {
			fmt.Println("certify: no certification scheme for program boruvka (tree outputs only)")
		}
	default:
		return fmt.Errorf("unknown program %q", *program)
	}
	if inj != nil {
		fmt.Printf("chaos: fired %s\n", inj.Counts())
	}
	st := nw.Stats()
	fmt.Printf("rounds=%d messages=%d words=%d maxEdgeLoad=%d maxRoundWords=%d maxEdgeCongestion=%d\n",
		st.Rounds, st.Messages, st.Words, st.MaxEdgeLoad, st.MaxRoundWords, st.MaxEdgeCongestion)
	if len(st.RoundMessages) > 0 {
		var peak, peakAt, busy int64
		for i, m := range st.RoundMessages {
			if m > peak {
				peak, peakAt = m, int64(i)
			}
			if m > 0 {
				busy++
			}
		}
		fmt.Printf("per-round messages: mean=%.1f peak=%d (round %d) busy=%d/%d rounds\n",
			float64(st.Messages)/float64(len(st.RoundMessages)), peak, peakAt, busy, len(st.RoundMessages))
	}
	return cli.WriteTrace(os.Stdout, rec, *traceOut, *metrics)
}

// sumParts returns the -program pa input: vertex v in part v mod parts,
// every value 1.
func sumParts(n, parts int) (partOf, value []int) {
	partOf = make([]int, n)
	value = make([]int, n)
	for v := range partOf {
		partOf[v] = v % parts
		value[v] = 1
	}
	return partOf, value
}

// runSupervised executes the program under the supervised recovery runtime
// and reports the outcome; it fails (nonzero exit) only when recovery
// exhausts its attempts.
func runSupervised(program string, g *graph.Graph, parts int, plan *chaos.Plan, opt cert.Options) error {
	pol := chaos.Policy{Tracer: opt.Tracer}
	var rep *chaos.Report
	var err error
	switch program {
	case "bfs":
		st := chaos.BFSTreeStage(g, 0, plan, opt)
		_, rep, err = chaos.RunWithRecovery(st, nil, pol)
	case "awerbuch":
		primary := chaos.AwerbuchDFS(g, 0, plan, opt)
		fallback := chaos.AwerbuchDFS(g, 0, nil, opt) // fault-free baseline
		_, rep, err = chaos.RunWithRecovery(primary, &fallback, pol)
	case "pa":
		partOf, value := sumParts(g.N(), parts)
		st := chaos.PartwiseSum(g, 0, partOf, value, plan, opt)
		_, rep, err = chaos.RunWithRecovery(st, nil, pol)
	default:
		return fmt.Errorf("-recover supports programs bfs, awerbuch and pa (got %q)", program)
	}
	if err != nil {
		return err
	}
	cli.PrintReport(os.Stdout, rep)
	if rep.Outcome == chaos.OutcomeFailed {
		return fmt.Errorf("recovery exhausted after %d attempts", len(rep.Attempts))
	}
	return nil
}
