// Command benchjson measures the CONGEST round engine over the standard
// generator families and emits a machine-readable performance baseline.
// For each (program, family) pair it records the deterministic round and
// message counts of the run together with measured wall-clock and allocator
// numbers from a testing.Benchmark harness, so `benchjson -o
// BENCH_congest.json` regenerates the committed baseline in one step.
//
// With -cert the command instead measures the certification layer
// (internal/cert): for each (scheme, family) pair it proves and verifies a
// correct output and records label width, charged prover rounds, measured
// verifier rounds and the verification message volume, so `benchjson -cert
// -o BENCH_cert.json` regenerates that baseline.
//
// With -chaos it measures the supervised recovery runtime (internal/chaos):
// for each (program, family, fault-spec) triple it runs the full
// execute-certify-retry loop under a deterministic fault plan and records
// the outcome, attempt count, total rounds across attempts and the round
// overhead relative to the fault-free run of the same stage, so `benchjson
// -chaos -o BENCH_chaos.json` regenerates that baseline.
//
// With -serve it measures the simulation service (internal/serve) end to
// end over HTTP: one cold decomposition build per family, then cached LCA,
// separator-membership, order and cert queries against the
// content-addressed store, plus a resubmission burst for the cache
// hit-rate, so `benchjson -serve -n 10000 -o BENCH_serve.json` regenerates
// that baseline.
//
// With -engines it measures the separator engine registry
// (internal/sepengine): for every (engine, family, size) cell it runs the
// engine on a fresh configuration and records wall time, cycle length,
// achieved balance and the distributed certification verdict of the
// output. Engines that legitimately fail on a family record a
// "no-separator" row — honest gaps in an engine's coverage are part of the
// committed matrix. `benchjson -engines -families
// wheel,grid,cylinderish,stacked,polygon -o BENCH_engines.json`
// regenerates that baseline.
//
// With -guard it measures the admission guard (internal/guard): for each
// (family, size) pair one acceptance row records the guard's CONGEST
// round/message cost next to the charged paper-model rounds of the
// Theorem 2 DFS build it fronts (the overhead column), and rejection rows
// record the latency to a typed witness on adversarial inputs — a
// retargeted dart, a genus-raising rotation splice, and a planted dense
// region. `benchjson -guard -o BENCH_guard.json` regenerates that
// baseline.
//
// Usage:
//
//	benchjson -o BENCH_congest.json
//	benchjson -n 2048 -families grid,stacked -programs bfs,dfs
//	benchjson -cert -o BENCH_cert.json
//	benchjson -chaos -n 256 -families grid,cylinderish -o BENCH_chaos.json
//	benchjson -serve -n 10000 -families grid,stacked -o BENCH_serve.json
//	benchjson -engines -families wheel,grid,stacked -engine-sizes 256,1024
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/separator"
	"planardfs/internal/sepengine"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// Entry is one (program, family) measurement. Rounds/messages/words are
// deterministic properties of the run; the per-op numbers are measured on
// the machine named by the file header.
type Entry struct {
	Program           string  `json:"program"`
	Family            string  `json:"family"`
	N                 int     `json:"n"`
	M                 int     `json:"m"`
	Rounds            int     `json:"rounds"`
	Messages          int64   `json:"messages"`
	Words             int64   `json:"words"`
	MaxEdgeCongestion int64   `json:"max_edge_congestion"`
	NsPerOp           int64   `json:"ns_per_op"`
	BytesPerOp        int64   `json:"bytes_per_op"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	RoundsPerSec      float64 `json:"rounds_per_sec"`
	MessagesPerSec    float64 `json:"messages_per_sec"`
}

// File is the schema of BENCH_congest.json.
type File struct {
	Schema    string  `json:"schema"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	NumCPU    int     `json:"num_cpu"`
	Entries   []Entry `json:"entries"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("o", "", "output file (default stdout)")
	n := flag.Int("n", 1024, "approximate vertex count per instance")
	families := flag.String("families", "grid,cylinderish,stacked", "comma-separated generator families")
	programs := flag.String("programs", "bfs,pa,dfs", "comma-separated programs (bfs,pa,dfs)")
	certMode := flag.Bool("cert", false, "benchmark the certification layer instead of the round engine")
	chaosMode := flag.Bool("chaos", false, "benchmark the supervised recovery runtime instead of the round engine")
	serveMode := flag.Bool("serve", false, "benchmark the simulation service (cold build vs cached queries) instead of the round engine")
	enginesMode := flag.Bool("engines", false, "benchmark the separator engine registry (engine x family x size matrix) instead of the round engine")
	engineSizes := flag.String("engine-sizes", "256,1024", "comma-separated vertex counts for the -engines matrix")
	guardMode := flag.Bool("guard", false, "benchmark the admission guard (acceptance overhead and rejection latency) instead of the round engine")
	guardSizes := flag.String("guard-sizes", "64,256", "comma-separated vertex counts for the -guard matrix")
	scaling := flag.Bool("scaling", false, "append scaling rows: instance construction across -sizes, plus BFS runs up to -scale-bfs-max")
	sizes := flag.String("sizes", "1000,10000,100000,1000000", "comma-separated vertex counts for -scaling rows")
	scaleBFSMax := flag.Int("scale-bfs-max", 1000000, "largest -scaling size that also gets a BFS round-engine row")
	flag.Parse()

	if *certMode {
		return runCert(*out, *n, *families)
	}
	if *chaosMode {
		return runChaos(*out, *n, *families)
	}
	if *serveMode {
		return runServe(*out, *n, *families)
	}
	if *enginesMode {
		return runEngines(*out, *families, *engineSizes)
	}
	if *guardMode {
		return runGuard(*out, *families, *guardSizes)
	}

	file := File{
		Schema:    "planardfs/bench-congest/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, fam := range strings.Split(*families, ",") {
		for _, prog := range strings.Split(*programs, ",") {
			e, err := measure(prog, fam, *n)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", prog, fam, err)
			}
			file.Entries = append(file.Entries, e)
			fmt.Fprintf(os.Stderr, "%-4s %-12s n=%d rounds=%d msgs=%d %.2fms/op %d allocs/op\n",
				e.Program, e.Family, e.N, e.Rounds, e.Messages,
				float64(e.NsPerOp)/1e6, e.AllocsPerOp)
		}
	}
	if *scaling {
		for _, fam := range strings.Split(*families, ",") {
			for _, szStr := range strings.Split(*sizes, ",") {
				var sz int
				if _, err := fmt.Sscanf(strings.TrimSpace(szStr), "%d", &sz); err != nil {
					return fmt.Errorf("bad -sizes entry %q: %w", szStr, err)
				}
				e, err := measureConstruct(fam, sz)
				if err != nil {
					return fmt.Errorf("construct %s/%d: %w", fam, sz, err)
				}
				file.Entries = append(file.Entries, e)
				fmt.Fprintf(os.Stderr, "%-9s %-12s n=%d %.2fms/op %d allocs/op\n",
					e.Program, e.Family, e.N, float64(e.NsPerOp)/1e6, e.AllocsPerOp)
				if sz > *scaleBFSMax {
					continue
				}
				be, err := measure("bfs", fam, sz)
				if err != nil {
					return fmt.Errorf("bfs %s/%d: %w", fam, sz, err)
				}
				file.Entries = append(file.Entries, be)
				fmt.Fprintf(os.Stderr, "%-9s %-12s n=%d rounds=%d %.2fms/op %d allocs/op\n",
					be.Program, be.Family, be.N, be.Rounds,
					float64(be.NsPerOp)/1e6, be.AllocsPerOp)
			}
		}
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

func measure(program, family string, n int) (Entry, error) {
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		return Entry{}, err
	}
	g := in.G

	var build func(nw *congest.Network) []congest.Node
	var budget int
	switch program {
	case "bfs":
		build = func(nw *congest.Network) []congest.Node { return congest.NewBFSNodes(nw, 0) }
		budget = 10*g.N() + 100
	case "pa":
		tree, err := spanning.BFSTree(g, 0)
		if err != nil {
			return Entry{}, err
		}
		partOf := make([]int, g.N())
		value := make([]int, g.N())
		for v := range partOf {
			partOf[v] = v % 16
			value[v] = 1
		}
		build = func(nw *congest.Network) []congest.Node {
			return congest.NewPANodes(nw, tree.Parent, 0, partOf, value, congest.OpSum)
		}
		budget = 100*g.N() + 1000
	case "dfs":
		build = func(nw *congest.Network) []congest.Node { return congest.NewAwerbuchNodes(nw, 0) }
		budget = 10 * g.N()
	default:
		return Entry{}, fmt.Errorf("unknown program %q", program)
	}

	var st congest.Stats
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		nw := congest.New(g)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := nw.Run(build(nw), budget); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
		st = nw.Stats()
	})
	if benchErr != nil {
		return Entry{}, benchErr
	}
	nsPerOp := res.NsPerOp()
	e := Entry{
		Program:           program,
		Family:            family,
		N:                 g.N(),
		M:                 g.M(),
		Rounds:            st.Rounds,
		Messages:          st.Messages,
		Words:             st.Words,
		MaxEdgeCongestion: st.MaxEdgeCongestion,
		NsPerOp:           nsPerOp,
		BytesPerOp:        res.AllocedBytesPerOp(),
		AllocsPerOp:       res.AllocsPerOp(),
	}
	if nsPerOp > 0 {
		e.RoundsPerSec = float64(st.Rounds) / (float64(nsPerOp) / 1e9)
		e.MessagesPerSec = float64(st.Messages) / (float64(nsPerOp) / 1e9)
	}
	return e, nil
}

// measureConstruct benchmarks instance construction — graph build,
// embedding assembly, and validation — for one (family, n). With the flat
// substrate, allocs/op is a small constant independent of n (the backing
// arrays plus the validator's scratch), which is the scaling property the
// committed baseline pins.
func measureConstruct(family string, n int) (Entry, error) {
	if _, err := gen.ByName(family, n, 1); err != nil {
		return Entry{}, err
	}
	var nv, m int
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in, err := gen.ByName(family, n, 1)
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			nv, m = in.G.N(), in.G.M()
		}
	})
	if benchErr != nil {
		return Entry{}, benchErr
	}
	return Entry{
		Program:     "construct",
		Family:      family,
		N:           nv,
		M:           m,
		NsPerOp:     res.NsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}, nil
}

// EngineEntry is one (engine, family, n) cell of the separator engine
// matrix. Cycle length, balance, charged rounds and the cert verdict are
// deterministic properties of the run; per-op numbers are measured on the
// machine named by the file header. A "no-separator" verdict marks an
// honest typed failure (the engine covers no balanced cycle on this
// instance); such rows carry zero cycle length and balance.
type EngineEntry struct {
	EngineName  string  `json:"engine"`
	Family      string  `json:"family"`
	N           int     `json:"n"`
	M           int     `json:"m"`
	CycleLen    int     `json:"cycle_len"`
	Balance     float64 `json:"balance"`
	Rounds      int     `json:"rounds"`
	Phase       string  `json:"phase"`
	CertVerdict string  `json:"cert_verdict"`
	NsPerOp     int64   `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// EngineFile is the schema of BENCH_engines.json.
type EngineFile struct {
	Schema    string        `json:"schema"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	NumCPU    int           `json:"num_cpu"`
	Engines   []string      `json:"engines"`
	Entries   []EngineEntry `json:"entries"`
}

func runEngines(out, families, sizesFlag string) error {
	file := EngineFile{
		Schema:    "planardfs/bench-engines/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Engines:   sepengine.Names(),
	}
	for _, fam := range strings.Split(families, ",") {
		for _, szStr := range strings.Split(sizesFlag, ",") {
			var sz int
			if _, err := fmt.Sscanf(strings.TrimSpace(szStr), "%d", &sz); err != nil {
				return fmt.Errorf("bad -engine-sizes entry %q: %w", szStr, err)
			}
			for _, engine := range sepengine.Names() {
				e, err := measureEngine(engine, fam, sz)
				if err != nil {
					return fmt.Errorf("%s/%s/%d: %w", engine, fam, sz, err)
				}
				file.Entries = append(file.Entries, e)
				fmt.Fprintf(os.Stderr, "%-18s %-12s n=%-6d cycle=%-4d bal=%.3f %-12s %.2fms/op\n",
					e.EngineName, e.Family, e.N, e.CycleLen, e.Balance, e.CertVerdict,
					float64(e.NsPerOp)/1e6)
			}
		}
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// measureEngine runs one engine on one fresh configuration: a probe run
// decides the row's deterministic columns (and whether this is a
// no-separator row), then the benchmark harness measures the engine call.
func measureEngine(engine, family string, n int) (EngineEntry, error) {
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		return EngineEntry{}, err
	}
	g := in.G
	fs := in.Emb.TraceFaces()
	root := fs.FaceVertices(in.OuterFace())[0]
	tree, err := spanning.BFSTree(g, root)
	if err != nil {
		return EngineEntry{}, err
	}
	cfg, err := weights.NewConfig(g, in.Emb, in.OuterDart, tree)
	if err != nil {
		return EngineEntry{}, err
	}
	opts := sepengine.Options{Seed: 1}

	entry := EngineEntry{EngineName: engine, Family: family, N: g.N(), M: g.M()}
	probe, err := sepengine.Find(engine, cfg, opts)
	switch {
	case err == nil:
		entry.CycleLen = probe.CycleLen
		entry.Balance = probe.Balance
		entry.Rounds = probe.Rounds
		entry.Phase = probe.Sep.Phase.String()
		v, err := cert.CertifySeparator(g, probe.Sep, cert.Options{})
		if err != nil {
			return EngineEntry{}, err
		}
		if v.OK {
			entry.CertVerdict = "accept"
		} else {
			entry.CertVerdict = fmt.Sprintf("reject at %d vertices", len(v.Rejectors))
		}
	case errors.Is(err, sepengine.ErrNoSeparator):
		entry.CertVerdict = "no-separator"
	default:
		return EngineEntry{}, err
	}

	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sepengine.Find(engine, cfg, opts); err != nil &&
				!errors.Is(err, sepengine.ErrNoSeparator) {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return EngineEntry{}, benchErr
	}
	entry.NsPerOp = res.NsPerOp()
	entry.BytesPerOp = res.AllocedBytesPerOp()
	entry.AllocsPerOp = res.AllocsPerOp()
	return entry, nil
}

// CertEntry is one (scheme, family) certification measurement. Label width
// and round counts are deterministic properties of the scheme; ns/alloc
// numbers are measured on the machine named by the file header.
type CertEntry struct {
	Scheme         string `json:"scheme"`
	Family         string `json:"family"`
	N              int    `json:"n"`
	M              int    `json:"m"`
	LabelWords     int    `json:"label_words"`
	ProverRounds   int    `json:"prover_rounds"`
	VerifierRounds int    `json:"verifier_rounds"`
	AggRounds      int    `json:"agg_rounds"`
	Messages       int64  `json:"messages"`
	Words          int64  `json:"words"`
	NsPerOp        int64  `json:"ns_per_op"`
	BytesPerOp     int64  `json:"bytes_per_op"`
	AllocsPerOp    int64  `json:"allocs_per_op"`
}

// CertFile is the schema of BENCH_cert.json.
type CertFile struct {
	Schema    string      `json:"schema"`
	GoVersion string      `json:"go_version"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	NumCPU    int         `json:"num_cpu"`
	Entries   []CertEntry `json:"entries"`
}

var certSchemes = []string{"spanning", "dfs", "separator", "embedding"}

func runCert(out string, n int, families string) error {
	file := CertFile{
		Schema:    "planardfs/bench-cert/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, fam := range strings.Split(families, ",") {
		for _, scheme := range certSchemes {
			e, err := measureCert(scheme, fam, n)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", scheme, fam, err)
			}
			file.Entries = append(file.Entries, e)
			fmt.Fprintf(os.Stderr, "%-10s %-12s n=%d words=%d verify=%d agg=%d %.2fms/op %d allocs/op\n",
				e.Scheme, e.Family, e.N, e.LabelWords, e.VerifierRounds, e.AggRounds,
				float64(e.NsPerOp)/1e6, e.AllocsPerOp)
		}
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// ChaosEntry is one (program, family, fault-spec) supervised-recovery
// measurement. Outcome, attempts, rounds and fault tallies are
// deterministic properties of the plan; per-op numbers are measured.
type ChaosEntry struct {
	Program        string  `json:"program"`
	Family         string  `json:"family"`
	Spec           string  `json:"spec"`
	Seed           int64   `json:"seed"`
	N              int     `json:"n"`
	M              int     `json:"m"`
	Outcome        string  `json:"outcome"`
	Attempts       int     `json:"attempts"`
	RoundsTotal    int     `json:"rounds_total"`
	BaselineRounds int     `json:"baseline_rounds"`
	RoundOverhead  float64 `json:"round_overhead"`
	FaultsFired    int64   `json:"faults_fired"`
	NsPerOp        int64   `json:"ns_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
}

// ChaosFile is the schema of BENCH_chaos.json.
type ChaosFile struct {
	Schema    string       `json:"schema"`
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	NumCPU    int          `json:"num_cpu"`
	Entries   []ChaosEntry `json:"entries"`
}

// chaosScenarios are the fault plans the baseline sweeps, from quiescent
// supervision overhead to a mixed plan that usually forces retries.
// The tight horizon concentrates the random fault rounds into the live
// prefix of the run (a BFS on these instances finishes in a few dozen
// rounds). Point faults (drop/corrupt/stall) only fire when they land on
// an in-flight message, so the bursts are sized for a couple of expected
// hits; link-down and crash are persistent and fire on their own.
var chaosScenarios = []struct{ name, spec string }{
	{"clean", ""},
	{"drops", "drops=48,horizon=24"},
	{"corruptions", "corruptions=48,horizon=24"},
	{"linkdown", "linkdowns=2,horizon=24"},
	{"mixed", "drops=3,corruptions=2,crashes=1,horizon=24"},
}

func runChaos(out string, n int, families string) error {
	file := ChaosFile{
		Schema:    "planardfs/bench-chaos/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, fam := range strings.Split(families, ",") {
		for _, prog := range []string{"bfs", "awerbuch"} {
			for _, sc := range chaosScenarios {
				e, err := measureChaos(prog, fam, sc.name, sc.spec, n)
				if err != nil {
					return fmt.Errorf("%s/%s/%s: %w", prog, fam, sc.name, err)
				}
				file.Entries = append(file.Entries, e)
				fmt.Fprintf(os.Stderr, "%-8s %-12s %-12s outcome=%-21s attempts=%d rounds=%d (%.2fx) %.2fms/op\n",
					e.Program, e.Family, sc.name, e.Outcome, e.Attempts, e.RoundsTotal,
					e.RoundOverhead, float64(e.NsPerOp)/1e6)
			}
		}
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// measureChaos benchmarks one supervised run: the stage under the fault
// plan, certification after every attempt, retries with backoff and (for
// the DFS program) degradation to a fault-free fallback. The overhead
// column is total supervised rounds over the fault-free rounds of the same
// stage.
func measureChaos(program, family, specName, spec string, n int) (ChaosEntry, error) {
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		return ChaosEntry{}, err
	}
	g := in.G
	var opt cert.Options
	const seed = 1

	var plan *chaos.Plan
	if spec != "" {
		s, err := chaos.ParseSpec(spec)
		if err != nil {
			return ChaosEntry{}, err
		}
		s.Protect = []int{0} // the root survives: crashes land elsewhere
		plan = chaos.NewPlan(seed, s)
	}

	supervise := func(p *chaos.Plan) (*chaos.Report, error) {
		switch program {
		case "bfs":
			st := chaos.BFSTreeStage(g, 0, p, opt)
			_, rep, err := chaos.RunWithRecovery(st, nil, chaos.Policy{})
			return rep, err
		case "awerbuch":
			primary := chaos.AwerbuchDFS(g, 0, p, opt)
			fallback := chaos.AwerbuchDFS(g, 0, nil, opt)
			_, rep, err := chaos.RunWithRecovery(primary, &fallback, chaos.Policy{})
			return rep, err
		default:
			return nil, fmt.Errorf("unknown program %q", program)
		}
	}

	base, err := supervise(nil)
	if err != nil {
		return ChaosEntry{}, err
	}
	baseline := totalRounds(base)

	var rep *chaos.Report
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := supervise(plan)
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			rep = r
		}
	})
	if benchErr != nil {
		return ChaosEntry{}, benchErr
	}
	e := ChaosEntry{
		Program:        program,
		Family:         family,
		Spec:           spec,
		Seed:           seed,
		N:              g.N(),
		M:              g.M(),
		Outcome:        rep.Outcome.String(),
		Attempts:       len(rep.Attempts),
		RoundsTotal:    totalRounds(rep),
		BaselineRounds: baseline,
		FaultsFired:    rep.Faults.Total(),
		NsPerOp:        res.NsPerOp(),
		BytesPerOp:     res.AllocedBytesPerOp(),
		AllocsPerOp:    res.AllocsPerOp(),
	}
	if baseline > 0 {
		e.RoundOverhead = float64(e.RoundsTotal) / float64(baseline)
	}
	return e, nil
}

func totalRounds(rep *chaos.Report) int {
	total := 0
	for _, a := range rep.Attempts {
		total += a.Rounds
	}
	return total
}

// measureCert prepares one correct output for the scheme and benchmarks the
// full prove-and-verify certification of it.
func measureCert(scheme, family string, n int) (CertEntry, error) {
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		return CertEntry{}, err
	}
	g := in.G
	var opt cert.Options

	var certify func() (*cert.Verdict, error)
	switch scheme {
	case "spanning":
		tree, err := spanning.BFSTree(g, 0)
		if err != nil {
			return CertEntry{}, err
		}
		certify = func() (*cert.Verdict, error) { return cert.CertifySpanningTree(g, tree, opt) }
	case "dfs":
		tree, err := spanning.DeepDFSTree(g, 0)
		if err != nil {
			return CertEntry{}, err
		}
		certify = func() (*cert.Verdict, error) { return cert.CertifyDFSTree(g, 0, tree.Parent, opt) }
	case "separator":
		fs := in.Emb.TraceFaces()
		root := fs.FaceVertices(in.OuterFace())[0]
		tree, err := spanning.BFSTree(g, root)
		if err != nil {
			return CertEntry{}, err
		}
		cfg, err := weights.NewConfig(g, in.Emb, in.OuterDart, tree)
		if err != nil {
			return CertEntry{}, err
		}
		sep, err := separator.Find(cfg)
		if err != nil {
			return CertEntry{}, err
		}
		certify = func() (*cert.Verdict, error) { return cert.CertifySeparator(g, sep, opt) }
	case "embedding":
		certify = func() (*cert.Verdict, error) { return cert.CertifyEmbedding(in.Emb, opt) }
	default:
		return CertEntry{}, fmt.Errorf("unknown scheme %q", scheme)
	}

	var verdict *cert.Verdict
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := certify()
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			if !v.OK {
				benchErr = fmt.Errorf("correct output rejected at %v", v.Rejectors)
				b.Fatal(benchErr)
			}
			verdict = v
		}
	})
	if benchErr != nil {
		return CertEntry{}, benchErr
	}
	return CertEntry{
		Scheme:         scheme,
		Family:         family,
		N:              g.N(),
		M:              g.M(),
		LabelWords:     verdict.LabelWords,
		ProverRounds:   verdict.ProverRounds,
		VerifierRounds: verdict.VerifierRounds,
		AggRounds:      verdict.AggRounds,
		Messages:       verdict.Stats.Messages,
		Words:          verdict.Stats.Words,
		NsPerOp:        res.NsPerOp(),
		BytesPerOp:     res.AllocedBytesPerOp(),
		AllocsPerOp:    res.AllocsPerOp(),
	}, nil
}
