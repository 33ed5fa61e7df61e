// Command planardbench is the repository's benchmark. It drives the
// planard job server (internal/serve) in-process behind httptest with one
// closed-loop client on one keep-alive connection, checks every answer,
// and prints one JSON result line; a traced run replays the same inputs
// through each layer's public functions for per-layer numbers. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order the README describes.
var workloadNames = []string{"cold-stacked", "cold-grid", "query-cached"}

// sizes fixes the inputs of every workload; tests use a small copy.
type sizes struct {
	stackedN      int   // vertices per cold-stacked triangulation
	stackedCount  int   // distinct triangulations per cold-stacked pass
	gridSides     []int // square grid sides of cold-grid
	cylinderN     []int // cylinderish sizes of cold-grid (deduplicated)
	queryStackedN int   // vertices of the two cached stacked instances
	queryGridN    int   // vertices of the cached grid and cylinderish
	queryCount    int   // length of the seeded query list
	setupRepeats  int   // set-ups per untraced run; setup_s is their median
	minOps        int   // a measured window runs on until it has this many ops
	warmupOps     int   // cold ops run on a throwaway server in set-up
	warmupQueries int   // queries run in set-up
}

var fullSizes = sizes{
	stackedN:      1000,
	stackedCount:  32,
	gridSides:     []int{32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44},
	cylinderN:     steps(1000, 2000, 20),
	queryStackedN: 1000,
	queryGridN:    1024,
	queryCount:    4000,
	setupRepeats:  5,
	minOps:        100,
	warmupOps:     2,
	warmupQueries: 500,
}

// steps lists lo, lo+step, ... below hi.
func steps(lo, hi, step int) []int {
	var out []int
	for n := lo; n < hi; n += step {
		out = append(out, n)
	}
	return out
}

// workload is one of the benchmark's traffic shapes.
type workload interface {
	// setup prepares inputs, servers and oracles; it may run repeatedly,
	// each run replacing the last.
	setup(ctx context.Context, h *harness, l *spanLog) error
	// measure runs checked ops through the server until until (at least
	// one pass), recording serve-level observations when obs is non-nil.
	measure(ctx context.Context, h *harness, until time.Time, t *tally, obs *serveObs) error
	// replay runs the same inputs through the layers under spans.
	replay(ctx context.Context, h *harness, until time.Time, l *spanLog, t *tally) error
	// roundsPerOp is the paper's charged round count per build.
	roundsPerOp() float64
	close(ctx context.Context) error
}

func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "cold-stacked":
		return &coldWorkload{kind: "stacked", seed: seed, sz: sz}, nil
	case "cold-grid":
		return &coldWorkload{kind: "grid", seed: seed, sz: sz}, nil
	case "query-cached":
		return &queryWorkload{seed: seed, sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (know %s)", name, strings.Join(workloadNames, ", "))
}

// tally counts the ops of one phase.
type tally struct {
	latMS     []float64 // latency of every op that completed
	attempted int
	failed    int
	failures  []string // the first few failure messages
	// checkTime is time spent verifying answers, excluded from throughput.
	checkTime time.Duration
	replays   []replayed
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, err.Error())
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// serveObs collects the serve-level readings of a traced run's untraced
// phase. Its methods are no-ops on a nil receiver.
type serveObs struct {
	rt                 *rtReader
	before             rtSample
	gcCycles           uint64
	gcCPU, totalCPU    float64
	submitMS, queueMS  []float64
	buildMS            []float64
	polls, jobs        int
	cachedJobs         int
	handlerUS          []float64
	transportUS        []float64
	queries, queryHits int
	liveMBPerJob       float64
}

func (o *serveObs) opStart() {
	if o != nil {
		o.before = o.rt.read()
	}
}

// opEnd attributes the GC work done during the op to it.
func (o *serveObs) opEnd() {
	if o == nil {
		return
	}
	a := o.rt.read()
	o.gcCycles += a.gcCycles - o.before.gcCycles
	o.gcCPU += a.gcCPU - o.before.gcCPU
	o.totalCPU += a.totalCPU - o.before.totalCPU
}

func (o *serveObs) job(r jobRun) {
	if o == nil {
		return
	}
	o.jobs++
	o.polls += r.polls
	o.submitMS = append(o.submitMS, ms(r.submit))
	o.queueMS = append(o.queueMS, float64(r.status.QueueMicros)/1e3)
	o.buildMS = append(o.buildMS, float64(r.status.BuildMicros)/1e3)
	if r.status.Cached {
		o.cachedJobs++
	}
}

func (o *serveObs) query(op, handler time.Duration, hit bool) {
	if o == nil {
		return
	}
	o.queries++
	if hit {
		o.queryHits++
	}
	o.handlerUS = append(o.handlerUS, float64(handler)/1e3)
	o.transportUS = append(o.transportUS, float64(op-handler)/1e3)
}

// metric is one named reading of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sampleCount backs one percentile: the samples it was taken over and
// how many rank beyond it.
type sampleCount struct {
	N      int `json:"n"`
	Beyond int `json:"beyond"`
}

// detail is the line printed before the result: the environment, the
// sample counts and the readings the result line does not gate on.
type detail struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Env       environment            `json:"env"`
	OpsPerRun int                    `json:"ops_per_run"`
	Samples   map[string]sampleCount `json:"samples"`
	SetupS    []float64              `json:"setup_s_each"`
	FailRatio float64                `json:"fail_ratio"`
	OpP99ms   float64                `json:"op_p99_ms"`
	Failures  []string               `json:"failures,omitempty"`
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
}

// outcome is everything a run produced.
type outcome struct {
	res   result
	det   detail
	spans *spanLog
}

// runWorkload sets the workload up (repeatedly when untraced), then
// either measures it untraced or, traced, spends half the window on
// untraced serve ops and half on the layer replay.
func runWorkload(ctx context.Context, cfg runConfig, sz sizes) (*outcome, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, sz)
	if err != nil {
		return nil, err
	}
	h := newHarness(cfg.traced)
	defer h.close()
	var log *spanLog
	repeats := sz.setupRepeats
	if cfg.traced {
		log = newSpanLog()
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		runtime.GC() // every set-up starts from the same heap state
		t0 := time.Now()
		if err := w.setup(ctx, h, log); err != nil {
			w.close(ctx)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close(ctx)
	runtime.GC()

	out := &outcome{spans: log}
	out.det = detail{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.traced, Env: readEnvironment(), SetupS: setups,
		Samples: map[string]sampleCount{}}
	window := time.Duration(cfg.seconds * float64(time.Second))
	var t tally
	if !cfg.traced {
		rt := newRTReader()
		before := rt.read()
		t0 := time.Now()
		if err := w.measure(ctx, h, t0.Add(window), &t, nil); err != nil {
			return nil, err
		}
		busy := time.Since(t0) - t.checkTime
		after := rt.read()
		out.res.Metrics = endToEnd(&out.det, &t, median(setups), busy, after.allocBytes-before.allocBytes, w.roundsPerOp())
	} else {
		obs := &serveObs{rt: newRTReader()}
		if err := w.measure(ctx, h, time.Now().Add(window/2), &t, obs); err != nil {
			return nil, err
		}
		untracedP50 := median(t.latMS)
		out.det.Samples["untraced_op_p50_ms"] = sampleCount{N: len(t.latMS)}
		var rt tally
		if err := w.replay(ctx, h, time.Now().Add(window/2), log, &rt); err != nil {
			return nil, err
		}
		out.res.Metrics = perLayer(log.spans, rt.replays, obs, untracedP50)
		t.attempted += rt.attempted
		t.failed += rt.failed
		t.failures = append(t.failures, rt.failures...)
	}
	out.res.Attempted, out.res.Failed = t.attempted, t.failed
	out.res.Correct = t.failed == 0 && t.attempted > 0
	out.det.OpsPerRun = t.attempted
	out.det.FailRatio = float64(t.failed) / float64(max(t.attempted, 1))
	out.det.Failures = t.failures
	return out, nil
}

// endToEnd assembles the gated metrics of an untraced run.
func endToEnd(det *detail, t *tally, setupS float64, busy time.Duration, allocBytes uint64, rounds float64) map[string]metric {
	ops := max(t.attempted, 1)
	p50, b50 := percentile(t.latMS, 50)
	p90, b90 := percentile(t.latMS, 90)
	p99, b99 := percentile(t.latMS, 99)
	det.Samples["op_p50_ms"] = sampleCount{len(t.latMS), b50}
	det.Samples["op_p90_ms"] = sampleCount{len(t.latMS), b90}
	det.Samples["op_p99_ms"] = sampleCount{len(t.latMS), b99}
	det.OpP99ms = p99
	return map[string]metric{
		"setup_s":               {setupS, "s"},
		"op_p50_ms":             {p50, "ms"},
		"op_p90_ms":             {p90, "ms"},
		"ops_per_s":             {float64(len(t.latMS)) / busy.Seconds(), "1/s"},
		"ok_ratio":              {float64(t.attempted-t.failed) / float64(ops), "ratio"},
		"alloc_mb_per_op":       {float64(allocBytes) / 1e6 / float64(ops), "MB"},
		"peak_rss_mb":           {peakRSSMB(), "MB"},
		"charged_rounds_per_op": {rounds, "rounds"},
	}
}

// layerStat sums one span name over a run.
type layerStat struct {
	ns, selfNS, alloc int64
	calls             int
}

// perLayer assembles the metrics of a traced run from the replay spans,
// the replay results and the serve-level observations.
func perLayer(spans []span, reps []replayed, obs *serveObs, untracedP50 float64) map[string]metric {
	self := selfTimes(spans)
	stats := map[string]*layerStat{}
	var opNS []float64
	for i, s := range spans {
		st := stats[s.Name]
		if st == nil {
			st = &layerStat{}
			stats[s.Name] = st
		}
		st.ns += s.End - s.Start
		st.selfNS += self[i]
		st.alloc += max(s.Alloc, 0)
		st.calls++
		if s.Name == rootSpan {
			opNS = append(opNS, float64(s.End-s.Start))
		}
	}
	ops := float64(max(len(opNS), 1))
	get := func(name string) layerStat {
		if st := stats[name]; st != nil {
			return *st
		}
		return layerStat{}
	}
	msPerOp := func(name string) metric { return metric{float64(get(name).ns) / 1e6 / ops, "ms"} }
	mbPerOp := func(names ...string) metric {
		var b int64
		for _, n := range names {
			b += get(n).alloc
		}
		return metric{float64(b) / 1e6 / ops, "MB"}
	}
	perCall := func(name string, scale float64, unit string) metric {
		st := get(name)
		return metric{float64(st.ns) / scale / float64(max(st.calls, 1)), unit}
	}
	repMean := func(f func(r replayed) float64, unit string) metric {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return metric{mean(xs), unit}
	}
	dfsBuild := get("dfs.build")
	cacheHit := 0.0
	if obs.jobs > 0 {
		cacheHit = float64(obs.cachedJobs) / float64(obs.jobs)
	} else if obs.queries > 0 {
		cacheHit = float64(obs.queryHits) / float64(obs.queries)
	}
	gcOps := float64(max(obs.jobs+obs.queries, 1))
	gcShare := 0.0
	if obs.totalCPU > 0 {
		gcShare = obs.gcCPU / obs.totalCPU
	}
	replayOp := 0.0
	if len(opNS) > 0 {
		replayOp = median(opNS) / 1e6
	}
	return map[string]metric{
		"gen.generate_ms":            perCall("gen.generate", 1e6, "ms"),
		"gen.decode_ms":              msPerOp("gen.decode"),
		"gen.hash_ms":                msPerOp("gen.hash"),
		"guard.validate_ms":          msPerOp("guard.validate"),
		"guard.rounds":               repMean(func(r replayed) float64 { return float64(r.guardRounds) }, "rounds"),
		"guard.messages":             repMean(func(r replayed) float64 { return float64(r.guardMessages) }, "count"),
		"guard.alloc_mb":             mbPerOp("guard.validate"),
		"planar.faces_ms":            msPerOp("planar.faces"),
		"spanning.bfs_ms":            msPerOp("spanning.bfs"),
		"spanning.tree_view_ms":      msPerOp("spanning.tree_view"),
		"dfs.build_ms":               msPerOp("dfs.build"),
		"dfs.self_ms":                {float64(dfsBuild.selfNS) / 1e6 / ops, "ms"},
		"dfs.untraced_ms":            msPerOp("dfs.untraced"),
		"dfs.phases":                 repMean(func(r replayed) float64 { return float64(r.phases) }, "count"),
		"dfs.separator_calls":        repMean(func(r replayed) float64 { return float64(r.sepCalls) }, "count"),
		"dfs.join_subphases":         repMean(func(r replayed) float64 { return float64(r.joinSubPhases) }, "count"),
		"dfs.alloc_mb":               mbPerOp("dfs.build"),
		"separator.find_ms":          msPerOp("separator.find"),
		"separator.find_us_per_call": perCall("separator.find", 1e3, "us"),
		"weights.config_ms":          msPerOp("weights.config"),
		"sepengine.find_ms":          msPerOp("sepengine.find"),
		"chaos.certify_ms":           msPerOp("chaos.certify"),
		"chaos.attempts":             repMean(func(r replayed) float64 { return float64(r.attempts) }, "count"),
		"cert.spanning_ms":           msPerOp("cert.spanning"),
		"cert.dfs_ms":                msPerOp("cert.dfs"),
		"cert.separator_ms":          msPerOp("cert.separator"),
		"cert.rounds":                repMean(func(r replayed) float64 { return float64(r.certRounds) }, "rounds"),
		"cert.alloc_mb":              mbPerOp("cert.spanning", "cert.dfs", "cert.separator"),
		"trace.spans_per_op":         repMean(func(r replayed) float64 { return float64(r.traceSpans) }, "count"),
		"trace.overhead_ms":          {float64(dfsBuild.ns-get("dfs.untraced").ns) / 1e6 / ops, "ms"},
		"serve.submit_ms":            {mean(obs.submitMS), "ms"},
		"serve.queue_wait_ms":        {mean(obs.queueMS), "ms"},
		"serve.build_ms":             {mean(obs.buildMS), "ms"},
		"serve.polls_per_op":         {float64(obs.polls) / float64(max(obs.jobs, 1)), "count"},
		"serve.cache_hit_ratio":      {cacheHit, "ratio"},
		"serve.query_handler_us":     {median(obs.handlerUS), "us"},
		"serve.query_transport_us":   {median(obs.transportUS), "us"},
		"serve.live_mb_per_job":      {obs.liveMBPerJob, "MB"},
		"gc.cycles_per_op":           {float64(obs.gcCycles) / gcOps, "count"},
		"gc.cpu_share":               {gcShare, "ratio"},
		"replay.coverage":            {coverage(spans, untracedP50), "ratio"},
		"replay.op_ms":               {replayOp, "ms"},
		"replay.overhead_ms":         {replayOp - untracedP50, "ms"},
	}
}

// revision names the source the binary was built from: the VCS revision
// when the build stamped one, otherwise a digest of the module's Go
// sources and go.mod files under the working directory.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return sourceDigest(".")
}

func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil || len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	hash := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(hash, "%s %d\n", f, len(b))
		hash.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(hash.Sum(nil))[:16]
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "planardbench: need --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	// The whole run, set-up included, must end well inside three minutes.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1}
	out, err := runWorkload(ctx, cfg, fullSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "planardbench:", err)
		os.Exit(1)
	}
	if cfg.traced {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := out.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "planardbench: writing spans:", err)
			os.Exit(1)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out.det); err != nil {
		fmt.Fprintln(os.Stderr, "planardbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(out.res); err != nil {
		fmt.Fprintln(os.Stderr, "planardbench:", err)
		os.Exit(1)
	}
}
