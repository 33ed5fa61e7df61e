// Command benchjson measures the simulator and writes a machine-readable
// baseline in the one schema planardfs/bench/v2:
//
//	{"schema": "planardfs/bench/v2", "mode": ..., "env": {...},
//	 "rows": [{"id": {...}, "det": {...}, "host": {...}}, ...]}
//
// Every row keeps the two currencies apart. id labels it: program, scheme,
// engine, case or spec, family, and the requested size. det holds what the
// simulation determines — vertex and edge counts, CONGEST rounds and
// messages, label widths, verdicts, outcomes, hashes and cache counts —
// and is the same on every host and run. host holds what a clock or
// testing.Benchmark measured on the machine env describes: ns, bytes and
// allocs per op, serve latencies and queue waits. Allocation counts sit in
// host because they come from the same benchmark run and move with the
// garbage collector and HTTP.
//
// The -mode flag picks what is measured:
//
//	congest  round engine: the bfs, pa and dfs (Awerbuch) node programs per
//	         family at -n; -scaling adds an instance-construction and a BFS
//	         row per -sizes entry
//	cert     certification layer: prove and verify a correct output per scheme
//	chaos    supervised recovery of bfs and awerbuch under fault plans, next
//	         to the fault-free baseline rounds
//	serve    the job server over HTTP: one cold build per family, cached
//	         queries, and a resubmission burst for the cache counts
//	engines  every registered separator engine over -families x -sizes,
//	         cert-verified; an engine's honest typed failure is a
//	         "no-separator" row
//	guard    admission guard: acceptance overhead and rejection latency
//
// -n, -sizes and -families default per mode, so that
//
//	benchjson -mode <mode> -o BENCH_<mode>.json
//
// regenerates each committed file (with -scaling for congest).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

// schema names the file layout below.
const schema = "planardfs/bench/v2"

// File is the layout of every BENCH_*.json file.
type File struct {
	Schema string `json:"schema"`
	Mode   string `json:"mode"`
	Env    Env    `json:"env"`
	Rows   []Row  `json:"rows"`
}

// Env describes the host the host columns were measured on.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPU is the processor model, empty where /proc/cpuinfo names none.
	CPU string `json:"cpu"`
	// Revision and Modified are the binary's VCS stamp; empty and false
	// for binaries built without one, such as under go run.
	Revision string `json:"revision"`
	Modified bool   `json:"modified"`
}

// Row is one measurement. Size in ID is the requested vertex count; n in
// Det is the count of the instance the generator built for it.
type Row struct {
	ID   Fields `json:"id"`
	Det  Fields `json:"det"`
	Host Fields `json:"host"`
}

// Fields is one block of a row. JSON writes its keys sorted.
type Fields map[string]any

// sweep is what one run measures, after per-mode defaults are applied.
type sweep struct {
	n        int
	sizes    []int
	families []string
	programs []string // congest only
	scaling  bool     // congest only
}

// mode is one kind of baseline: its flag defaults and its row function.
type mode struct {
	name     string
	n        int    // default -n; 0 for modes that sweep -sizes instead
	sizes    string // default -sizes
	families string // default -families
	rows     func(sweep) ([]Row, error)
}

// modes are the defaults that regenerate the committed BENCH_<name>.json.
var modes = []mode{
	{"congest", 1024, "1000,10000,100000,1000000", "grid,cylinderish,stacked", congestRows},
	{"cert", 1024, "", "grid,cylinderish,stacked", certRows},
	{"chaos", 256, "", "grid,cylinderish", chaosRows},
	{"serve", 10000, "", "grid,stacked", serveRows},
	{"engines", 0, "256,1024", "wheel,grid,cylinderish,stacked,polygon", engineRows},
	{"guard", 0, "64,256", "grid,cylinderish,stacked,wheel", guardRows},
}

func modeNames() string {
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.name
	}
	return strings.Join(names, "|")
}

func main() {
	err := run(os.Args[1:])
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	modeName := fs.String("mode", "congest", "what to measure: "+modeNames())
	n := fs.Int("n", 0, "approximate vertex count per instance for congest, cert, chaos and serve (default per mode)")
	sizes := fs.String("sizes", "", "comma-separated vertex counts swept by congest -scaling, engines and guard (default per mode)")
	families := fs.String("families", "", "comma-separated generator families (default per mode)")
	programs := fs.String("programs", "bfs,pa,dfs", "comma-separated congest programs (bfs,pa,dfs)")
	scaling := fs.Bool("scaling", false, "congest: add construction and BFS rows for every -sizes entry")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var m *mode
	for i := range modes {
		if modes[i].name == *modeName {
			m = &modes[i]
		}
	}
	if m == nil {
		return fmt.Errorf("unknown -mode %q (want %s)", *modeName, modeNames())
	}

	sw := sweep{n: m.n, programs: strings.Split(*programs, ","), scaling: *scaling}
	if *n != 0 {
		sw.n = *n
	}
	if *sizes == "" {
		*sizes = m.sizes
	}
	if *families == "" {
		*families = m.families
	}
	sw.families = strings.Split(*families, ",")
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			size, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad -sizes entry %q: %w", s, err)
			}
			sw.sizes = append(sw.sizes, size)
		}
	}

	rows, err := m.rows(sw)
	if err != nil {
		return fmt.Errorf("%s: %w", m.name, err)
	}
	for _, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s\n", line)
	}
	data, err := json.MarshalIndent(File{Schema: schema, Mode: m.name, Env: hostEnv(), Rows: rows}, "", "  ")
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

func hostEnv() Env {
	env := Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "" where
// the file is missing or names no model.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// hostCost runs op under testing.Benchmark and returns what it cost the
// host per op. The first error op returns stops the run and is returned.
func hostCost(op func() error) (testing.BenchmarkResult, error) {
	var opErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if opErr = op(); opErr != nil {
				b.Fatal(opErr)
			}
		}
	})
	return res, opErr
}

// perOp is the host block of a row measured by hostCost.
func perOp(res testing.BenchmarkResult) Fields {
	return Fields{
		"ns_per_op":     res.NsPerOp(),
		"bytes_per_op":  res.AllocedBytesPerOp(),
		"allocs_per_op": res.AllocsPerOp(),
	}
}

// ratio is num/den, or 0 when den is 0.
func ratio[T int | int64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
