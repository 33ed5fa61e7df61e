package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// tiny is the sweep every mode runs in the tests: one family at n ≈ 64.
// congest sweeps its scaling rows at 100 so that they do not repeat its
// n = 64 rows.
var tiny = sweep{
	n:        64,
	sizes:    []int{64},
	families: []string{"grid"},
	programs: []string{"bfs", "pa", "dfs"},
	scaling:  true,
}

// pins are det values the v1 harness recorded at the tiny sweep's sizes.
// They hold the harness to measuring what it measured before. The serve
// rounds and the guard's pipeline_rounds were re-recorded when the Lemma 2
// JOIN began walking the separator path, which changed the charged DFS
// rounds; the valid row's guard_rounds (448 → 3,388) when the guard
// verdict began counting the Euler stage's prover charge. The guard rows'
// rounds and messages were re-recorded (valid 3,388/2,208 → 3,355/1,732,
// dense-region 245/709 → 124/301) when the guard dropped its distributed
// rotation check, which Wire.Check and the embedding constructors make
// redundant; the dense-region row now validates its bare graph. The cert
// rows' agg_rounds (dfs 31 → 29, embedding 62 → 29), the guard rows'
// rounds and messages (valid 3,355/1,732 → 3,291/1,606, dense-region
// 124/301 → 122/175) and the serve rounds (1,253,877 → 1,253,871) were
// re-recorded when verdicts and sums began folding with a convergecast
// and broadcast in 2·depth+1 rounds and 2(n−1) messages, and the guard in
// one fold.
var pins = []struct{ mode, id, det string }{
	{"congest", `{"family":"grid","program":"bfs","size":64}`, `{"n":64,"m":112,"rounds":16,"messages":224,"words":448,"max_edge_congestion":1}`},
	{"congest", `{"family":"grid","program":"pa","size":64}`, `{"rounds":57,"messages":446,"words":1086}`},
	{"congest", `{"family":"grid","program":"dfs","size":64}`, `{"rounds":127,"messages":224,"words":287}`},
	{"congest", `{"family":"grid","program":"construct","size":100}`, `{"n":100,"m":180,"rounds":0,"messages":0}`},
	{"congest", `{"family":"grid","program":"bfs","size":100}`, `{"n":100,"m":180,"rounds":20,"messages":360,"words":720}`},
	{"cert", `{"family":"grid","scheme":"dfs","size":64}`, `{"label_words":3,"prover_rounds":11767,"verifier_rounds":2,"agg_rounds":29,"messages":224,"words":896}`},
	{"cert", `{"family":"grid","scheme":"separator","size":64}`, `{"label_words":11,"prover_rounds":19117,"words":2688}`},
	{"cert", `{"family":"grid","scheme":"embedding","size":64}`, `{"label_words":2,"agg_rounds":29}`},
	{"chaos", `{"family":"grid","program":"bfs","seed":1,"size":64,"spec":"drops=3,corruptions=2,crashes=1,horizon=24"}`, `{"outcome":"certified-after-retry","attempts":2,"rounds_total":32,"baseline_rounds":16,"round_overhead":2,"faults_fired":4}`},
	{"chaos", `{"family":"grid","program":"awerbuch","seed":1,"size":64,"spec":"linkdowns=2,horizon=24"}`, `{"outcome":"degraded","attempts":4,"rounds_total":5307,"baseline_rounds":127,"faults_fired":7}`},
	{"engines", `{"engine":"theorem1","family":"grid","size":64}`, `{"cycle_len":11,"balance":0.453125,"rounds":162626,"phase":"sparse-virtual","cert_verdict":"accept"}`},
	{"engines", `{"engine":"har-peled-nayyeri","family":"grid","size":64}`, `{"cycle_len":28,"rounds":37744,"phase":"level-cycle","cert_verdict":"accept"}`},
	{"engines", `{"engine":"randomized","family":"grid","size":64}`, `{"cycle_len":0,"balance":0,"rounds":0,"phase":"","cert_verdict":"no-separator"}`},
	{"guard", `{"case":"valid","family":"grid","size":64}`, `{"accepted":true,"guard_rounds":3291,"guard_messages":1606,"pipeline_rounds":1221424}`},
	{"guard", `{"case":"genus-splice","family":"grid","size":64}`, `{"accepted":false,"reason":"euler"}`},
	{"guard", `{"case":"dense-region","family":"k7-plant","size":64}`, `{"m":78,"accepted":false,"reason":"dense-region","guard_rounds":122,"guard_messages":175}`},
	{"serve", `{"family":"grid","size":64,"workers":2}`, `{"hash":"85250460f25ff7190dc20a168c04e175fdbbdb714878f9c28657fa3ad8328705","rounds":1253871,"cache_hits":16,"cache_misses":1}`},
}

// oneIteration makes every hostCost call run its op once: the tests check
// det, which one run determines.
func oneIteration(t *testing.T) {
	t.Helper()
	f := flag.Lookup("test.benchtime")
	old := f.Value.String()
	if err := f.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Value.Set(old) })
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestModeRows runs every mode twice at a tiny size: each row needs a
// unique non-empty id and a host block, the det blocks of the two runs
// must be identical, and the pinned det values must hold.
func TestModeRows(t *testing.T) {
	oneIteration(t)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			sw := tiny
			if m.name == "congest" {
				sw.sizes = []int{100}
			}
			first, err := m.rows(sw)
			if err != nil {
				t.Fatal(err)
			}
			second, err := m.rows(sw)
			if err != nil {
				t.Fatal(err)
			}
			if len(first) == 0 || len(first) != len(second) {
				t.Fatalf("row counts %d and %d", len(first), len(second))
			}
			byID := map[string]Row{}
			for i, r := range first {
				id := mustJSON(t, r.ID)
				if len(r.ID) == 0 || len(r.Host) == 0 {
					t.Fatalf("row %d: empty id or host: %s", i, mustJSON(t, r))
				}
				if _, dup := byID[id]; dup {
					t.Fatalf("duplicate id %s", id)
				}
				byID[id] = r
				if other := mustJSON(t, second[i].ID); other != id {
					t.Fatalf("row %d: ids %s and %s", i, id, other)
				}
				if a, b := mustJSON(t, r.Det), mustJSON(t, second[i].Det); a != b {
					t.Fatalf("%s: det differs between runs:\n%s\n%s", id, a, b)
				}
			}
			for _, p := range pins {
				if p.mode != m.name {
					continue
				}
				r, ok := byID[p.id]
				if !ok {
					t.Fatalf("no row %s", p.id)
				}
				var got, want map[string]any
				if err := json.Unmarshal([]byte(mustJSON(t, r.Det)), &got); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal([]byte(p.det), &want); err != nil {
					t.Fatal(err)
				}
				for k, w := range want {
					if g, ok := got[k]; !ok || !reflect.DeepEqual(g, w) {
						t.Errorf("%s: det %s = %v, want %v", p.id, k, g, w)
					}
				}
			}
		})
	}
}

// TestRunWritesV2 drives the command end to end and checks the file it
// writes: the schema, the mode and a filled env.
func TestRunWritesV2(t *testing.T) {
	oneIteration(t)
	path := filepath.Join(t.TempDir(), "BENCH_cert.json")
	if err := run([]string{"-mode", "cert", "-n", "64", "-families", "grid", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != schema || f.Mode != "cert" || len(f.Rows) != len(certSchemes) {
		t.Fatalf("schema %q mode %q with %d rows", f.Schema, f.Mode, len(f.Rows))
	}
	e := f.Env
	if e.GoVersion == "" || e.GOOS == "" || e.GOARCH == "" || e.NumCPU <= 0 || e.GOMAXPROCS <= 0 {
		t.Fatalf("env not filled: %+v", e)
	}
	if runtime.GOOS == "linux" && runtime.GOARCH == "amd64" && e.CPU == "" {
		t.Fatalf("no CPU model on linux/amd64: %+v", e)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	err := run([]string{"-mode", "bogus", "-o", os.DevNull})
	if err == nil {
		t.Fatal("-mode bogus accepted")
	}
	for _, m := range modes {
		if !strings.Contains(err.Error(), m.name) {
			t.Errorf("error %q does not name mode %s", err, m.name)
		}
	}
	err = run([]string{"-mode", "guard", "-sizes", "64,x1", "-o", os.DevNull})
	if err == nil || !strings.Contains(err.Error(), `-sizes entry "x1"`) {
		t.Fatalf("bad -sizes entry: got %v", err)
	}
}
