package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The exit-code contract of the chaos/certification flags: a run whose
// certification rejects or whose supervised recovery exhausts its attempts
// must exit nonzero, and clean runs must exit zero, so CI scripts can gate
// on the binary directly.

// buildCLI compiles one of the repo's commands into a temp dir.
func buildCLI(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	build := exec.Command("go", "build", "-o", bin, pkg)
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

// certifyGolden is the recorded stdout of a clean awerbuch -certify run.
// Its aggRounds were re-recorded (39 → 37) when verdicts began folding in
// 2·depth+1 rounds.
const certifyGolden = `graph grid-10x10: n=100 m=180
Awerbuch DFS: output verified
certify dfs: ACCEPT labelWords=3 proverRounds=14903 verifierRounds=2 aggRounds=37 msgs=360
rounds=199 messages=360 words=459 maxEdgeLoad=2 maxRoundWords=4 maxEdgeCongestion=1
per-round messages: mean=1.8 peak=3 (round 11) busy=198/199 rounds
`

func TestRecoverExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t, "planardfs/cmd/congestsim")

	// Clean supervised run: exit zero, certified on the first attempt.
	out, err := exec.Command(bin, "-program", "bfs", "-n", "36", "-recover").CombinedOutput()
	if err != nil {
		t.Fatalf("fault-free -recover run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "outcome=certified") {
		t.Fatalf("fault-free run did not certify:\n%s", out)
	}

	// A crash at round 0 makes the BFS tree non-spanning on every attempt;
	// with no fallback stage the runtime must exhaust and exit nonzero.
	out, err = exec.Command(bin, "-program", "bfs", "-n", "36", "-recover",
		"-chaos", "crashes=1,horizon=1", "-chaos-seed", "5").CombinedOutput()
	if err == nil {
		t.Fatalf("exhausted recovery exited zero:\n%s", out)
	}
	if !strings.Contains(string(out), "outcome=failed") ||
		!strings.Contains(string(out), "recovery exhausted") {
		t.Fatalf("missing explicit failure report:\n%s", out)
	}

	// The same plan without -recover produces a non-spanning output; the
	// -certify path must catch it (precheck error or REJECT verdict) and
	// exit nonzero.
	out, err = exec.Command(bin, "-program", "bfs", "-n", "36", "-certify",
		"-chaos", "crashes=1,horizon=1", "-chaos-seed", "5").CombinedOutput()
	if err == nil {
		t.Fatalf("-certify accepted a crashed run:\n%s", out)
	}
	if !strings.Contains(string(out), "REJECT") && !strings.Contains(string(out), "not a tree") {
		t.Fatalf("expected an explicit rejection:\n%s", out)
	}

	// A clean -certify run exits zero and prints its verdict as recorded.
	stdout, err := exec.Command(bin, "-program", "awerbuch", "-family", "grid", "-n", "100", "-certify").Output()
	if err != nil {
		t.Fatalf("clean -certify run failed: %v\n%s", err, stdout)
	}
	if string(stdout) != certifyGolden {
		t.Fatalf("-certify diverged from the recorded output:\n--- got ---\n%s--- want ---\n%s", stdout, certifyGolden)
	}

	// A part count below one is a usage error, reported before any run on
	// both the plain and the supervised path, never a panic.
	for _, args := range [][]string{
		{"-program", "pa", "-n", "36", "-parts", "0"},
		{"-program", "pa", "-n", "36", "-parts", "-2"},
		{"-program", "pa", "-n", "36", "-parts", "0", "-recover"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("%v: want exit status 1, got %v:\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "-parts must be at least 1") || strings.Contains(string(out), "graph ") {
			t.Fatalf("%v: want the -parts error before any run:\n%s", args, out)
		}
	}
}

// chaosGolden is the recorded output of the injected run below: two
// crashes fire, and the DFS still covers the grid.
const chaosGolden = `graph grid-16x16: n=256 m=480
Awerbuch DFS: output verified
chaos: fired drops=0 corruptions=0 stalls=0 linkdown=0 crashes=2 structural=0
rounds=420 messages=869 words=1124 maxEdgeLoad=2 maxRoundWords=4 maxEdgeCongestion=1
per-round messages: mean=2.1 peak=3 (round 17) busy=419/420 rounds
`

// TestChaosFlagDeterminism pins that a seeded fault plan fires faults and
// reproduces its run byte for byte.
func TestChaosFlagDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t, "planardfs/cmd/congestsim")
	args := []string{"-program", "awerbuch", "-n", "256", "-chaos", "crashes=2", "-chaos-seed", "3"}
	for i := 0; i < 2; i++ {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		if string(out) != chaosGolden {
			t.Fatalf("run %d of %v diverged from the recorded output:\n--- got ---\n%s--- want ---\n%s", i, args, out, chaosGolden)
		}
	}
}
