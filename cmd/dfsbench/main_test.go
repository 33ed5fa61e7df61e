package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"planardfs/internal/chaos"
)

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

// recoverGolden is the recorded stdout of the faulted -recover run below:
// three Theorem 2 attempts are rejected and Awerbuch's token DFS certifies.
const recoverGolden = `supervised DFS run: grid-6x6 n=36 m=60 root=1
recovery: outcome=degraded attempts=4 faults[drops=0 corruptions=0 stalls=0 linkdown=0 crashes=0 structural=7]
  separator-pipeline attempt 1: budget=460 rounds=394425 faults=4 rejected: structural precheck: spanning: 1 of 36 vertices reachable from root
  separator-pipeline attempt 2: budget=920 rounds=394425 faults=2 rejected: proof-labeling verifier rejected
  separator-pipeline attempt 3: budget=1840 rounds=394425 faults=1 rejected: structural precheck: spanning: 2 of 36 vertices reachable from root
  awerbuch attempt 1: budget=460 rounds=71 faults=0 accepted
recovered DFS tree: 35 tree edges
`

// certifyGolden is the recorded stdout of the -certify run below: the
// guarded pipeline's admission line, then its spanning, dfs and separator
// verdicts. The admission rounds were re-recorded (176 → 1,760) when the
// guard verdict began counting the Euler stage's prover charge, and
// (1,760/809 → 1,735/549) when the guard dropped its distributed rotation
// check. The admission and aggregation rounds were re-recorded when
// verdicts began folding in 2·depth+1 rounds instead of part-wise
// aggregation's 2·depth+3 (aggRounds 23 → 21) and the guard began
// folding once (1,735/549 → 1,687/479).
const certifyGolden = `certifying DFS run: grid-6x6 n=36 m=60 root=1
guard: accept grid-6x6 n=36 rounds=1687 msgs=479
certify spanning: ACCEPT labelWords=3 proverRounds=792 verifierRounds=2 aggRounds=21 msgs=120
certify dfs: ACCEPT labelWords=3 proverRounds=5550 verifierRounds=2 aggRounds=21 msgs=120
certify separator: ACCEPT labelWords=11 proverRounds=9114 verifierRounds=2 aggRounds=21 msgs=120
`

// TestRecoverCLI drives the supervised DFS end to end through the binary:
// a fault-free run certifies on the first attempt, and a structural fault
// burst forces rejections that the runtime must absorb by retrying or
// degrading to Awerbuch — exiting zero either way, with the outcome named
// in the report.
func TestRecoverCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t, "planardfs/cmd/dfsbench")

	out, err := exec.Command(bin, "-recover", "-families", "grid", "-sizes", "36").CombinedOutput()
	if err != nil {
		t.Fatalf("fault-free -recover: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "outcome=certified") {
		t.Fatalf("fault-free run did not certify:\n%s", out)
	}

	s, err := exec.Command(bin, "-recover", "-families", "grid", "-sizes", "36",
		"-chaos", "structural=4", "-chaos-seed", "7").Output()
	if err != nil {
		t.Fatalf("faulted -recover: %v\n%s", err, s)
	}
	if string(s) != recoverGolden {
		t.Fatalf("faulted -recover diverged from the recorded output:\n--- got ---\n%s--- want ---\n%s", s, recoverGolden)
	}

	// A malformed spec must fail fast, before any run starts.
	if out, err := exec.Command(bin, "-recover", "-chaos", "bogus=1").CombinedOutput(); err == nil {
		t.Fatalf("bogus fault spec accepted:\n%s", out)
	}
}

// TestCertifyCLI checks the plain -certify path exits zero with the
// admission line and ACCEPT verdicts for the three schemes the pipeline
// certifies, byte for byte as recorded. The golden's certify dfs line is
// the one dfsbench printed when it certified a bare Theorem 2 build.
func TestCertifyCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t, "planardfs/cmd/dfsbench")
	out, err := exec.Command(bin, "-certify", "-families", "grid", "-sizes", "36").Output()
	if err != nil {
		t.Fatalf("-certify: %v\n%s", err, out)
	}
	if string(out) != certifyGolden {
		t.Fatalf("-certify diverged from the recorded output:\n--- got ---\n%s--- want ---\n%s", out, certifyGolden)
	}
}

// TestRequireFirstAttempt checks that -certify fails, printing the
// recovery report, when the Theorem 2 tree is not certified on its first
// attempt: a retried or degraded dfs stage still ends with an accepted
// verdict, which must not pass for the Theorem 2 tree's.
func TestRequireFirstAttempt(t *testing.T) {
	var buf bytes.Buffer
	if err := requireFirstAttempt(&buf, &chaos.Report{Outcome: chaos.OutcomeCertified}); err != nil || buf.Len() != 0 {
		t.Fatalf("first-attempt certification: err=%v output=%q", err, buf.String())
	}
	for _, o := range []chaos.Outcome{chaos.OutcomeCertifiedRetry, chaos.OutcomeDegraded, chaos.OutcomeFailed} {
		buf.Reset()
		rep := &chaos.Report{Outcome: o, Attempts: []chaos.Attempt{
			{Stage: "separator-pipeline", Attempt: 1, Err: "proof-labeling verifier rejected"},
			{Stage: "awerbuch", Attempt: 1, Accepted: true},
		}}
		if err := requireFirstAttempt(&buf, rep); err == nil {
			t.Fatalf("outcome %s accepted", o)
		}
		if !strings.Contains(buf.String(), "outcome="+o.String()) || !strings.Contains(buf.String(), "rejected: proof-labeling verifier rejected") {
			t.Fatalf("outcome %s: report not printed:\n%s", o, buf.String())
		}
	}
}

// TestTraceCLI checks that -trace writes the traced pipeline run: two
// runs write byte-identical files, and the summary line lists all seven
// layers, including the cert and chaos layers of the certified dfs stage.
func TestTraceCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t, "planardfs/cmd/dfsbench")
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("trace%d.json", i))
		out, err := exec.Command(bin, "-families", "grid", "-sizes", "64", "-trace", path).Output()
		if err != nil {
			t.Fatalf("-trace: %v\n%s", err, out)
		}
		if want := "layers=[network primitive lemma separator dfs cert chaos]"; !strings.Contains(string(out), want) {
			t.Fatalf("summary lacks %q:\n%s", want, out)
		}
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("two -trace runs wrote different files")
	}
}
