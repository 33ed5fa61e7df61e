package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
// path corruption is rejected three times and the fault-free fallback
// certifies.
const recoverGolden = `supervised separator run: grid-8x8 n=64 m=112 root=1
recovery: outcome=degraded attempts=4 faults[drops=0 corruptions=0 stalls=0 linkdown=0 crashes=0 structural=10]
  separator attempt 1: budget=740 rounds=162626 faults=6 rejected: structural precheck: cert: separator is unbalanced (sides 52/1 of 64)
  separator attempt 2: budget=1480 rounds=162626 faults=3 rejected: structural precheck: cert: separator is unbalanced (sides 53/0 of 64)
  separator attempt 3: budget=2960 rounds=162626 faults=1 rejected: proof-labeling verifier rejected
  separator attempt 1: budget=740 rounds=162626 faults=0 accepted
recovered separator: len=11 phase=sparse-virtual
`

// certifyGolden is the recorded stdout of the -certify run below: the three
// verdicts, all certified on one Verifier.
const certifyGolden = `certifying separator run: grid-8x8 n=64 m=112 engine=theorem1 sepLen=11 phase=sparse-virtual balance=0.453 rounds=162626
certify spanning: ACCEPT labelWords=3 proverRounds=1470 verifierRounds=2 aggRounds=31 msgs=224
certify embedding: ACCEPT labelWords=2 proverRounds=2940 verifierRounds=2 aggRounds=62 msgs=224
certify separator: ACCEPT labelWords=11 proverRounds=19117 verifierRounds=2 aggRounds=31 msgs=224
`

// TestRecoverCLI drives the supervised separator end to end: corrupting
// the claimed cycle path makes the separator scheme reject, and the
// runtime retries with a decaying burst or falls back to the fault-free
// stage — never exiting zero with an uncertified separator.
func TestRecoverCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t, "planardfs/cmd/sepbench")

	out, err := exec.Command(bin, "-recover", "-families", "grid", "-sizes", "64").CombinedOutput()
	if err != nil {
		t.Fatalf("fault-free -recover: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "outcome=certified") {
		t.Fatalf("fault-free run did not certify:\n%s", out)
	}

	s, err := exec.Command(bin, "-recover", "-families", "grid", "-sizes", "64",
		"-chaos", "structural=6", "-chaos-seed", "7").Output()
	if err != nil {
		t.Fatalf("faulted -recover: %v\n%s", err, s)
	}
	if string(s) != recoverGolden {
		t.Fatalf("faulted -recover diverged from the recorded output:\n--- got ---\n%s--- want ---\n%s", s, recoverGolden)
	}
}

// TestCertifyCLI checks the plain -certify path exits zero with ACCEPT
// verdicts for all three schemes (tree, embedding, separator), byte for
// byte as recorded.
func TestCertifyCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t, "planardfs/cmd/sepbench")
	out, err := exec.Command(bin, "-certify", "-families", "grid", "-sizes", "64").Output()
	if err != nil {
		t.Fatalf("-certify: %v\n%s", err, out)
	}
	if string(out) != certifyGolden {
		t.Fatalf("-certify diverged from the recorded output:\n--- got ---\n%s--- want ---\n%s", out, certifyGolden)
	}
}
