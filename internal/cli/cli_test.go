package cli

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/trace"
)

func TestParseInts(t *testing.T) {
	got, err := ParseInts(" 64, 256 ,1024")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{64, 256, 1024}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseInts = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "64,", "64,,256", "x", "64,1e3"} {
		if got, err := ParseInts(bad); err == nil {
			t.Fatalf("ParseInts(%q) = %v, want an error", bad, got)
		}
	}
}

func TestPrintVerdicts(t *testing.T) {
	ok := &cert.Verdict{Scheme: "spanning", OK: true, LabelWords: 3, ProverRounds: 10,
		VerifierRounds: 2, AggRounds: 5, Stats: congest.Stats{Messages: 40}}
	bad := &cert.Verdict{Scheme: "dfs", Rejectors: []int{2, 9}, LabelWords: 3,
		VerifierRounds: 2}

	var buf bytes.Buffer
	if err := PrintVerdicts(&buf, ok); err != nil {
		t.Fatalf("accepting verdict returned %v", err)
	}
	want := "certify spanning: ACCEPT labelWords=3 proverRounds=10 verifierRounds=2 aggRounds=5 msgs=40\n"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}

	buf.Reset()
	if err := PrintVerdicts(&buf, bad, ok); err == nil {
		t.Fatal("rejecting verdict returned no error")
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "certify dfs: REJECT at [2 9] labelWords=3") || lines[1]+"\n" != want {
		t.Fatalf("want a REJECT line then the ACCEPT line, got:\n%s", buf.String())
	}
}

func TestPrintAdmission(t *testing.T) {
	in, err := gen.ByName("grid", 36, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := PrintAdmission(&out, &errOut, in, &guard.Verdict{OK: true, Rounds: 48, Messages: 120}); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "guard: accept grid-6x6 n=36 rounds=48 msgs=120\n"; got != want || errOut.Len() != 0 {
		t.Fatalf("accept: stdout %q (want %q), stderr %q", got, want, errOut.String())
	}

	out.Reset()
	rej := &guard.Verdict{Witness: &guard.Witness{Reason: guard.ReasonEuler, Detail: "sum 6"}}
	err = PrintAdmission(&out, &errOut, in, rej)
	if !errors.Is(err, guard.ErrRejected) {
		t.Fatalf("rejection error %v does not match guard.ErrRejected", err)
	}
	if got, want := errOut.String(), "guard: REJECT grid-6x6 n=36 reason=euler detail=\"sum 6\"\n"; got != want || out.Len() != 0 {
		t.Fatalf("reject: stderr %q (want %q), stdout %q", got, want, out.String())
	}

	// GuardAdmit prints one admission line per generated instance.
	out.Reset()
	errOut.Reset()
	if err := GuardAdmit(&out, &errOut, []string{"grid", "wheel"}, []int{36}, 1); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); len(lines) != 2 ||
		!strings.HasPrefix(lines[0], "guard: accept grid-6x6 n=36 ") || !strings.HasPrefix(lines[1], "guard: accept wheel-") {
		t.Fatalf("want one accept line per instance, got:\n%s", out.String())
	}
	if err := GuardAdmit(&out, &errOut, []string{"nosuchfamily"}, []int{36}, 1); err == nil {
		t.Fatal("unknown family admitted")
	}
}

func TestPrintReport(t *testing.T) {
	var buf bytes.Buffer
	PrintReport(&buf, &chaos.Report{
		Outcome: chaos.OutcomeCertifiedRetry,
		Attempts: []chaos.Attempt{
			{Stage: "bfs", Attempt: 1, Budget: 10, Rounds: 10, Faults: chaos.Counts{Drops: 2}, Err: "proof-labeling verifier rejected"},
			{Stage: "bfs", Attempt: 2, Budget: 20, Rounds: 7, Accepted: true},
		},
		Faults: chaos.Counts{Drops: 2},
	})
	want := "recovery: outcome=certified-after-retry attempts=2 faults[drops=2 corruptions=0 stalls=0 linkdown=0 crashes=0 structural=0]\n" +
		"  bfs attempt 1: budget=10 rounds=10 faults=2 rejected: proof-labeling verifier rejected\n" +
		"  bfs attempt 2: budget=20 rounds=7 faults=0 accepted\n"
	if buf.String() != want {
		t.Fatalf("got:\n%swant:\n%s", buf.String(), want)
	}
}

func TestWriteTrace(t *testing.T) {
	rec := trace.NewRecorder()
	rec.Count("rounds.charged", 5)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec, "", false); err != nil || buf.Len() != 0 {
		t.Fatalf("no path, no metrics: wrote %q, err %v", buf.String(), err)
	}
	if err := WriteTrace(&buf, nil, "ignored.json", true); err != nil || buf.Len() != 0 {
		t.Fatalf("nil recorder: wrote %q, err %v", buf.String(), err)
	}

	path := filepath.Join(t.TempDir(), "t.json")
	if err := WriteTrace(&buf, rec, path, true); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "trace written to "+path+"\n") || !strings.Contains(buf.String(), "rounds.charged") {
		t.Fatalf("want the trace announcement and the metrics dump, got:\n%s", buf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil || !bytes.Contains(data, []byte("traceEvents")) {
		t.Fatalf("trace file: %v\n%s", err, data)
	}
}
