// Package cli holds the output and flag plumbing that the bench and
// simulator commands (sepbench, dfsbench, congestsim) share: list flags,
// admission-guard lines, certification verdicts, supervised-run reports
// and trace export. Every printer takes its writer, so one line format
// serves every command and tests can read what it prints.
package cli

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/trace"
)

// ParseInts parses a comma-separated list of integers, e.g. a -sizes
// flag. Spaces around entries are trimmed; an empty or non-numeric entry
// is an error.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		x, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

// PrintAdmission prints the admission guard's verdict v on in: the accept
// line on w, or the REJECT line with the typed witness on ew. It returns
// the rejection as an error matching guard.ErrRejected.
func PrintAdmission(w, ew io.Writer, in *gen.Instance, v *guard.Verdict) error {
	if !v.OK {
		fmt.Fprintf(ew, "guard: REJECT %s n=%d reason=%s detail=%q\n",
			in.Name, in.G.N(), v.Witness.Reason, v.Witness.Detail)
		return fmt.Errorf("input rejected by the admission guard: %w", v.Err())
	}
	fmt.Fprintf(w, "guard: accept %s n=%d rounds=%d msgs=%d\n",
		in.Name, in.G.N(), v.Rounds, v.Messages)
	return nil
}

// GuardAdmit validates every (family, size) instance a run will touch with
// the admission guard and prints one admission line each. The first
// rejection fails the command before any experiment runs on the bad input.
func GuardAdmit(w, ew io.Writer, fams []string, sizes []int, seed int64) error {
	for _, fam := range fams {
		for _, n := range sizes {
			in, err := gen.ByName(fam, n, seed)
			if err != nil {
				return err
			}
			v, err := guard.ValidateInstance(in, guard.Options{Seed: seed})
			if err != nil {
				return err
			}
			if err := PrintAdmission(w, ew, in, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// PrintVerdicts prints one line per certification verdict and returns an
// error iff any verdict rejects, so a rejected -certify run exits nonzero.
func PrintVerdicts(w io.Writer, vs ...*cert.Verdict) error {
	rejected := false
	for _, v := range vs {
		status := "ACCEPT"
		if !v.OK {
			status = fmt.Sprintf("REJECT at %v", v.Rejectors)
			rejected = true
		}
		fmt.Fprintf(w, "certify %s: %s labelWords=%d proverRounds=%d verifierRounds=%d aggRounds=%d msgs=%d\n",
			v.Scheme, status, v.LabelWords, v.ProverRounds, v.VerifierRounds, v.AggRounds, v.Stats.Messages)
	}
	if rejected {
		return fmt.Errorf("certification rejected the run")
	}
	return nil
}

// PrintReport summarizes a supervised run, one line per attempt.
func PrintReport(w io.Writer, rep *chaos.Report) {
	fmt.Fprintf(w, "recovery: outcome=%s attempts=%d faults[%s]\n",
		rep.Outcome, len(rep.Attempts), rep.Faults)
	for _, a := range rep.Attempts {
		status := "accepted"
		if !a.Accepted {
			status = "rejected"
			if a.Err != "" {
				status += ": " + a.Err
			}
		}
		fmt.Fprintf(w, "  %s attempt %d: budget=%d rounds=%d faults=%d %s\n",
			a.Stage, a.Attempt, a.Budget, a.Rounds, a.Faults.Total(), status)
	}
}

// WriteTrace exports what a run recorded in rec: a Chrome trace_event
// file at path (announced on w) when path is set, and the metrics
// registry on w when metrics is set. A nil rec writes nothing.
func WriteTrace(w io.Writer, rec *trace.Recorder, path string, metrics bool) error {
	if rec == nil {
		return nil
	}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s\n", path)
	}
	if metrics {
		return rec.WriteMetrics(w)
	}
	return nil
}
