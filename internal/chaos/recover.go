package chaos

import (
	"context"

	"planardfs/internal/cert"
	"planardfs/internal/trace"
)

// The supervised recovery runtime: run a producer, certify its output with
// the internal/cert proof-labeling verifiers, retry rejected attempts
// under an exponential round-budget backoff, degrade to a fallback
// producer when the primary exhausts its attempts, and report every step.
// The invariant it enforces is the soundness criterion of the fault model:
// an injected fault can never yield a silently wrong output — a supervised
// run ends in exactly one of {certified, certified-after-retry, degraded,
// failed}, and the first three return only certified results.

// Certification is one certifier ruling on one produced result.
type Certification struct {
	// OK reports acceptance.
	OK bool
	// Rejectors is the number of rejecting verifier nodes (when a
	// distributed verdict was run).
	Rejectors int
	// Detail is the human-readable rejection cause.
	Detail string
	// Verdict is the distributed proof-labeling verdict, when one was run;
	// structural prechecks that reject before proving leave it nil.
	Verdict *cert.Verdict
}

// FromVerdict converts a distributed proof-labeling verdict into a
// Certification.
func FromVerdict(v *cert.Verdict) Certification {
	c := Certification{OK: v.OK, Rejectors: len(v.Rejectors), Verdict: v}
	if !v.OK {
		c.Detail = "proof-labeling verifier rejected"
	}
	return c
}

// Stage is one supervised producer: Run executes an attempt under a round
// budget, Certify judges its output. Certify must be a total function with
// one-sided error — it may reject a correct result (forcing a wasted
// retry) but must never accept a wrong one, and it must return an error
// only for infrastructure failures (which abort supervision), never for
// bad input.
type Stage[T any] struct {
	// Name identifies the stage in reports and traces.
	Name string
	// DefaultBudget is the round budget of the first attempt; the budget
	// doubles after each failed or rejected attempt.
	DefaultBudget int
	// Run executes one attempt under a round budget, returning the result
	// and the rounds consumed (measured or charged). An error marks the
	// attempt failed (e.g. the budget ran out); the supervisor retries it.
	Run func(attempt, budget int) (T, int, error)
	// Certify judges the result of a successful Run.
	Certify func(T) (Certification, error)
	// Faults optionally reports the stage's cumulative fired-fault tally;
	// the supervisor diffs consecutive readings to attribute faults to
	// attempts. Nil when the stage injects nothing.
	Faults func() Counts
}

// Policy bounds the supervisor.
type Policy struct {
	// MaxAttempts is the attempt budget per stage; 0 means 3.
	MaxAttempts int
	// Tracer receives LayerChaos spans and chaos.* counters; nil disables.
	Tracer trace.Tracer
}

// Outcome classifies how a supervised run ended.
type Outcome uint8

// The supervised outcomes. Exactly one applies to every run.
const (
	// OutcomeCertified: the primary stage's first attempt was certified.
	OutcomeCertified Outcome = iota
	// OutcomeCertifiedRetry: a later primary attempt was certified.
	OutcomeCertifiedRetry
	// OutcomeDegraded: the primary exhausted its attempts and the fallback
	// stage produced a certified result.
	OutcomeDegraded
	// OutcomeFailed: every attempt of every stage failed or was rejected;
	// no result is returned.
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCertified:
		return "certified"
	case OutcomeCertifiedRetry:
		return "certified-after-retry"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeFailed:
		return "failed"
	}
	return "unknown"
}

// Attempt records one supervised attempt.
type Attempt struct {
	Stage     string
	Attempt   int    // 1-based within the stage
	Budget    int    // round budget granted
	Rounds    int    // rounds consumed (measured or charged)
	Faults    Counts // faults fired during this attempt
	Accepted  bool
	Rejectors int
	Err       string // run error or rejection detail, empty on acceptance
}

// Report is the full account of a supervised run.
type Report struct {
	Outcome  Outcome
	Attempts []Attempt
	// Faults is the total fired-fault tally across all attempts.
	Faults Counts
	// Verdicts collects every distributed verdict run, in attempt order.
	Verdicts []*cert.Verdict
}

// RunWithRecoveryContext supervises primary (and, when primary exhausts
// its attempts, the optional fallback): each stage is retried up to
// Policy.MaxAttempts times under exponentially growing round budgets until
// an attempt is certified. The returned result is meaningful only when the
// report's Outcome is not OutcomeFailed; the error reports infrastructure
// failures only (a fault-induced failure is an Outcome, not an error).
//
// The supervisor consults ctx before every attempt and before degrading to
// the fallback, so cancelling stops the retry loop mid-flight instead of
// letting it burn through the remaining attempt budget. Cancellation is an
// infrastructure failure: the report's Outcome is OutcomeFailed and the
// returned error wraps ctx.Err(). Stages whose Run closures are themselves
// long-running should capture the same ctx and return early when it is
// done; the supervisor treats that like any other failed attempt and then
// notices the cancellation before retrying.
func RunWithRecoveryContext[T any](ctx context.Context, primary Stage[T], fallback *Stage[T], pol Policy) (T, *Report, error) {
	tr := trace.OrNop(pol.Tracer)
	sup := tr.StartSpan(trace.LayerChaos, "chaos.supervise")
	rep := &Report{}
	var zero T

	res, ok, err := runStage(ctx, primary, pol, tr, rep)
	if err != nil {
		rep.Outcome = OutcomeFailed
		sup.End()
		return zero, rep, err
	}
	if ok {
		if len(rep.Attempts) == 1 {
			rep.Outcome = OutcomeCertified
		} else {
			rep.Outcome = OutcomeCertifiedRetry
		}
		finish(tr, sup, rep)
		return res, rep, nil
	}
	if fallback != nil {
		tr.Count("chaos.fallbacks", 1)
		res, ok, err = runStage(ctx, *fallback, pol, tr, rep)
		if err != nil {
			rep.Outcome = OutcomeFailed
			sup.End()
			return zero, rep, err
		}
		if ok {
			rep.Outcome = OutcomeDegraded
			finish(tr, sup, rep)
			return res, rep, nil
		}
	}
	rep.Outcome = OutcomeFailed
	finish(tr, sup, rep)
	return zero, rep, nil
}

// runStage retries one stage under the policy until an attempt is
// certified, the attempt budget runs out, or ctx is cancelled.
func runStage[T any](ctx context.Context, st Stage[T], pol Policy, tr trace.Tracer, rep *Report) (T, bool, error) {
	var zero T
	attempts := pol.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	budget := st.DefaultBudget
	if budget <= 0 {
		budget = 1
	}
	var prev Counts
	if st.Faults != nil {
		prev = st.Faults()
	}
	for a := 1; a <= attempts; a++ {
		if err := ctx.Err(); err != nil {
			tr.Count("chaos.cancellations", 1)
			return zero, false, err
		}
		sp := tr.StartSpan(trace.LayerChaos, "chaos.attempt")
		sp.SetAttr("attempt", int64(a))
		sp.SetAttr("budget", int64(budget))
		res, rounds, runErr := st.Run(a, budget)
		at := Attempt{Stage: st.Name, Attempt: a, Budget: budget, Rounds: rounds}
		if st.Faults != nil {
			cum := st.Faults()
			at.Faults = cum.Sub(prev)
			prev = cum
		}
		rep.Faults.Add(at.Faults)
		tr.Count("chaos.attempts", 1)
		countFaults(tr, at.Faults)
		sp.SetAttr("rounds", int64(rounds))
		if runErr != nil {
			at.Err = runErr.Error()
			tr.Count("chaos.run_errors", 1)
			sp.SetAttr("accepted", 0)
			sp.End()
			rep.Attempts = append(rep.Attempts, at)
			budget *= 2
			continue
		}
		cn, cerr := st.Certify(res)
		if cerr != nil {
			sp.End()
			rep.Attempts = append(rep.Attempts, at)
			return zero, false, cerr
		}
		if cn.Verdict != nil {
			rep.Verdicts = append(rep.Verdicts, cn.Verdict)
		}
		at.Accepted = cn.OK
		at.Rejectors = cn.Rejectors
		if !cn.OK {
			at.Err = cn.Detail
			tr.Count("chaos.rejections", 1)
		}
		if cn.OK {
			sp.SetAttr("accepted", 1)
		} else {
			sp.SetAttr("accepted", 0)
		}
		sp.End()
		rep.Attempts = append(rep.Attempts, at)
		if cn.OK {
			return res, true, nil
		}
		budget *= 2
	}
	return zero, false, nil
}

// countFaults exports an attempt's fired-fault tally as chaos.* counters.
func countFaults(tr trace.Tracer, c Counts) {
	if !tr.Enabled() || c.Total() == 0 {
		return
	}
	tr.Count("chaos.faults.drops", c.Drops)
	tr.Count("chaos.faults.corruptions", c.Corruptions)
	tr.Count("chaos.faults.stalls", c.Stalls)
	tr.Count("chaos.faults.linkdown_drops", c.LinkDownDrops)
	tr.Count("chaos.faults.crashes", c.Crashes)
	tr.Count("chaos.faults.structural", c.Structural)
}

// finish stamps the terminal outcome on the supervise span and exports it
// as a counter.
func finish(tr trace.Tracer, sup trace.Span, rep *Report) {
	sup.SetAttr("outcome", int64(rep.Outcome))
	sup.SetAttr("attempts", int64(len(rep.Attempts)))
	sup.End()
	tr.Count("chaos.outcome."+rep.Outcome.String(), 1)
}
