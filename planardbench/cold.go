package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"planardfs/internal/gen"
	"planardfs/internal/serve"
)

// coldInput is one distinct instance of a cold workload.
type coldInput struct {
	label string
	// body is the POST /v1/jobs request.
	body []byte
	// hash is the content address the server must report.
	hash string
	// inline marks a submission carrying the graph itself; otherwise the
	// job names a generator coordinate (family, n, genSeed).
	inline  bool
	family  string
	n       int
	genSeed int64
}

// coldWorkload submits a fixed list of distinct instances to a fresh
// server per pass, so every op is a cache miss.
type coldWorkload struct {
	kind   string // "stacked" (inline submissions) or "grid" (generator jobs)
	seed   int64
	sz     sizes
	inputs []coldInput // in pass order
	// rounds[i] is the charged round count first reported for inputs[i];
	// every later pass must report the same.
	rounds []int
}

func (w *coldWorkload) setup(ctx context.Context, h *harness, l *spanLog) error {
	var err error
	if w.kind == "stacked" {
		w.inputs, err = stackedInputs(w.seed, w.sz, l)
	} else {
		w.inputs, err = gridInputs(w.sz, l)
	}
	if err != nil {
		return err
	}
	// Warm up the heap and the code paths on a throwaway server, with the
	// first inputs of the list before any seeded permutation.
	w.rounds = make([]int, len(w.inputs))
	srv := serve.New(serve.Options{})
	h.install(srv)
	for i := 0; i < min(w.sz.warmupOps, len(w.inputs)); i++ {
		r, err := h.runJob(ctx, w.inputs[i].body)
		if err == nil {
			err = w.check(ctx, h, i, r)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	h.install(nil)
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if w.kind == "grid" {
		rng := rand.New(rand.NewSource(w.seed))
		rng.Shuffle(len(w.inputs), func(i, j int) { w.inputs[i], w.inputs[j] = w.inputs[j], w.inputs[i] })
	}
	w.rounds = make([]int, len(w.inputs))
	return nil
}

// stackedInputs draws sz.stackedCount distinct stacked triangulations
// from the workload seed and encodes each as an inline submission.
func stackedInputs(seed int64, sz sizes, l *spanLog) ([]coldInput, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []coldInput
	for len(out) < sz.stackedCount {
		gs := rng.Int63()
		sp := l.begin(-1, -1, "gen.generate", false)
		in, err := gen.ByName("stacked", sz.stackedN, gs)
		l.end(sp)
		if err != nil {
			return nil, err
		}
		hash := gen.ContentHash(in)
		if seen[hash] {
			continue
		}
		seen[hash] = true
		graph, err := gen.EncodeJSON(in)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(serve.JobRequest{Graph: graph})
		if err != nil {
			return nil, err
		}
		out = append(out, coldInput{
			label: fmt.Sprintf("stacked n=%d seed=%d", sz.stackedN, gs),
			body:  body, hash: hash, inline: true,
			family: "stacked", n: sz.stackedN, genSeed: gs,
		})
	}
	return out, nil
}

// gridInputs lists the grid and cylinderish generator jobs whose
// instances are distinct, smallest sizes first within each family.
func gridInputs(sz sizes, l *spanLog) ([]coldInput, error) {
	type coord struct {
		family string
		n      int
	}
	var coords []coord
	for _, side := range sz.gridSides {
		coords = append(coords, coord{"grid", side * side})
	}
	for _, n := range sz.cylinderN {
		coords = append(coords, coord{"cylinderish", n})
	}
	seen := map[string]bool{}
	var out []coldInput
	for _, c := range coords {
		sp := l.begin(-1, -1, "gen.generate", false)
		in, err := gen.ByName(c.family, c.n, 0)
		l.end(sp)
		if err != nil {
			return nil, err
		}
		hash := gen.ContentHash(in)
		if seen[hash] {
			continue
		}
		seen[hash] = true
		body, err := json.Marshal(serve.JobRequest{Family: c.family, N: c.n})
		if err != nil {
			return nil, err
		}
		out = append(out, coldInput{
			label: fmt.Sprintf("%s n=%d", c.family, c.n),
			body:  body, hash: hash, family: c.family, n: c.n,
		})
	}
	return out, nil
}

// check verifies a finished cold job: done, certified on the first
// attempt, built fresh, under the expected content address, with the
// same charged rounds as every earlier pass and three accepting verdicts.
func (w *coldWorkload) check(ctx context.Context, h *harness, i int, r jobRun) error {
	x, st := w.inputs[i], r.status
	switch {
	case st.State != serve.StateDone:
		return fmt.Errorf("%s: state %s: %s", x.label, st.State, st.Error)
	case st.Outcome != "certified":
		return fmt.Errorf("%s: outcome %q", x.label, st.Outcome)
	case st.Cached:
		return fmt.Errorf("%s: served from cache on a fresh server", x.label)
	case st.Hash != x.hash:
		return fmt.Errorf("%s: hash %s, want %s", x.label, st.Hash, x.hash)
	case st.Rounds <= 0:
		return fmt.Errorf("%s: no charged rounds", x.label)
	case w.rounds[i] != 0 && st.Rounds != w.rounds[i]:
		return fmt.Errorf("%s: %d rounds, an earlier pass charged %d", x.label, st.Rounds, w.rounds[i])
	}
	w.rounds[i] = st.Rounds
	var sum serve.GraphSummary
	if err := h.getJSON(ctx, "/v1/graphs/"+st.Hash, &sum); err != nil {
		return fmt.Errorf("%s: %w", x.label, err)
	}
	if sum.Rounds != st.Rounds {
		return fmt.Errorf("%s: summary charges %d rounds, job %d", x.label, sum.Rounds, st.Rounds)
	}
	if err := checkVerdicts(sum.Verdicts); err != nil {
		return fmt.Errorf("%s: %w", x.label, err)
	}
	return nil
}

// checkVerdicts requires the three certification verdicts, in order, all
// accepting.
func checkVerdicts(vs []serve.VerdictSummary) error {
	schemes := []string{"spanning", "dfs", "separator"}
	if len(vs) != len(schemes) {
		return fmt.Errorf("%d verdicts, want %d", len(vs), len(schemes))
	}
	for i, v := range vs {
		if v.Scheme != schemes[i] || !v.OK || v.Rejectors != 0 {
			return fmt.Errorf("verdict %d: %+v", i, v)
		}
	}
	return nil
}

// measure runs whole passes until until, and on until it has sz.minOps
// ops so the 90th percentile has ten samples beyond it. Each pass
// installs a fresh server, submits every input once in order and shuts
// the server down.
func (w *coldWorkload) measure(ctx context.Context, h *harness, until time.Time, t *tally, obs *serveObs) error {
	for pass := 0; pass == 0 || time.Now().Before(until) || t.attempted < w.sz.minOps; pass++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		srv := serve.New(serve.Options{})
		h.install(srv)
		liveProbe := obs != nil && pass == 0
		var live0 uint64
		if liveProbe {
			runtime.GC()
			live0 = obs.rt.read().liveBytes
		}
		for i := range w.inputs {
			t.attempted++
			obs.opStart()
			r, err := h.runJob(ctx, w.inputs[i].body)
			obs.opEnd()
			if err != nil {
				t.fail(err)
				continue
			}
			t.latMS = append(t.latMS, ms(r.latency))
			obs.job(r)
			c0 := time.Now()
			err = w.check(ctx, h, i, r)
			t.checkTime += time.Since(c0)
			if err != nil {
				t.fail(err)
			}
		}
		if liveProbe {
			runtime.GC()
			live := int64(obs.rt.read().liveBytes) - int64(live0)
			obs.liveMBPerJob = float64(live) / 1e6 / float64(len(w.inputs))
		}
		h.install(nil)
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
	}
	return nil
}

// replay runs the inputs, in pass order, through the layers directly
// until until, requiring each replay to reproduce the server's content
// hash and charged rounds.
func (w *coldWorkload) replay(ctx context.Context, _ *harness, until time.Time, l *spanLog, t *tally) error {
	for i := 0; i == 0 || time.Now().Before(until); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := i % len(w.inputs)
		x := w.inputs[k]
		t.attempted++
		out, err := replayBuild(ctx, l, i, x)
		switch {
		case err != nil:
		case out.hash != x.hash:
			err = fmt.Errorf("%s: replay hash %s, server %s", x.label, out.hash, x.hash)
		case out.rounds != w.rounds[k]:
			err = fmt.Errorf("%s: replay charges %d rounds, server %d", x.label, out.rounds, w.rounds[k])
		}
		if err != nil {
			t.fail(err)
			continue
		}
		t.replays = append(t.replays, out)
	}
	return nil
}

// roundsPerOp is the mean charged round count over the input list, the
// same for every pass.
func (w *coldWorkload) roundsPerOp() float64 { return meanInts(w.rounds) }

func (w *coldWorkload) close(context.Context) error { return nil }
