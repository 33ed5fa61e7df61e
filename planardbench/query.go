package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"planardfs/internal/dfs"
	"planardfs/internal/gen"
	"planardfs/internal/sepengine"
	"planardfs/internal/serve"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// queryKinds are the cached query endpoints the workload cycles through.
var queryKinds = []string{"lca", "order", "ancestor", "separator", "cert"}

// answer is the union of the query response shapes; a response decodes
// into it and must equal the oracle's answer field for field.
type answer struct {
	U           int  `json:"u"`
	V           int  `json:"v"`
	LCA         int  `json:"lca"`
	Depth       int  `json:"depth"`
	Parent      int  `json:"parent"`
	Tin         int  `json:"tin"`
	Tout        int  `json:"tout"`
	SubtreeSize int  `json:"subtreeSize"`
	Ancestor    bool `json:"ancestor"`
	OnSeparator bool `json:"onSeparator"`
	Side        int  `json:"side"`
	SepLen      int  `json:"sepLen"`
	EndA        int  `json:"endA"`
	EndB        int  `json:"endB"`
}

// query is one timed request with its expected answer.
type query struct {
	path string
	kind string
	want answer
}

// check compares a 200 response body with the oracle.
func (q query) check(body []byte) error {
	if q.kind == "cert" {
		var vs []serve.VerdictSummary
		if err := json.Unmarshal(body, &vs); err != nil {
			return fmt.Errorf("%s: %w", q.path, err)
		}
		if err := checkVerdicts(vs); err != nil {
			return fmt.Errorf("%s: %w", q.path, err)
		}
		return nil
	}
	var got answer
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: %w", q.path, err)
	}
	if got != q.want {
		return fmt.Errorf("%s: got %+v, oracle %+v", q.path, got, q.want)
	}
	return nil
}

// oracle is the library's own answer key for one cached instance.
type oracle struct {
	hash string
	n    int
	dfs  *spanning.Tree
	sep  *sepengine.Result
}

// queryWorkload answers cached queries against decompositions built in
// set-up; no op runs pipeline code.
type queryWorkload struct {
	seed    int64
	sz      sizes
	srv     *serve.Server
	rounds  []int // charged rounds of the set-up builds
	queries []query
}

// setup builds the fixed decomposition set on a fresh server, the oracle
// for each from the library, and the seeded query list, then warms up.
func (w *queryWorkload) setup(ctx context.Context, h *harness, _ *spanLog) error {
	if err := w.close(ctx); err != nil {
		return err
	}
	w.srv = serve.New(serve.Options{})
	h.install(w.srv)
	specs := []serve.JobRequest{
		{Family: "stacked", N: w.sz.queryStackedN, Seed: 1},
		{Family: "stacked", N: w.sz.queryStackedN, Seed: 2},
		{Family: "grid", N: w.sz.queryGridN},
		{Family: "cylinderish", N: w.sz.queryGridN},
	}
	w.rounds = w.rounds[:0]
	var oracles []oracle
	for _, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		r, err := h.runJob(ctx, body)
		if err != nil {
			return err
		}
		o, err := buildOracle(spec)
		if err != nil {
			return err
		}
		if err := checkBuild(ctx, h, r.status, o); err != nil {
			return fmt.Errorf("%s n=%d: %w", spec.Family, spec.N, err)
		}
		w.rounds = append(w.rounds, r.status.Rounds)
		oracles = append(oracles, o)
	}
	w.queries = makeQueries(w.seed, w.sz.queryCount, oracles)
	for _, q := range w.queries[:min(w.sz.warmupQueries, len(w.queries))] {
		code, body, err := h.do(ctx, http.MethodGet, q.path, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("%s: status %d", q.path, code)
		}
		if err == nil {
			err = q.check(body)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// buildOracle computes the answer key for spec with the library alone:
// the Theorem 2 DFS tree from dfs.Build, its tree view, and the
// whole-instance separator from sepengine.Find, all from serve's root.
func buildOracle(spec serve.JobRequest) (oracle, error) {
	in, err := gen.ByName(spec.Family, spec.N, spec.Seed)
	if err != nil {
		return oracle{}, err
	}
	fs := in.Emb.TraceFaces()
	root := fs.FaceVertices(in.OuterFace())[0]
	pt, _, err := dfs.Build(in.G, in.Emb, in.OuterDart, root)
	if err != nil {
		return oracle{}, err
	}
	tree, err := spanning.NewFromParents(root, pt.Parent)
	if err != nil {
		return oracle{}, err
	}
	bfs, err := spanning.BFSTree(in.G, root)
	if err != nil {
		return oracle{}, err
	}
	cfg, err := weights.NewConfig(in.G, in.Emb, in.OuterDart, bfs)
	if err != nil {
		return oracle{}, err
	}
	res, err := sepengine.Find("", cfg, sepengine.Options{})
	if err != nil {
		return oracle{}, err
	}
	return oracle{hash: gen.ContentHash(in), n: in.G.N(), dfs: tree, sep: res}, nil
}

// checkBuild verifies a set-up build against its oracle.
func checkBuild(ctx context.Context, h *harness, st serve.JobStatus, o oracle) error {
	switch {
	case st.State != serve.StateDone:
		return fmt.Errorf("state %s: %s", st.State, st.Error)
	case st.Outcome != "certified" || st.Cached || st.Rounds <= 0:
		return fmt.Errorf("unexpected build status %+v", st)
	case st.Hash != o.hash:
		return fmt.Errorf("hash %s, want %s", st.Hash, o.hash)
	}
	var sum serve.GraphSummary
	if err := h.getJSON(ctx, "/v1/graphs/"+st.Hash, &sum); err != nil {
		return err
	}
	if sum.Root != o.dfs.Root || sum.SepLen != len(o.sep.Sep.Path) {
		return fmt.Errorf("summary root %d sepLen %d, oracle %d and %d",
			sum.Root, sum.SepLen, o.dfs.Root, len(o.sep.Sep.Path))
	}
	return checkVerdicts(sum.Verdicts)
}

// makeQueries draws count queries on seeded vertices, cycling through
// the instances and, per round of instances, through the query kinds.
func makeQueries(seed int64, count int, oracles []oracle) []query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query, count)
	for i := range qs {
		o := oracles[i%len(oracles)]
		kind := queryKinds[(i/len(oracles))%len(queryKinds)]
		u, v := rng.Intn(o.n), rng.Intn(o.n)
		base := "/v1/graphs/" + o.hash + "/query/" + kind
		q := query{kind: kind}
		switch kind {
		case "lca":
			l := o.dfs.LCA(u, v)
			q.path = fmt.Sprintf("%s?u=%d&v=%d", base, u, v)
			q.want = answer{U: u, V: v, LCA: l, Depth: o.dfs.Depth[l]}
		case "order":
			lo, hi := o.dfs.Interval(v)
			q.path = fmt.Sprintf("%s?v=%d", base, v)
			q.want = answer{V: v, Parent: o.dfs.Parent[v], Depth: o.dfs.Depth[v],
				Tin: lo, Tout: hi, SubtreeSize: o.dfs.SubtreeSize(v)}
		case "ancestor":
			q.path = fmt.Sprintf("%s?u=%d&v=%d", base, u, v)
			q.want = answer{Ancestor: o.dfs.IsAncestor(u, v)}
		case "separator":
			q.path = fmt.Sprintf("%s?v=%d", base, v)
			q.want = answer{V: v, OnSeparator: o.sep.Side[v] == 0, Side: o.sep.Side[v],
				SepLen: len(o.sep.Sep.Path), EndA: o.sep.Sep.EndA, EndB: o.sep.Sep.EndB}
		case "cert":
			q.path = base
		}
		qs[i] = q
	}
	return qs
}

// measure cycles through the query list until until, one request at a
// time.
func (w *queryWorkload) measure(ctx context.Context, h *harness, until time.Time, t *tally, obs *serveObs) error {
	for i := 0; i == 0 || time.Now().Before(until); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		q := w.queries[i%len(w.queries)]
		t.attempted++
		obs.opStart()
		t0 := time.Now()
		code, body, err := h.do(ctx, http.MethodGet, q.path, nil)
		lat := time.Since(t0)
		obs.opEnd()
		if err != nil {
			t.fail(err)
			continue
		}
		t.latMS = append(t.latMS, ms(lat))
		obs.query(lat, time.Duration(h.lastHandler.Load()), code == http.StatusOK)
		c0 := time.Now()
		if code != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", q.path, code, body)
		} else {
			err = q.check(body)
		}
		t.checkTime += time.Since(c0)
		if err != nil {
			t.fail(err)
		}
	}
	return nil
}

// replay sends the same queries straight to Server.ServeHTTP, without
// transport, each under a handler span: one pass over the query list at
// most, which keeps the span file small.
func (w *queryWorkload) replay(ctx context.Context, _ *harness, until time.Time, l *spanLog, t *tally) error {
	for i := 0; i == 0 || (i < len(w.queries) && time.Now().Before(until)); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		q := w.queries[i%len(w.queries)]
		t.attempted++
		req := httptest.NewRequest(http.MethodGet, q.path, nil)
		rw := httptest.NewRecorder()
		root := l.begin(i, -1, rootSpan, false)
		sp := l.begin(i, root, "serve.handler", true)
		w.srv.ServeHTTP(rw, req)
		l.end(sp)
		l.end(root)
		var err error
		if rw.Code != http.StatusOK {
			err = fmt.Errorf("%s: status %d", q.path, rw.Code)
		} else {
			err = q.check(rw.Body.Bytes())
		}
		if err != nil {
			t.fail(err)
		}
	}
	return nil
}

// roundsPerOp is the mean charged round count of the cached builds the
// queries are answered from.
func (w *queryWorkload) roundsPerOp() float64 { return meanInts(w.rounds) }

func (w *queryWorkload) close(ctx context.Context) error {
	if w.srv == nil {
		return nil
	}
	srv := w.srv
	w.srv = nil
	return srv.Shutdown(ctx)
}
