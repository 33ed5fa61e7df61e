package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"planardfs/internal/serve"
)

// The -serve mode measures the simulation service end to end over a real
// HTTP round trip: one cold build of the full decomposition pipeline per
// family, then cached queries against the content-addressed store. The
// headline number is the cached-query speedup — how many LCA or
// separator-membership answers one cold pipeline execution buys.

// ServeEntry is one family measurement of BENCH_serve.json.
type ServeEntry struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	Hash   string `json:"hash"`
	// ColdBuildNs is the wall time of the cold pipeline execution
	// (submit-to-done, measured server side).
	ColdBuildNs int64 `json:"cold_build_ns"`
	// Rounds is the charged paper-model round cost of the build.
	Rounds int `json:"rounds"`
	// Cached query latencies, ns per HTTP round trip.
	LCANsPerOp       int64 `json:"lca_ns_per_op"`
	SeparatorNsPerOp int64 `json:"separator_ns_per_op"`
	OrderNsPerOp     int64 `json:"order_ns_per_op"`
	CertNsPerOp      int64 `json:"cert_ns_per_op"`
	// Speedups: cold build time over cached query time.
	SpeedupLCA       float64 `json:"speedup_lca"`
	SpeedupSeparator float64 `json:"speedup_separator"`
	// Cache behaviour over the whole run (1 miss + the resubmissions).
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`
	// Queue admission latency for the resubmission burst.
	QueueWaitMeanUs float64 `json:"queue_wait_mean_us"`
	QueueWaitMaxUs  int64   `json:"queue_wait_max_us"`
}

// ServeFile is the schema of BENCH_serve.json.
type ServeFile struct {
	Schema    string       `json:"schema"`
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	NumCPU    int          `json:"num_cpu"`
	Workers   int          `json:"workers"`
	Entries   []ServeEntry `json:"entries"`
}

// serveWorkers is the worker-pool size of the measured server.
const serveWorkers = 2

// runServe measures each family at size n through a live server.
func runServe(out string, n int, families string) error {
	file := ServeFile{
		Schema:    "planardfs/bench-serve/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Workers:   serveWorkers,
	}
	for _, fam := range strings.Split(families, ",") {
		e, err := measureServe(fam, n, serveWorkers)
		if err != nil {
			return fmt.Errorf("serve/%s: %w", fam, err)
		}
		file.Entries = append(file.Entries, e)
		fmt.Fprintf(os.Stderr,
			"serve %-12s n=%d cold=%.0fms lca=%.1fus sep=%.1fus speedup=%.0fx hit-rate=%.3f\n",
			e.Family, e.N, float64(e.ColdBuildNs)/1e6,
			float64(e.LCANsPerOp)/1e3, float64(e.SeparatorNsPerOp)/1e3,
			e.SpeedupLCA, e.HitRate)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func measureServe(family string, n, workers int) (ServeEntry, error) {
	s := serve.New(serve.Options{Workers: workers, QueueDepth: 128})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := fmt.Sprintf(`{"family":%q,"n":%d,"seed":1}`, family, n)
	submit := func() (serve.JobStatus, error) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			return serve.JobStatus{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return serve.JobStatus{}, fmt.Errorf("submit status %d", resp.StatusCode)
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		return st, err
	}
	await := func(id string) (serve.JobStatus, error) {
		for i := 0; i < 24000; i++ {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				return serve.JobStatus{}, err
			}
			var st serve.JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				return serve.JobStatus{}, err
			}
			switch st.State {
			case serve.StateDone:
				return st, nil
			case serve.StateFailed, serve.StateCanceled:
				return st, fmt.Errorf("job %s: %s (%s)", id, st.State, st.Error)
			}
			time.Sleep(5 * time.Millisecond)
		}
		return serve.JobStatus{}, fmt.Errorf("job %s did not finish", id)
	}

	// Cold build.
	st, err := submit()
	if err != nil {
		return ServeEntry{}, err
	}
	fin, err := await(st.ID)
	if err != nil {
		return ServeEntry{}, err
	}
	base := ts.URL + "/v1/graphs/" + fin.Hash

	var sum serve.GraphSummary
	resp, err := http.Get(base)
	if err != nil {
		return ServeEntry{}, err
	}
	err = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	if err != nil {
		return ServeEntry{}, err
	}

	// Cached queries over one warm HTTP client.
	client := &http.Client{}
	query := func(url string) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resp, err := client.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
				// Drain so the keep-alive connection is reused; the
				// measurement is the HTTP round trip, not dial cost.
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}
	u, v := 0, sum.N-1
	lcaRes := testing.Benchmark(query(fmt.Sprintf("%s/query/lca?u=%d&v=%d", base, u, v)))
	sepRes := testing.Benchmark(query(fmt.Sprintf("%s/query/separator?v=%d", base, v/2)))
	ordRes := testing.Benchmark(query(fmt.Sprintf("%s/query/order?v=%d", base, v/3)))
	certRes := testing.Benchmark(query(base + "/query/cert"))

	// Resubmission burst: every one is a hit on the same content hash.
	const resubmits = 16
	for i := 0; i < resubmits; i++ {
		st, err := submit()
		if err != nil {
			return ServeEntry{}, err
		}
		if _, err := await(st.ID); err != nil {
			return ServeEntry{}, err
		}
	}

	m := s.Metrics()
	hits := m.Counter("serve.cache.hits") + m.Counter("serve.cache.joined")
	misses := m.Counter("serve.cache.misses")
	coldNS := int64(sum.BuildMicros) * 1000
	e := ServeEntry{
		Family:           family,
		N:                sum.N,
		M:                sum.M,
		Hash:             fin.Hash,
		ColdBuildNs:      coldNS,
		Rounds:           sum.Rounds,
		LCANsPerOp:       lcaRes.NsPerOp(),
		SeparatorNsPerOp: sepRes.NsPerOp(),
		OrderNsPerOp:     ordRes.NsPerOp(),
		CertNsPerOp:      certRes.NsPerOp(),
		CacheHits:        hits,
		CacheMisses:      misses,
	}
	if e.LCANsPerOp > 0 {
		e.SpeedupLCA = float64(coldNS) / float64(e.LCANsPerOp)
	}
	if e.SeparatorNsPerOp > 0 {
		e.SpeedupSeparator = float64(coldNS) / float64(e.SeparatorNsPerOp)
	}
	if hits+misses > 0 {
		e.HitRate = float64(hits) / float64(hits+misses)
	}
	if h := m.Histogram("serve.latency.queue_wait_us"); h != nil && h.N > 0 {
		e.QueueWaitMeanUs = h.Mean()
		e.QueueWaitMaxUs = h.Max
	}
	return e, nil
}
