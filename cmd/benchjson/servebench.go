package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"planardfs/internal/serve"
)

// The serve mode measures the simulation service end to end over a real
// HTTP round trip: one cold build of the full decomposition pipeline per
// family, then cached queries against the content-addressed store. The
// headline number is the cached-query speedup — how many LCA or
// separator-membership answers one cold pipeline execution buys.

// serveWorkers is the worker-pool size of the measured server.
const serveWorkers = 2

// serveRows measures each family at size n through a live server.
func serveRows(sw sweep) ([]Row, error) {
	var rows []Row
	for _, fam := range sw.families {
		r, err := serveRow(fam, sw.n)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fam, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func serveRow(family string, size int) (Row, error) {
	s := serve.New(serve.Options{Workers: serveWorkers, QueueDepth: 128})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := fmt.Sprintf(`{"family":%q,"n":%d,"seed":1}`, family, size)
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
		return Row{}, err
	}
	fin, err := await(st.ID)
	if err != nil {
		return Row{}, err
	}
	base := ts.URL + "/v1/graphs/" + fin.Hash

	var sum serve.GraphSummary
	resp, err := http.Get(base)
	if err != nil {
		return Row{}, err
	}
	err = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	if err != nil {
		return Row{}, err
	}

	// Cached queries over one warm HTTP client, each measured in ns per
	// HTTP round trip; the lca and separator speedups are the cold build's
	// server-side wall time (submit to done) over that query's.
	client := &http.Client{}
	coldNS := int64(sum.BuildMicros) * 1000
	host := Fields{"cold_build_ns": coldNS}
	last := sum.N - 1
	for _, q := range []struct{ name, path string }{
		{"lca", fmt.Sprintf("/query/lca?u=0&v=%d", last)},
		{"separator", fmt.Sprintf("/query/separator?v=%d", last/2)},
		{"order", fmt.Sprintf("/query/order?v=%d", last/3)},
		{"cert", "/query/cert"},
	} {
		url := base + q.path
		res, err := hostCost(func() error {
			resp, err := client.Get(url)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
			}
			// Drain so the keep-alive connection is reused; the
			// measurement is the HTTP round trip, not dial cost.
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		})
		if err != nil {
			return Row{}, err
		}
		host[q.name+"_ns_per_op"] = res.NsPerOp()
		if q.name == "lca" || q.name == "separator" {
			host["speedup_"+q.name] = ratio(coldNS, res.NsPerOp())
		}
	}

	// Resubmission burst: every one is a hit on the same content hash.
	const resubmits = 16
	for i := 0; i < resubmits; i++ {
		st, err := submit()
		if err != nil {
			return Row{}, err
		}
		if _, err := await(st.ID); err != nil {
			return Row{}, err
		}
	}

	// The cache counts cover the whole run: one miss plus the
	// resubmissions. The queue waits are those of the resubmission burst.
	m := s.Metrics()
	hits := m.Counter("serve.cache.hits") + m.Counter("serve.cache.joined")
	misses := m.Counter("serve.cache.misses")
	host["queue_wait_mean_us"], host["queue_wait_max_us"] = 0.0, int64(0)
	if h := m.Histogram("serve.latency.queue_wait_us"); h != nil && h.N > 0 {
		host["queue_wait_mean_us"], host["queue_wait_max_us"] = h.Mean(), h.Max
	}
	return Row{
		ID: Fields{"family": family, "size": size, "workers": serveWorkers},
		Det: Fields{
			"n":            sum.N,
			"m":            sum.M,
			"hash":         fin.Hash,
			"rounds":       sum.Rounds, // charged paper-model rounds of the build
			"cache_hits":   hits,
			"cache_misses": misses,
			"hit_rate":     ratio(hits, hits+misses),
		},
		Host: host,
	}, nil
}
