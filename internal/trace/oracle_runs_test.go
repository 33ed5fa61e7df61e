package trace_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/guard"
	"planardfs/internal/shortcut"
	"planardfs/internal/spanning"
	"planardfs/internal/trace"
)

// exports is what a recorder hands out: the JSONL and Chrome traces, the
// metrics table and the metrics snapshot's JSON.
type exports struct{ jsonl, chrome, metrics, snapshot string }

type exporter interface {
	WriteJSONL(io.Writer) error
	WriteChromeTrace(io.Writer) error
	WriteMetrics(io.Writer) error
	MetricsSnapshot() *trace.MetricsSnapshot
}

func exportsOf(t *testing.T, r exporter) exports {
	t.Helper()
	var j, c, m bytes.Buffer
	if err := r.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	s, err := json.Marshal(r.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	return exports{j.String(), c.String(), m.String(), string(s)}
}

// TestSimulatorRunsMatchOracle drives the Recorder and the slice-based
// oracle, which applies each settlement event by event, with the same
// traced simulator runs — part-wise aggregation, a fold, a certification
// label exchange, a guard validation and a fault-injected Awerbuch DFS
// under recovery — and requires byte-identical JSONL, Chrome, metrics and
// snapshot exports.
func TestSimulatorRunsMatchOracle(t *testing.T) {
	in, err := gen.ByName("stacked", 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := in.G
	tree, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int, g.N())
	parts := make([]int, g.N())
	// The parts are the root alone and the subtrees of its children: each
	// is connected.
	label := map[int]int{}
	for v := range values {
		values[v] = v % 9
		u := v
		for u != 0 && tree.Parent[u] != 0 {
			u = tree.Parent[u]
		}
		if _, ok := label[u]; !ok {
			label[u] = len(label)
		}
		parts[v] = label[u]
	}
	plan, err := chaos.PlanFor("drops=2,corruptions=1,stalls=2,crashes=1", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []struct {
		name string
		run  func(tr trace.Tracer) error
	}{
		{"pa", func(tr trace.Tracer) error {
			nw := congest.New(g)
			nw.Tracer = tr
			part, err := shortcut.NewPartition(parts)
			if err != nil {
				return err
			}
			_, err = shortcut.RunPAOn(nw, tree, part, values, congest.OpSum)
			return err
		}},
		{"fold", func(tr trace.Tracer) error {
			nw := congest.New(g)
			nw.Tracer = tr
			prog := congest.NewFoldProgram(nw, tree.Parent, 0)
			_, err := nw.Run(prog.Reset([]congest.FoldLane{{Values: values, Op: congest.OpMax}}), 2*tree.MaxDepth()+1)
			return err
		}},
		{"exchange", func(tr trace.Tracer) error {
			_, err := cert.CertifySpanningTree(g, tree, cert.Options{Tracer: tr})
			return err
		}},
		{"guard", func(tr trace.Tracer) error {
			_, err := guard.ValidateInstance(in, guard.Options{Seed: 3, Tracer: tr})
			return err
		}},
		{"injected-awerbuch", func(tr trace.Tracer) error {
			st := chaos.AwerbuchDFS(g, 0, plan, cert.Options{Tracer: tr})
			_, _, err := chaos.RunWithRecoveryContext(context.Background(), st, nil, chaos.Policy{MaxAttempts: 3, Tracer: tr})
			return err
		}},
	}
	for _, w := range workloads {
		rec, oracle := trace.NewRecorder(), trace.NewOracle()
		if err := w.run(rec); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := w.run(oracle); err != nil {
			t.Fatalf("%s (oracle): %v", w.name, err)
		}
		if rec.Counter("congest.rounds") == 0 {
			t.Fatalf("%s: no network round was traced", w.name)
		}
		if got, want := exportsOf(t, rec), exportsOf(t, oracle); got != want {
			t.Errorf("%s: Recorder and oracle exports differ\nrecorder metrics:\n%s\noracle metrics:\n%s", w.name, got.metrics, want.metrics)
		}
	}
}
