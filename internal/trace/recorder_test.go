package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// exporter is what the equivalence test compares between the paged
// Recorder and the slice-based oracle.
type exporter interface {
	Tracer
	Spans() []SpanEvent
	WriteJSONL(io.Writer) error
	WriteChromeTrace(io.Writer) error
	WriteMetrics(io.Writer) error
}

// scriptRunner drives a tracer through a seeded sequence of calls. Every
// decision comes from the rng, never from the tracer, so two runners with
// one seed issue the same calls to their tracers.
type scriptRunner struct {
	tr     Tracer
	rng    *rand.Rand
	open   []Span // open spans, innermost last
	closed []Span
}

var scriptNames = []string{"phase", "mark-path", "round", "aggregate", "join"}
var scriptKeys = []string{"rounds", "iterations", "size", "msgs"}

// run issues steps calls: it opens spans with 0 to 5 attributes (keys
// drawn from a small set, so some repeat), closes mostly the innermost
// span but sometimes an outer one, ends some spans twice, sets
// attributes on closed spans, and interleaves clock and metric updates.
func (s *scriptRunner) run(steps int) {
	for i := 0; i < steps; i++ {
		switch op := s.rng.Intn(20); {
		case op < 9 || len(s.open) == 0:
			sp := s.tr.StartSpan(Layer(s.rng.Intn(int(numLayers))), scriptNames[s.rng.Intn(len(scriptNames))])
			for a := s.rng.Intn(6); a > 0; a-- {
				sp.SetAttr(scriptKeys[s.rng.Intn(len(scriptKeys))], s.rng.Int63n(1000))
			}
			s.open = append(s.open, sp)
		case op < 14:
			s.end(len(s.open) - 1)
		case op < 15:
			s.end(s.rng.Intn(len(s.open)))
		case op < 16 && len(s.closed) > 0:
			s.closed[s.rng.Intn(len(s.closed))].End()
		case op < 17 && len(s.closed) > 0:
			s.closed[s.rng.Intn(len(s.closed))].SetAttr(scriptKeys[s.rng.Intn(len(scriptKeys))], -1)
		case op < 18:
			s.tr.Advance(s.rng.Int63n(4))
		default:
			v := s.rng.Int63n(5000)
			switch s.rng.Intn(5) {
			case 0:
				s.tr.Count(scriptKeys[s.rng.Intn(len(scriptKeys))], v)
			case 1:
				s.tr.SetGauge("depth", int64(len(s.open)))
			case 2:
				s.tr.Observe("load", v)
			case 3:
				s.tr.Merge(s.batch(v))
			default:
				s.tr.Sample("clock", s.tr.Now())
			}
		}
	}
}

// batch draws a Batch: zero to two counter deltas, a histogram of zero to
// three observations merged into "load" or a fresh name, and a series of
// zero to three points stamped at and after the clock.
func (s *scriptRunner) batch(v int64) Batch {
	var b Batch
	for k := s.rng.Intn(3); k > 0; k-- {
		b.Counts = append(b.Counts, NamedValue{Name: scriptKeys[s.rng.Intn(len(scriptKeys))], Value: v})
	}
	h := NewHistogram(nil)
	for k := s.rng.Intn(4); k > 0; k-- {
		h.Observe(s.rng.Int63n(5000))
	}
	b.Hists = []NamedHistogram{{Name: []string{"load", "merged"}[s.rng.Intn(2)], Hist: h}}
	pts := []SamplePoint{}
	for k := s.rng.Intn(4); k > 0; k-- {
		pts = append(pts, SamplePoint{Round: s.tr.Now() + int64(len(pts)), Val: v})
	}
	b.Series = []NamedSeries{{Name: []string{"clock", "batched"}[s.rng.Intn(2)], Points: pts}}
	return b
}

func (s *scriptRunner) end(i int) {
	sp := s.open[i]
	sp.End()
	s.open = append(s.open[:i], s.open[i+1:]...)
	s.closed = append(s.closed, sp)
}

func exports(t *testing.T, e exporter) (jsonl, chrome, metrics []byte) {
	t.Helper()
	var j, c, m bytes.Buffer
	if err := e.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes(), m.Bytes()
}

// TestRecorderMatchesSliceOracle drives the paged Recorder and the
// slice-based oracle through the same scripted calls and requires
// identical Spans and identical JSONL, Chrome and metrics exports, both
// mid-script with spans open and after more than three pages of spans.
func TestRecorderMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		paged, oracle := NewRecorder(), newSliceRecorder()
		a := &scriptRunner{tr: paged, rng: rand.New(rand.NewSource(seed))}
		b := &scriptRunner{tr: oracle, rng: rand.New(rand.NewSource(seed))}
		for stage := 0; stage < 5; stage++ {
			a.run(2 * pageSpans)
			b.run(2 * pageSpans)
			got, want := paged.Spans(), oracle.Spans()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d stage %d: Spans differ from the oracle", seed, stage)
			}
			gj, gc, gm := exports(t, paged)
			wj, wc, wm := exports(t, oracle)
			if !bytes.Equal(gj, wj) {
				t.Fatalf("seed %d stage %d: JSONL export differs from the oracle", seed, stage)
			}
			if !bytes.Equal(gc, wc) {
				t.Fatalf("seed %d stage %d: Chrome export differs from the oracle", seed, stage)
			}
			if !bytes.Equal(gm, wm) {
				t.Fatalf("seed %d stage %d: metrics table differs from the oracle", seed, stage)
			}
		}
		if n := len(paged.Spans()); n <= 3*pageSpans {
			t.Fatalf("seed %d: script recorded %d spans, want more than three pages (%d)", seed, n, 3*pageSpans)
		}
		if len(a.open) == 0 {
			t.Fatalf("seed %d: script left no span open at export time", seed)
		}
	}
}

// TestRecorderStreamingExport exports a recorder while another goroutine
// writes more than three pages of spans into it. Each export must parse
// and be one snapshot: no span ends after the meta clock, and a counter
// bumped in the same critical section as each span start equals the
// export's span count.
func TestRecorderStreamingExport(t *testing.T) {
	r := NewRecorder()
	const spans = 3*pageSpans + pageSpans/2
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < spans; i++ {
			r.mu.Lock()
			sp := r.open(LayerNetwork, "round")
			r.counters["spans"]++
			r.mu.Unlock()
			sp.SetAttr("round", int64(i))
			r.Advance(1)
			sp.SetAttr("msgs", 2)
			sp.SetAttr("bits", 64)
			sp.End()
		}
	}()
	exportsSeen := 0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		var buf bytes.Buffer
		if err := r.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		checkStreamedJSONL(t, buf.Bytes())
		buf.Reset()
		if err := r.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatal("streamed Chrome export is not valid JSON")
		}
		exportsSeen++
	}
	if got := len(r.Spans()); got != spans {
		t.Fatalf("recorded %d spans, want %d", got, spans)
	}
	t.Logf("%d exports while recording", exportsSeen)
}

func checkStreamedJSONL(t *testing.T, data []byte) {
	t.Helper()
	var clock, counter int64
	nspans := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec struct {
			Type  string `json:"type"`
			Name  string `json:"name"`
			End   int64  `json:"end"`
			Value int64  `json:"value"`
			Clock int64  `json:"clock"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("streamed JSONL line does not parse: %v: %s", err, sc.Bytes())
		}
		switch rec.Type {
		case "meta":
			clock = rec.Clock
		case "span":
			nspans++
			if rec.End > clock {
				t.Fatalf("span ends at %d, after the export's meta clock %d", rec.End, clock)
			}
		case "counter":
			if rec.Name == "spans" {
				counter = rec.Value
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if counter != int64(nspans) {
		t.Fatalf("export holds %d spans but its span counter reads %d", nspans, counter)
	}
}

// TestRecorderSpanZeroAlloc is the runtime gate behind the
// //planarvet:noalloc annotations on StartSpan, SetAttr and End: a span
// with two attributes costs under 0.01 allocations, amortized over a
// batch of spans that fills several pages.
func TestRecorderSpanZeroAlloc(t *testing.T) {
	const batch = 4 * pageSpans
	r := NewRecorder()
	root := r.StartSpan(LayerDFS, "build")
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < batch; i++ {
			sp := r.StartSpan(LayerLemma, "mark-path")
			sp.SetAttr("rounds", int64(i))
			sp.SetAttr("iterations", 2)
			sp.End()
		}
	})
	root.End()
	if per := allocs / batch; per >= 0.01 {
		t.Fatalf("StartSpan + 2 SetAttr + End allocates %.4f times per span, want < 0.01", per)
	}
}

// TestMergeEqualsPerEventCalls holds Merge to its contract: a batch of
// counter deltas, locally built histograms (ObserveN included) and
// clock-stamped points gives the exports of the Count, Observe and Sample
// calls it stands for, made one by one as the clock advances; empty
// histograms and series create nothing.
func TestMergeEqualsPerEventCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	events, batched := NewRecorder(), NewRecorder()
	events.Observe("load", 7) // merging into an existing histogram
	batched.Observe("load", 7)
	var b Batch
	b.Counts = []NamedValue{{Name: "rounds"}, {Name: "msgs"}}
	load, empty := NewHistogram(nil), NewHistogram(nil)
	b.Hists = []NamedHistogram{{Name: "load", Hist: load}, {Name: "empty", Hist: empty}}
	b.Series = []NamedSeries{{Name: "msgs"}, {Name: "none"}}
	for r := int64(0); r < 40; r++ {
		msgs := rng.Int63n(3000)
		events.Count("rounds", 1)
		events.Count("msgs", msgs)
		events.Observe("load", msgs)
		events.Advance(1)
		events.Sample("msgs", msgs)
		b.Counts[0].Value++
		b.Counts[1].Value += msgs
		load.Observe(msgs)
		b.Series[0].Points = append(b.Series[0].Points, SamplePoint{Round: r + 1, Val: msgs})
	}
	for i := 0; i < 25; i++ {
		events.Observe("load", 0)
	}
	load.ObserveN(0, 25)
	batched.Advance(40)
	batched.Merge(b)
	gj, gc, gm := exports(t, batched)
	wj, wc, wm := exports(t, events)
	if !bytes.Equal(gj, wj) || !bytes.Equal(gc, wc) || !bytes.Equal(gm, wm) {
		t.Fatalf("merged batch exports differ from per-event calls\nmerged:\n%s\nper event:\n%s", gm, wm)
	}
}
