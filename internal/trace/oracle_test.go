package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// sliceRecorder is the recorder as it was before paged storage: one
// growing []SpanEvent, spans handed out as boxed {recorder, id} values,
// attributes appended per span, and exporters that read the state under
// one lock per accessor. It is the oracle the paged Recorder must match
// byte for byte on single-goroutine workloads.
type sliceRecorder struct {
	mu       sync.Mutex
	clock    int64
	spans    []SpanEvent
	stack    []int
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]*Histogram
	samples  map[string][]SamplePoint
}

func newSliceRecorder() *sliceRecorder {
	return &sliceRecorder{
		counters: map[string]int64{},
		gauges:   map[string]int64{},
		hists:    map[string]*Histogram{},
		samples:  map[string][]SamplePoint{},
	}
}

type sliceSpan struct {
	r  *sliceRecorder
	id int
}

func (r *sliceRecorder) Enabled() bool { return true }

func (r *sliceRecorder) StartSpan(layer Layer, name string) Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, SpanEvent{
		ID: id, Parent: parent, Layer: layer, Name: name,
		Start: r.clock, End: -1,
	})
	r.stack = append(r.stack, id)
	return sliceSpan{r: r, id: id}
}

func (s sliceSpan) SetAttr(key string, val int64) {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	ev := &s.r.spans[s.id]
	ev.Attrs = append(ev.Attrs, Attr{Key: key, Val: val})
}

func (s sliceSpan) End() {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	ev := &s.r.spans[s.id]
	if ev.End < 0 {
		ev.End = s.r.clock
	}
	for i := len(s.r.stack) - 1; i >= 0; i-- {
		if s.r.stack[i] == s.id {
			s.r.stack = append(s.r.stack[:i], s.r.stack[i+1:]...)
			break
		}
	}
}

func (r *sliceRecorder) Advance(d int64) {
	r.mu.Lock()
	r.clock += d
	r.mu.Unlock()
}

func (r *sliceRecorder) Now() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock
}

func (r *sliceRecorder) Count(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

func (r *sliceRecorder) SetGauge(name string, val int64) {
	r.mu.Lock()
	r.gauges[name] = val
	r.mu.Unlock()
}

func (r *sliceRecorder) Observe(name string, val int64) {
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(nil)
		r.hists[name] = h
	}
	h.Observe(val)
	r.mu.Unlock()
}

func (r *sliceRecorder) Sample(name string, val int64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], SamplePoint{Round: r.clock, Val: val})
	r.mu.Unlock()
}

// Merge replays the batch event by event: a Count per counter entry, and
// per histogram and per time series the bucket, extreme and point updates
// the Observe and Sample calls it stands for would have made.
func (r *sliceRecorder) Merge(b Batch) {
	for _, c := range b.Counts {
		r.Count(c.Name, c.Value)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, nh := range b.Hists {
		src := nh.Hist
		if src.N == 0 {
			continue
		}
		h, ok := r.hists[nh.Name]
		if !ok {
			h = NewHistogram(nil)
			r.hists[nh.Name] = h
		}
		for i, c := range src.Counts {
			h.Counts[i] += c
		}
		if h.N == 0 || src.Min < h.Min {
			h.Min = src.Min
		}
		if h.N == 0 || src.Max > h.Max {
			h.Max = src.Max
		}
		h.N += src.N
		h.Sum += src.Sum
	}
	for _, s := range b.Series {
		for _, p := range s.Points {
			r.samples[s.Name] = append(r.samples[s.Name], p)
		}
	}
}

func (r *sliceRecorder) Spans() []SpanEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanEvent, len(r.spans))
	copy(out, r.spans)
	for i := range out {
		if out[i].End < 0 {
			out[i].End = r.clock
		}
	}
	return out
}

func (r *sliceRecorder) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

func (r *sliceRecorder) Gauge(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

func (r *sliceRecorder) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		return nil
	}
	return h.Clone()
}

func (r *sliceRecorder) Samples(name string) []SamplePoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SamplePoint(nil), r.samples[name]...)
}

func sortedNames[V any](mu *sync.Mutex, m map[string]V) []string {
	mu.Lock()
	defer mu.Unlock()
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (r *sliceRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	clock := r.Now()
	if err := enc.Encode(jsonlRecord{Type: "meta", Clock: &clock}); err != nil {
		return err
	}
	for _, ev := range r.Spans() {
		ev := ev
		rec := jsonlRecord{
			Type: "span", Name: ev.Name, Layer: ev.Layer.String(),
			ID: &ev.ID, Parent: &ev.Parent,
			Start: &ev.Start, End: &ev.End,
			Attrs: attrMap(ev.Attrs),
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(&r.mu, r.counters) {
		v := r.Counter(name)
		if err := enc.Encode(jsonlRecord{Type: "counter", Name: name, Value: &v}); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(&r.mu, r.gauges) {
		v := r.Gauge(name)
		if err := enc.Encode(jsonlRecord{Type: "gauge", Name: name, Value: &v}); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(&r.mu, r.hists) {
		if err := enc.Encode(jsonlRecord{Type: "histogram", Name: name, Hist: r.Histogram(name)}); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(&r.mu, r.samples) {
		for _, p := range r.Samples(name) {
			p := p
			if err := enc.Encode(jsonlRecord{Type: "sample", Name: name, Round: &p.Round, Value: &p.Val}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func (r *sliceRecorder) WriteChromeTrace(w io.Writer) error {
	var events []json.RawMessage
	add := func(v any) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		events = append(events, raw)
		return nil
	}
	for l := Layer(0); l < numLayers; l++ {
		meta := chromeMetaEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: int(l),
			Args: map[string]string{"name": l.String()},
		}
		if err := add(meta); err != nil {
			return err
		}
	}
	for _, ev := range r.Spans() {
		dur := ev.End - ev.Start
		if dur < 0 {
			dur = 0
		}
		ce := chromeEvent{
			Name: ev.Name, Ph: "X", Pid: 1, Tid: int(ev.Layer),
			Ts: ev.Start, Dur: &dur, Args: attrMap(ev.Attrs),
		}
		if err := add(ce); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(&r.mu, r.samples) {
		for _, p := range r.Samples(name) {
			ce := chromeEvent{
				Name: name, Ph: "C", Pid: 1, Tid: 0,
				Ts: p.Round, Args: map[string]int64{"value": p.Val},
			}
			if err := add(ce); err != nil {
				return err
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// MetricsSnapshot reads every counter, gauge and histogram through the
// per-name accessors, one lock acquisition each.
func (r *sliceRecorder) MetricsSnapshot() *MetricsSnapshot {
	s := &MetricsSnapshot{Clock: r.Now()}
	for _, name := range sortedNames(&r.mu, r.counters) {
		s.Counters = append(s.Counters, NamedValue{Name: name, Value: r.Counter(name)})
	}
	for _, name := range sortedNames(&r.mu, r.gauges) {
		s.Gauges = append(s.Gauges, NamedValue{Name: name, Value: r.Gauge(name)})
	}
	for _, name := range sortedNames(&r.mu, r.hists) {
		h := r.Histogram(name)
		s.Histograms = append(s.Histograms, NamedHistogram{Name: name, Hist: h, Mean: h.Mean()})
	}
	return s
}

func (r *sliceRecorder) WriteMetrics(w io.Writer) error {
	if names := sortedNames(&r.mu, r.counters); len(names) > 0 {
		fmt.Fprintf(w, "%-40s %14s\n", "counter", "value")
		for _, name := range names {
			fmt.Fprintf(w, "%-40s %14d\n", name, r.Counter(name))
		}
	}
	if names := sortedNames(&r.mu, r.gauges); len(names) > 0 {
		fmt.Fprintf(w, "%-40s %14s\n", "gauge", "value")
		for _, name := range names {
			fmt.Fprintf(w, "%-40s %14d\n", name, r.Gauge(name))
		}
	}
	for _, name := range sortedNames(&r.mu, r.hists) {
		h := r.Histogram(name)
		fmt.Fprintf(w, "histogram %s: n=%d sum=%d min=%d max=%d mean=%.2f\n",
			name, h.N, h.Sum, h.Min, h.Max, h.Mean())
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(w, "  le %-12d %10d\n", h.Bounds[i], c)
			} else {
				fmt.Fprintf(w, "  le %-12s %10d\n", "+inf", c)
			}
		}
	}
	return nil
}
