package trace

import (
	"bufio"
	"encoding/json"
	"io"
)

// attrMap flattens ordered attributes into a JSON object. encoding/json
// marshals map keys sorted, so the output is deterministic.
func attrMap(attrs []Attr) map[string]int64 {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]int64, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

// jsonlRecord is one line of the JSONL export.
type jsonlRecord struct {
	Type   string           `json:"type"`
	Name   string           `json:"name,omitempty"`
	ID     *int             `json:"id,omitempty"`
	Parent *int             `json:"parent,omitempty"`
	Layer  string           `json:"layer,omitempty"`
	Start  *int64           `json:"start,omitempty"`
	End    *int64           `json:"end,omitempty"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
	Value  *int64           `json:"value,omitempty"`
	Round  *int64           `json:"round,omitempty"`
	Clock  *int64           `json:"clock,omitempty"`
	Hist   *Histogram       `json:"hist,omitempty"`
}

// WriteJSONL writes the full recorded state as one JSON object per line:
// a meta line, every span (by ID), every counter, gauge and histogram
// (names sorted), and every time-series point. The state is one snapshot
// taken under a single lock acquisition, so on a recorder that is still
// being written the meta clock, the spans and the metrics all describe
// the same instant. Output is deterministic for deterministic workloads.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	v := r.exportSnapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlRecord{Type: "meta", Clock: &v.clock}); err != nil {
		return err
	}
	var buf []Attr
	for id := range v.spans {
		ev := v.span(id, &buf)
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
	for _, c := range v.metrics.Counters {
		if err := enc.Encode(jsonlRecord{Type: "counter", Name: c.Name, Value: &c.Value}); err != nil {
			return err
		}
	}
	for _, g := range v.metrics.Gauges {
		if err := enc.Encode(jsonlRecord{Type: "gauge", Name: g.Name, Value: &g.Value}); err != nil {
			return err
		}
	}
	for _, h := range v.metrics.Histograms {
		if err := enc.Encode(jsonlRecord{Type: "histogram", Name: h.Name, Hist: h.Hist}); err != nil {
			return err
		}
	}
	for _, s := range v.samples {
		for _, p := range s.points {
			if err := enc.Encode(jsonlRecord{Type: "sample", Name: s.name, Round: &p.Round, Value: &p.Val}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace_event format. The round
// clock serves as the microsecond timebase: one simulated round renders as
// one microsecond, and each algorithm layer renders as one thread.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Ts   int64            `json:"ts"`
	Dur  *int64           `json:"dur,omitempty"`
	Args map[string]int64 `json:"args,omitempty"`
}

type chromeMetaEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Ts   int64             `json:"ts"`
	Args map[string]string `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []json.RawMessage `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the recorded spans and time series in the Chrome
// trace_event format, loadable directly in Perfetto or chrome://tracing.
// pid is 1; tid is the layer (a thread_name metadata event labels each);
// ts is the span's start round; dur its round extent. Counter samples
// render as "C" counter tracks. Like WriteJSONL it encodes one snapshot.
// Output is deterministic.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	v := r.exportSnapshot()
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
	var buf []Attr
	for id := range v.spans {
		ev := v.span(id, &buf)
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
	for _, s := range v.samples {
		for _, p := range s.points {
			ce := chromeEvent{
				Name: s.name, Ph: "C", Pid: 1, Tid: 0,
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

// exportView is one consistent snapshot of a recorder for the exporters,
// taken under a single lock acquisition and encoded outside it. Span
// records are read from the pages in place: a record's identity fields
// never change after StartSpan, its first nattr attributes are never
// rewritten, and spans holds a copy of what can still change.
type exportView struct {
	clock   int64
	pages   []*spanPage
	spans   []spanState
	metrics *MetricsSnapshot
	samples []namedSamples
}

// spanState is the part of a span record that can change after StartSpan,
// as of a snapshot.
type spanState struct {
	end      int64
	nattr    int
	overflow []Attr
}

type namedSamples struct {
	name   string
	points []SamplePoint
}

// exportSnapshot takes the exporters' snapshot.
func (r *Recorder) exportSnapshot() *exportView {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := &exportView{
		clock:   r.clock,
		pages:   r.pages[:len(r.pages):len(r.pages)],
		spans:   make([]spanState, r.nspan),
		metrics: r.metricsLocked(),
		samples: make([]namedSamples, 0, len(r.samples)),
	}
	for id := range v.spans {
		s := recordAt(r.pages, id)
		v.spans[id] = spanState{end: s.end, nattr: s.nattr, overflow: s.overflow}
	}
	for _, name := range sortedMapKeys(r.samples) {
		v.samples = append(v.samples, namedSamples{name, append([]SamplePoint(nil), r.samples[name]...)})
	}
	return v
}

// span assembles span id as of the snapshot, open spans closed at the
// snapshot clock. Its Attrs reuse *buf and stay valid until the next call.
func (v *exportView) span(id int, buf *[]Attr) SpanEvent {
	s, st := recordAt(v.pages, id), &v.spans[id]
	ev := SpanEvent{ID: id, Parent: s.parent, Layer: s.layer, Name: s.name, Start: s.start, End: st.end}
	if ev.End < 0 {
		ev.End = v.clock
	}
	if st.nattr > 0 {
		if cap(*buf) < st.nattr {
			*buf = make([]Attr, st.nattr)
		}
		ev.Attrs = (*buf)[:st.nattr]
		s.attrsInto(ev.Attrs, st.nattr, st.overflow)
	}
	return ev
}
