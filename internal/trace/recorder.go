package trace

import "sync"

// SpanEvent is one recorded (closed or still-open) span.
type SpanEvent struct {
	// ID is the span's sequential identifier (assigned at StartSpan, so
	// IDs order spans by start time, ties by start order).
	ID int
	// Parent is the ID of the enclosing span, -1 at the top level.
	Parent int
	Layer  Layer
	Name   string
	// Start and End are round-clock stamps. End is -1 while the span is
	// open; exporters close open spans at the export-time clock.
	Start, End int64
	Attrs      []Attr
}

// SamplePoint is one point of a recorded time series.
type SamplePoint struct {
	Round int64
	Val   int64
}

// pageSpans is the number of span records per page. A page is allocated
// once, when the first span that lands on it starts, and never moves, so
// a record's address is a stable span handle.
const pageSpans = 512

// inlineAttrs is the number of attributes a span record holds inline;
// every network and primitive span and most charge spans fit.
const inlineAttrs = 2

// spanRecord is one span's storage on its page and, by pointer, the Span
// handle StartSpan returns. The id, parent, layer, name and start fields
// are written once by StartSpan and never again; end, the attributes and
// nattr change later under the recorder lock.
type spanRecord struct {
	r      *Recorder
	id     int
	parent int
	layer  Layer
	name   string
	start  int64
	end    int64
	// nattr counts the attributes: the first inlineAttrs live in inline,
	// the rest in overflow, in SetAttr order.
	nattr    int
	inline   [inlineAttrs]Attr
	overflow []Attr
}

type spanPage [pageSpans]spanRecord

// Recorder implements Tracer by recording everything in memory. A Recorder
// is safe for concurrent use; recorded state is deterministic for
// deterministic workloads (sequential IDs, explicit clock, no wall time).
type Recorder struct {
	mu    sync.Mutex
	clock int64
	pages []*spanPage
	nspan int
	// nattr is the total attribute count over all spans, the size of the
	// single backing array Spans hands out.
	nattr    int
	stack    []*spanRecord // open spans, innermost last
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]*Histogram
	samples  map[string][]SamplePoint
}

// NewRecorder returns an empty recorder with the round clock at 0.
func NewRecorder() *Recorder {
	return &Recorder{
		counters: map[string]int64{},
		gauges:   map[string]int64{},
		hists:    map[string]*Histogram{},
		samples:  map[string][]SamplePoint{},
	}
}

// Enabled implements Tracer.
func (r *Recorder) Enabled() bool { return true }

// StartSpan implements Tracer. The returned Span is a pointer to the
// span's record, so handing it out boxes nothing.
//
//planarvet:noalloc TestRecorderSpanZeroAlloc
func (r *Recorder) StartSpan(layer Layer, name string) Span {
	r.mu.Lock()
	s := r.open(layer, name)
	r.mu.Unlock()
	return s
}

// open appends a span record at the current clock and pushes it on the
// open stack. The caller holds r.mu.
//
//planarvet:noalloc TestRecorderSpanZeroAlloc
func (r *Recorder) open(layer Layer, name string) *spanRecord {
	if r.nspan%pageSpans == 0 {
		r.pages = append(r.pages, new(spanPage)) //planarvet:allocok one page per pageSpans spans; pages never move, so amortized over the page
	}
	s := recordAt(r.pages, r.nspan)
	s.r, s.id, s.parent = r, r.nspan, -1
	if len(r.stack) > 0 {
		s.parent = r.stack[len(r.stack)-1].id
	}
	s.layer, s.name, s.start, s.end = layer, name, r.clock, -1
	r.nspan++
	r.stack = append(r.stack, s) //planarvet:allocok amortized: the stack backing is reused, capacity ramps up to the nesting depth once
	return s
}

// SetAttr implements Span.
//
//planarvet:noalloc TestRecorderSpanZeroAlloc
func (s *spanRecord) SetAttr(key string, val int64) {
	r := s.r
	r.mu.Lock()
	if s.nattr < inlineAttrs {
		s.inline[s.nattr] = Attr{Key: key, Val: val}
	} else {
		s.overflow = append(s.overflow, Attr{Key: key, Val: val}) //planarvet:allocok only attributes past the inline ones, which few spans carry
	}
	s.nattr++
	r.nattr++
	r.mu.Unlock()
}

// End implements Span: it closes the span at the current clock (a second
// End keeps the first stamp) and removes it from the open stack.
//
//planarvet:noalloc TestRecorderSpanZeroAlloc
func (s *spanRecord) End() {
	r := s.r
	r.mu.Lock()
	if s.end < 0 {
		s.end = r.clock
	}
	// Pop the span from the open stack (normally the innermost).
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == s {
			copy(r.stack[i:], r.stack[i+1:])
			r.stack = r.stack[:len(r.stack)-1]
			break
		}
	}
	r.mu.Unlock()
}

// attrsInto copies the span's attributes, in SetAttr order, into dst,
// which has room for nattr of them. Overflow is the overflow slice as of
// the snapshot the caller reads under.
func (s *spanRecord) attrsInto(dst []Attr, nattr int, overflow []Attr) {
	n := copy(dst, s.inline[:min(nattr, inlineAttrs)])
	copy(dst[n:], overflow)
}

// Advance implements Tracer.
func (r *Recorder) Advance(d int64) {
	r.mu.Lock()
	r.clock += d
	r.mu.Unlock()
}

// Now implements Tracer.
func (r *Recorder) Now() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock
}

// Count implements Tracer.
func (r *Recorder) Count(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// SetGauge implements Tracer.
func (r *Recorder) SetGauge(name string, val int64) {
	r.mu.Lock()
	r.gauges[name] = val
	r.mu.Unlock()
}

// Observe implements Tracer.
func (r *Recorder) Observe(name string, val int64) {
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(nil)
		r.hists[name] = h
	}
	h.Observe(val)
	r.mu.Unlock()
}

// Sample implements Tracer.
func (r *Recorder) Sample(name string, val int64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], SamplePoint{Round: r.clock, Val: val})
	r.mu.Unlock()
}

// Merge implements Tracer: it applies the whole batch under one lock
// acquisition.
func (r *Recorder) Merge(b Batch) {
	r.mu.Lock()
	for _, c := range b.Counts {
		r.counters[c.Name] += c.Value
	}
	for _, nh := range b.Hists {
		if nh.Hist.N == 0 {
			continue
		}
		h, ok := r.hists[nh.Name]
		if !ok {
			h = NewHistogram(nil)
			r.hists[nh.Name] = h
		}
		h.Merge(nh.Hist)
	}
	for _, s := range b.Series {
		if len(s.Points) > 0 {
			r.samples[s.Name] = append(r.samples[s.Name], s.Points...)
		}
	}
	r.mu.Unlock()
}

// recordAt returns the record of span id on pages.
func recordAt(pages []*spanPage, id int) *spanRecord {
	return &pages[id/pageSpans][id%pageSpans]
}

// Spans returns a copy of the recorded spans, open spans closed at the
// current clock. Every span's Attrs is a window of one backing array.
func (r *Recorder) Spans() []SpanEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanEvent, r.nspan)
	attrs := make([]Attr, r.nattr)
	for id := range out {
		s := recordAt(r.pages, id)
		end := s.end
		if end < 0 {
			end = r.clock
		}
		ev := SpanEvent{ID: id, Parent: s.parent, Layer: s.layer, Name: s.name, Start: s.start, End: end}
		if s.nattr > 0 {
			ev.Attrs = attrs[:s.nattr:s.nattr]
			s.attrsInto(ev.Attrs, s.nattr, s.overflow)
			attrs = attrs[s.nattr:]
		}
		out[id] = ev
	}
	return out
}

// Counter returns the current value of the named counter.
func (r *Recorder) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Gauge returns the current value of the named gauge.
func (r *Recorder) Gauge(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Histogram returns a snapshot of the named histogram, or nil.
func (r *Recorder) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		return nil
	}
	return h.Clone()
}

// Samples returns a copy of the named time series.
func (r *Recorder) Samples(name string) []SamplePoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SamplePoint(nil), r.samples[name]...)
}
