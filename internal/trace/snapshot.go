package trace

import (
	"encoding/json"
	"sort"
)

// MetricsSnapshot is a point-in-time, self-contained copy of a recorder's
// counters, gauges and histograms, taken atomically under the recorder
// lock. It shares no memory with the live recorder, so readers (HTTP
// scrapers, exporters) can hold or re-encode it while the recorder keeps
// mutating, and its JSON encoding is byte-stable: every section is an
// ordered list sorted by name, never a Go map, so two encodings of the
// same snapshot are identical and concurrent scrapes of an idle recorder
// agree byte for byte.
type MetricsSnapshot struct {
	// Clock is the recorder's round clock at snapshot time.
	Clock int64 `json:"clock"`
	// Counters, Gauges and Histograms are sorted by Name.
	Counters   []NamedValue     `json:"counters"`
	Gauges     []NamedValue     `json:"gauges"`
	Histograms []NamedHistogram `json:"histograms"`
}

// NamedValue is one counter or gauge reading.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// NamedHistogram is one histogram snapshot with derived summary stats.
type NamedHistogram struct {
	Name string `json:"name"`
	// Hist is a deep copy of the histogram (bounds, counts, extremes).
	Hist *Histogram `json:"hist"`
	// Mean duplicates Hist.Mean() for plain JSON consumers.
	Mean float64 `json:"mean"`
}

// MetricsSnapshot returns a consistent snapshot of all metrics. The whole
// snapshot is taken under one lock acquisition, so a scrape never observes
// a counter from before an update together with a histogram from after it;
// every slice, map-derived list and histogram is a defensive copy.
func (r *Recorder) MetricsSnapshot() *MetricsSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metricsLocked()
}

// metricsLocked builds the metrics snapshot; the caller holds r.mu.
func (r *Recorder) metricsLocked() *MetricsSnapshot {
	s := &MetricsSnapshot{
		Clock:      r.clock,
		Counters:   make([]NamedValue, 0, len(r.counters)),
		Gauges:     make([]NamedValue, 0, len(r.gauges)),
		Histograms: make([]NamedHistogram, 0, len(r.hists)),
	}
	for _, name := range sortedMapKeys(r.counters) {
		s.Counters = append(s.Counters, NamedValue{Name: name, Value: r.counters[name]})
	}
	for _, name := range sortedMapKeys(r.gauges) {
		s.Gauges = append(s.Gauges, NamedValue{Name: name, Value: r.gauges[name]})
	}
	for _, name := range sortedMapKeys(r.hists) {
		h := r.hists[name].Clone()
		s.Histograms = append(s.Histograms, NamedHistogram{Name: name, Hist: h, Mean: h.Mean()})
	}
	return s
}

// MarshalJSON keeps the zero-length sections as empty arrays (never null)
// so consumers can index unconditionally.
func (s *MetricsSnapshot) MarshalJSON() ([]byte, error) {
	type alias MetricsSnapshot
	a := alias(*s)
	if a.Counters == nil {
		a.Counters = []NamedValue{}
	}
	if a.Gauges == nil {
		a.Gauges = []NamedValue{}
	}
	if a.Histograms == nil {
		a.Histograms = []NamedHistogram{}
	}
	return json.Marshal(a)
}

// sortedMapKeys returns the keys of m in ascending order.
func sortedMapKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
