package trace

import "io"

// Oracle is the slice-based oracle recorder as the external tests see it:
// a Tracer with the Recorder's exports.
type Oracle interface {
	Tracer
	WriteJSONL(io.Writer) error
	WriteChromeTrace(io.Writer) error
	WriteMetrics(io.Writer) error
	MetricsSnapshot() *MetricsSnapshot
}

// NewOracle returns an empty oracle recorder, for the tests that drive it
// with the simulator's real runs.
func NewOracle() Oracle { return newSliceRecorder() }
