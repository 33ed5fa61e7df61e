// Package pay declares CONGEST message payload types. The Payload contract
// is matched structurally (AppendWords/LoadWords), so no congest import is
// needed.
package pay

// Good is a bounded payload: fixed-width integer fields only.
type Good struct {
	Part  int
	Value int64
	Flag  bool
	Tag   uint8
	Tail  [2]int
}

func (p *Good) AppendWords(dst []int) []int { return dst }
func (p *Good) LoadWords(words []int)       {}

// Bad smuggles unbounded data through the word interface.
type Bad struct {
	Name string         // want "field Name of type string"
	IDs  []int          // want `field IDs of type \[\]int`
	Meta map[int]string // want `field Meta of type map\[int\]string`
	Any  interface{}    // want "field Any of type interface"
	Ptr  *int           // want `field Ptr of type \*int`
	F    float64        // want "field F of type float64"
}

func (p *Bad) AppendWords(dst []int) []int { return dst }
func (p *Bad) LoadWords(words []int)       {}

// inner is bounded and reused below; it is not itself a payload.
type inner struct{ X, Y int }

// Nested is flagged through its nested component, not its direct fields.
type Nested struct {
	In   inner
	Deep struct{ S []byte } // want `field Deep whose type contains \[\]byte`
}

func (p *Nested) AppendWords(dst []int) []int { return dst }
func (p *Nested) LoadWords(words []int)       {}

// Excused carries a justified exception.
//
//planarvet:congestpayload fixture: bound argued elsewhere
type Excused struct {
	Blob []byte
}

func (p *Excused) AppendWords(dst []int) []int { return dst }
func (p *Excused) LoadWords(words []int)       {}

// FaultReport is a report-shaped payload: an outcome, an attempt count
// and per-kind fault tallies as fixed-width integers. Bounded, never
// flagged.
type FaultReport struct {
	Outcome       int
	Attempts      int
	Drops         int
	Corruptions   int
	Stalls        int
	LinkDownDrops int
	Crashes       int
	Structural    int
}

func (p *FaultReport) AppendWords(dst []int) []int { return dst }
func (p *FaultReport) LoadWords(words []int)       {}

// FaultReportLoose is the tempting-but-wrong variant: shipping the human
// readable rejection detail or a per-stage table has no word bound.
type FaultReportLoose struct {
	Outcome  int
	Detail   string         // want "field Detail of type string"
	PerStage map[string]int // want `field PerStage of type map\[string\]int`
}

func (p *FaultReportLoose) AppendWords(dst []int) []int { return dst }
func (p *FaultReportLoose) LoadWords(words []int)       {}

// NotAPayload has an unbounded field but no Payload method set: out of
// scope for this analyzer.
type NotAPayload struct {
	Name string
}

// Payload is an interface embedding the contract; interfaces themselves
// are never flagged.
type Payload interface {
	AppendWords(dst []int) []int
	LoadWords(words []int)
}

// Scalar implements Payload with a non-struct underlying type.
type Scalar string // want "underlying type congestmsgtest/pay.Scalar"

func (p *Scalar) AppendWords(dst []int) []int { return dst }
func (p *Scalar) LoadWords(words []int)       {}

// Word is a bounded non-struct payload.
type Word int

func (p *Word) AppendWords(dst []int) []int { return append(dst, int(*p)) }
func (p *Word) LoadWords(words []int)       { *p = Word(words[0]) }
