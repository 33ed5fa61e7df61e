package congest

// Payload is a typed CONGEST message body. Implementations declare the
// words a message carries as a flat struct of fixed-width integer fields
// and translate to and from the wire representation (Message.Args).
//
// The contract is the static side of the bandwidth rule: a payload type
// must be bounded by a fixed number of O(log n)-bit words, so its fields
// may only be fixed-width integers, booleans, and fixed-size arrays or
// nested structs thereof — never slices, maps, strings, interfaces or
// pointers, which have no a-priori word bound. The planarvet congestmsg
// analyzer enforces this on every type implementing Payload; the runtime
// MaxWords check in the engine remains the backstop.
type Payload interface {
	// AppendWords appends the payload's wire words to dst and returns the
	// extended slice.
	AppendWords(dst []int) []int
	// LoadWords fills the payload from the wire words it was packed to.
	LoadWords(words []int)
}

// Unpack decodes m's arguments into p. The caller has already dispatched
// on m.Kind, so p is the matching payload type.
func Unpack(m Message, p Payload) {
	p.LoadWords(m.Args)
}

// intPayload is the one-word message body shared by the single-value
// programs: a BFS distance, a broadcast value, a convergecast aggregate.
type intPayload struct{ Val int }

// AppendWords implements Payload.
func (p *intPayload) AppendWords(dst []int) []int { return append(dst, p.Val) }

// LoadWords implements Payload.
func (p *intPayload) LoadWords(words []int) { p.Val = words[0] }

// pairPayload is the two-word body of the part-wise aggregation streams:
// a (part, value) pair.
type pairPayload struct{ Part, Value int }

// AppendWords implements Payload.
func (p *pairPayload) AppendWords(dst []int) []int { return append(dst, p.Part, p.Value) }

// LoadWords implements Payload.
func (p *pairPayload) LoadWords(words []int) { p.Part, p.Value = words[0], words[1] }
