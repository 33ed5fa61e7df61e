package gen

import (
	"bytes"
	"fmt"
	"math"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is DecodeWire's scanner: one pass from JSON bytes to a Wire,
// with no reflection. It gives what encoding/json's Unmarshal gives into
// a fresh Wire, quirks included (see DecodeWire); FuzzDecodeWire checks
// the two against each other.

// maxDepth is encoding/json's nesting limit: a document may hold at most
// this many open arrays and objects at once.
const maxDepth = 10000

// decodeError is a DecodeWire failure. It is a syntax error when the
// input is not JSON, and a type error when a JSON value does not fit its
// Wire field; these are the two classes encoding/json reports.
type decodeError struct {
	off    int
	syntax bool
	msg    string
}

// Error implements error.
func (e *decodeError) Error() string {
	class := "type"
	if e.syntax {
		class = "syntax"
	}
	return fmt.Sprintf("gen: decode: %s error at byte %d: %s", class, e.off, e.msg)
}

// wireDecoder scans one document. A syntax error stops the scan: it moves
// pos to the end, so every later read sees end of input and every loop
// exits. A type error is only recorded, because encoding/json reports one
// only when the whole document is valid JSON.
type wireDecoder struct {
	data    []byte
	pos     int
	depth   int // open arrays and objects
	err     *decodeError
	typeErr *decodeError
	// flat backs the rows of Rotations: each row is carved from it with a
	// full-slice cap, so no row can grow into its neighbour. rowStart is
	// where the row being scanned begins.
	flat     []int
	rowStart int
}

// object decodes the top-level object into w. A repeated key decodes again
// into what the earlier one left; a key matches its field exactly or else
// under Unicode case folding, and an unknown key's value is skipped.
func (d *wireDecoder) object(w *Wire) {
	d.members(func(raw []byte) {
		switch key := unquote(raw); {
		case matchKey(key, "name"):
			d.stringInto(&w.Name, "name")
		case matchKey(key, "n"):
			d.intInto(&w.N, "n")
		case matchKey(key, "edges"):
			// A planar graph on n vertices has at most 3n-6 edges.
			hint := d.sizeHint(3*min(w.N, len(d.data))-6, 6)
			w.Edges = decodeSlice(d, w.Edges, hint, "edges", d.edge)
		case matchKey(key, "rotations"):
			if d.flat == nil {
				d.flat = make([]int, 0, d.sizeHint(2*len(w.Edges), 2))
			}
			w.Rotations = decodeSlice(d, w.Rotations, d.sizeHint(w.N, 3), "rotations", d.row)
		case matchKey(key, "outerDart"):
			d.intInto(&w.OuterDart, "outerDart")
		default:
			d.skip()
		}
	})
}

// matchKey reports whether key selects field: exactly, or else as
// bytes.EqualFold does, which is how encoding/json falls back.
func matchKey(key []byte, field string) bool {
	return string(key) == field || bytes.EqualFold(key, []byte(field))
}

// sizeHint caps a capacity suggested by another field (the vertex or edge
// count) by what the rest of the input can hold at minBytes per element,
// so a hint never asks for more memory than the body could fill.
func (d *wireDecoder) sizeHint(want, minBytes int) int {
	return max(0, min(want, (len(d.data)-d.pos)/minBytes))
}

// decodeSlice decodes the value of a slice field into old, as
// encoding/json does: null gives nil, [] gives a fresh empty slice, and
// elem decodes element i of a longer array into whatever position i of
// old's backing array holds, including one an earlier, longer array left
// past old's length. A fresh backing array starts at capacity hint.
func decodeSlice[T any](d *wireDecoder, old []T, hint int, field string, elem func(*T)) []T {
	if d.null() {
		return nil
	}
	if d.peek() != '[' {
		d.mismatch(field)
		return old
	}
	s := old[:cap(old)]
	if len(s) == 0 {
		s = make([]T, 0, hint)
	}
	i := 0
	d.elements(func() {
		if i == len(s) {
			var zero T
			s = append(s, zero)
		}
		elem(&s[i])
		i++
	})
	if i == 0 {
		return []T{}
	}
	return s[:i]
}

// edge decodes one element of "edges" into e: null keeps e, and an array
// fills e's two ints from its first two numbers, zero-filling when it has
// fewer and ignoring (but scanning) any more.
func (d *wireDecoder) edge(e *[2]int) {
	if d.null() {
		return
	}
	if d.peek() != '[' {
		d.mismatch("edges")
		return
	}
	k := 0
	d.elements(func() {
		if k < len(e) {
			d.intInto(&e[k], "edges")
		} else {
			d.skip()
		}
		k++
	})
	for ; k < len(e); k++ {
		e[k] = 0
	}
}

// row decodes one element of "rotations" into *r. null gives nil, []
// a fresh empty row, and entry k of a longer array decodes into position k
// of *r's backing array (null keeps it). The row is carved from flat, and
// the old backing's tail past the new length is carried into its capacity,
// so a repeated "rotations" key sees what encoding/json would leave there.
func (d *wireDecoder) row(r *[]int) {
	if d.null() {
		*r = nil
		return
	}
	if d.peek() != '[' {
		d.mismatch("rotations")
		return
	}
	mem := (*r)[:cap(*r)]
	d.rowStart = len(d.flat)
	k := 0
	d.elements(func() {
		x := 0
		if k < len(mem) {
			x = mem[k]
		}
		d.intInto(&x, "rotations")
		d.push(x)
		k++
	})
	if k > 0 {
		for _, x := range mem[min(k, len(mem)):] {
			d.push(x)
		}
	}
	*r = d.flat[d.rowStart : d.rowStart+k : len(d.flat)]
}

// push appends x to the open row. When flat is full it starts a new chunk
// and moves the open row there; rows already carved keep the old chunk.
func (d *wireDecoder) push(x int) {
	if len(d.flat) == cap(d.flat) {
		chunk := make([]int, 0, 2*cap(d.flat)+16)
		d.flat = append(chunk, d.flat[d.rowStart:]...)
		d.rowStart = 0
	}
	d.flat = append(d.flat, x)
}

// intInto decodes a value into the int *dst: a number replaces it, null
// keeps it, and a number with a fraction, an exponent or out of int range
// is a type error, as is any other value.
func (d *wireDecoder) intInto(dst *int, field string) {
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		start := d.pos
		if v, ok := d.number(); ok {
			*dst = v
		} else {
			d.typeError(start, "cannot decode number %s into %s (int)", d.data[start:d.pos], field)
		}
	case !d.null():
		d.mismatch(field)
	}
}

// stringInto decodes a value into the string *dst: a string replaces it,
// fully unescaped, and null keeps it.
func (d *wireDecoder) stringInto(dst *string, field string) {
	switch {
	case d.peek() == '"':
		*dst = string(unquote(d.str()))
	case !d.null():
		d.mismatch(field)
	}
}

// mismatch records a type error for a value that cannot decode into field
// and skips it.
func (d *wireDecoder) mismatch(field string) {
	kind := "number"
	switch d.peek() {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	}
	start := d.pos
	d.skip()
	d.typeError(start, "cannot decode %s into %s", kind, field)
}

// skip scans one value of any type, checking only its syntax.
func (d *wireDecoder) skip() {
	switch c := d.peek(); {
	case c == '{':
		d.members(func([]byte) { d.skip() })
	case c == '[':
		d.elements(d.skip)
	case c == '"':
		d.str()
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	default:
		d.syntaxError("looking for beginning of value")
	}
}

// members scans an object, calling value with each member's raw key once
// the scan has reached the member's value.
func (d *wireDecoder) members(value func(key []byte)) {
	d.open()
	d.space()
	if d.peek() == '}' {
		d.close()
		return
	}
	for {
		if d.peek() != '"' {
			d.syntaxError("looking for beginning of object key string")
			return
		}
		key := d.str()
		d.space()
		if d.peek() != ':' {
			d.syntaxError("after object key")
			return
		}
		d.pos++
		d.space()
		value(key)
		if !d.more('}') {
			return
		}
	}
}

// elements scans an array, calling elem once the scan has reached each
// element.
func (d *wireDecoder) elements(elem func()) {
	d.open()
	d.space()
	if d.peek() == ']' {
		d.close()
		return
	}
	for {
		elem()
		if !d.more(']') {
			return
		}
	}
}

// more consumes what follows an element of an array or object closed by
// end: a comma, and the space after it, reports true; end reports false;
// anything else is a syntax error.
func (d *wireDecoder) more(end byte) bool {
	d.space()
	switch d.peek() {
	case ',':
		d.pos++
		d.space()
		return true
	case end:
		d.close()
	default:
		d.syntaxError("after array element or object value")
	}
	return false
}

// number scans a JSON number and returns its value when it is an integer
// that fits an int.
func (d *wireDecoder) number() (int, bool) {
	neg := d.peek() == '-'
	if neg {
		d.pos++
	}
	if c := d.peek(); c < '0' || c > '9' {
		d.syntaxError("in numeric literal")
		return 0, false
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var u uint64
	fits := true
	if d.data[d.pos] == '0' {
		d.pos++
	} else {
		i := d.pos
		for ; i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9'; i++ {
			if dig := uint64(d.data[i] - '0'); u <= (limit-dig)/10 {
				u = u*10 + dig
			} else {
				fits = false
			}
		}
		d.pos = i
	}
	if d.peek() == '.' {
		d.pos++
		fits = false
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		fits = false
		d.digits()
	}
	if neg {
		u = -u
	}
	return int(u), fits
}

// digits scans the one or more digits a fraction or exponent needs.
func (d *wireDecoder) digits() {
	if c := d.peek(); c < '0' || c > '9' {
		d.syntaxError("in numeric literal")
		return
	}
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
}

// str scans a string token and returns its raw contents, escapes and
// invalid UTF-8 as written: bytes below 0x20 and malformed escapes are
// syntax errors.
func (d *wireDecoder) str() []byte {
	d.pos++
	start := d.pos
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1]
		case c == '\\':
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for i := 0; i < 4; i++ {
					if !isHex(d.peek()) {
						d.syntaxError("in \\u hexadecimal character escape")
						return nil
					}
					d.pos++
				}
			default:
				d.syntaxError("in string escape code")
				return nil
			}
		case c < ' ':
			d.syntaxError("in string literal")
			return nil
		default:
			d.pos++
		}
	}
	d.syntaxError("in string literal")
	return nil
}

// null consumes a null if one is ahead and reports whether it did.
func (d *wireDecoder) null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

// literal scans the keyword lit (true, false or null).
func (d *wireDecoder) literal(lit string) {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		d.syntaxError("in literal %s", lit)
		return
	}
	d.pos += len(lit)
}

// open enters an array or object.
func (d *wireDecoder) open() {
	if d.depth++; d.depth > maxDepth {
		d.syntaxError("exceeded max depth")
		return
	}
	d.pos++
}

// close leaves an array or object.
func (d *wireDecoder) close() {
	d.pos++
	d.depth--
}

// space skips JSON whitespace.
func (d *wireDecoder) space() {
	i := d.pos
	for i < len(d.data) && isSpace[d.data[i]] {
		i++
	}
	d.pos = i
}

var isSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// peek returns the next byte, or 0 at the end of input.
func (d *wireDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *wireDecoder) syntaxError(format string, args ...any) {
	if d.err != nil {
		return
	}
	msg := "unexpected end of JSON input"
	if d.pos < len(d.data) {
		msg = fmt.Sprintf("invalid character %q ", d.data[d.pos]) + fmt.Sprintf(format, args...)
	}
	d.err = &decodeError{off: d.pos, syntax: true, msg: msg}
	d.pos = len(d.data)
}

func (d *wireDecoder) typeError(off int, format string, args ...any) {
	if d.typeErr == nil && d.err == nil {
		d.typeErr = &decodeError{off: off, msg: fmt.Sprintf(format, args...)}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes the raw contents of a string token as encoding/json
// does: escapes are resolved, a valid \u surrogate pair joins into one
// rune, and a lone surrogate or a byte of invalid UTF-8 becomes U+FFFD.
// Contents that decode to themselves are returned as they are.
func unquote(raw []byte) []byte {
	if bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw) {
		return raw
	}
	b := make([]byte, 0, len(raw)+utf8.UTFMax)
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) && i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
				if pair := utf16.DecodeRune(r, hex4(raw[i+2:])); pair != utf8.RuneError {
					r = pair
					i += 6
				}
			}
			b = utf8.AppendRune(b, r) // a lone surrogate appends U+FFFD
		case c == '\\':
			b = append(b, unescape[raw[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return b
}

// unescape maps the letter of a one-character escape to its byte.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 reads the four hex digits of a \u escape the scan has checked.
func hex4(h []byte) rune {
	var r rune
	for _, c := range h[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
