package gen

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// quirkSeeds holds one hand-written input per rule of DecodeWire's
// contract with encoding/json.
var quirkSeeds = []string{
	// Keys: exact, folded (ASCII and the long s, U+017F), escaped, unknown.
	`{"N":3,"OUTERDART":1,"edgeſ":[[0,1]],"Name":"x","ROTATIONS":[[1],[0],[]]}`,
	`{"n":2,"\u006eame":"esc","edge\u017f":[[1,0]],"\u212a":1,"nAmE\u0000":"no","":0}`,
	`{"x":{"a":[1,2.5e-3,{"b":null,"c":[true,false]}]},"n":1,"y":"s\"q"}`,
	// Repeated keys decode into what the earlier one left, stale backing
	// positions included.
	`{"edges":[[1,2],[3,4],[5,6]],"edges":[[7]],"edges":[null,null,[8]]}`,
	`{"rotations":[[1,2,3],[4,5]],"rotations":[[9]],"rotations":[[null,null,null],[null,6]]}`,
	`{"n":4,"n":null,"name":"a","name":null,"outerDart":2,"outerDart":null}`,
	// null keeps a string, an int and an edge element, and sets a slice to nil.
	`{"name":null,"n":null,"edges":null,"rotations":null,"outerDart":null}`,
	`{"edges":[null,[1,null]],"rotations":[null,[null,2]]}`,
	// [] gives a fresh empty slice, so a later repeated key sees no
	// earlier entries.
	`{"edges":[],"rotations":[],"name":""}`,
	`{"edges":[[1,2]],"edges":[],"edges":[null],"rotations":[[3],[4]],"rotations":[[],[]],"rotations":[[null],null]}`,
	// Edge arrays zero-fill and ignore extra entries.
	`{"edges":[[1],[],[1,2,3,"x",{},[],1.5]]}`,
	// Numbers: fraction, exponent and overflow are type errors.
	`{"n":1.0}`,
	`{"n":1e2}`,
	`{"n":9223372036854775808}`,
	`{"n":-9223372036854775808,"outerDart":-0}`,
	`{"edges":[[0,1.5]]}`,
	// Error order: a syntax error anywhere outranks a type error.
	`{"n":"x","edges":[[1,2]]}`,
	`{"n":"x",`,
	`{"rotations":[[true]],"n":01}`,
	// Top level.
	`null`,
	" \t\r\nnull\n",
	`null x`,
	`[]`,
	`"s"`,
	`12`,
	`{} {}`,
	``,
	// Strings: escapes, surrogate pairs, lone surrogates and invalid UTF-8.
	`{"name":"aé\u00e9\ud83d\ude00😀\ud800x\udc00\ud800\udc00\uD800\"\\\/\b\f\n\r\t` + "\xff\xed\xa0\x80é" + `"}`,
	`{"name":"bad \q"}`,
	"{\"name\":\"ctl \x01\"}",
}

// decodeWireSeeds returns the inputs FuzzDecodeWire starts from: the
// guard's adversarial corpus, EncodeJSON of every family at a few sizes,
// the quirk seeds and both sides of the nesting limit.
func decodeWireSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	corpus, err := filepath.Glob(filepath.Join("..", "guard", "testdata", "corpus", "*.json"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(corpus) == 0 {
		tb.Fatal("no guard corpus fixtures found")
	}
	for _, p := range corpus {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, fam := range Families {
		for _, n := range []int{1, 5, 16} {
			in, err := ByName(fam, n, 3)
			if err != nil {
				continue // family rejects this n
			}
			data, err := EncodeJSON(in)
			if err != nil {
				tb.Fatal(err)
			}
			seeds = append(seeds, data)
		}
	}
	for _, s := range quirkSeeds {
		seeds = append(seeds, []byte(s))
	}
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		open := strings.Repeat("[", depth-1)
		seeds = append(seeds, []byte(`{"x":`+open+strings.Repeat("]", depth-1)+`}`))
	}
	return seeds
}

// sameAsUnmarshal returns "" when DecodeWire agrees with json.Unmarshal
// into a fresh Wire on data: both succeed with reflect.DeepEqual results,
// or both fail with an error of the same class, syntax or type.
func sameAsUnmarshal(data []byte) string {
	got, err := DecodeWire(data)
	var want Wire
	jerr := json.Unmarshal(data, &want)
	if jerr == nil {
		if err != nil {
			return "DecodeWire failed where encoding/json succeeds: " + err.Error()
		}
		if !reflect.DeepEqual(*got, want) {
			return "decoded wires differ"
		}
		return ""
	}
	var se *json.SyntaxError
	var te *json.UnmarshalTypeError
	var de *decodeError
	switch {
	case err == nil:
		return "DecodeWire succeeded where encoding/json fails: " + jerr.Error()
	case !errors.As(err, &de):
		return "DecodeWire error is not a *decodeError: " + err.Error()
	case errors.As(jerr, &se):
		if !de.syntax {
			return "want a syntax error like " + jerr.Error() + ", got " + err.Error()
		}
	case errors.As(jerr, &te):
		if de.syntax {
			return "want a type error like " + jerr.Error() + ", got " + err.Error()
		}
	default:
		return "encoding/json failed with an unexpected error: " + jerr.Error()
	}
	return ""
}

// FuzzDecodeWire holds DecodeWire to its contract: on every input it
// agrees with json.Unmarshal into a fresh Wire (sameAsUnmarshal).
func FuzzDecodeWire(f *testing.F) {
	for _, s := range decodeWireSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if diff := sameAsUnmarshal(data); diff != "" {
			t.Fatalf("%s\ninput: %q", diff, data)
		}
	})
}

// stackedBody returns EncodeJSON of the stacked triangulation on n
// vertices at seed 1, the shape of a cold-stacked submission.
func stackedBody(tb testing.TB, n int) []byte {
	in, err := ByName("stacked", n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := EncodeJSON(in)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestDecodeWireAllocsBounded: decoding an EncodeJSON body allocates a
// constant number of times, whatever n is (the Wire, its name, the edge
// list, the row headers and the one backing all rows share).
func TestDecodeWireAllocsBounded(t *testing.T) {
	perDecode := func(n int) float64 {
		data := stackedBody(t, n)
		return testing.AllocsPerRun(10, func() {
			if _, err := DecodeWire(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := perDecode(1000), perDecode(8000)
	if small != large || large > 6 {
		t.Fatalf("DecodeWire allocates %.1f times at n = 1000 and %.1f at n = 8000, want the same constant <= 6", small, large)
	}
}

// BenchmarkDecodeWire: op = one DecodeWire of the stacked n = 1000
// EncodeJSON body, the cold-stacked submission size.
func BenchmarkDecodeWire(b *testing.B) {
	data := stackedBody(b, 1000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeWire(data); err != nil {
			b.Fatal(err)
		}
	}
}
