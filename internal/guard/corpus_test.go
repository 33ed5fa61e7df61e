package guard

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"planardfs/internal/gen"
)

// The adversarial corpus gate: every fixture under testdata/corpus is a
// corrupted wire-form instance that the admission pipeline MUST reject —
// the guard analogue of the planarvet planted-violation self-check. Each
// fixture is decoded by gen.DecodeWire, as planard decodes an inline
// graph. The filename encodes the expected rejection layer and class:
//
//	wire__<field>__<desc>.json   rejected by gen.Wire.Check with a
//	                             *gen.FieldError on <field>
//	guard__<reason>__<desc>.json passes the wire checks and builds, but
//	                             the guard rejects with Reason <reason>
//
// CI runs this test under -race; a fixture that is accepted, panics, or
// rejects with the wrong class fails the gate.

// corpusOptions pins the deterministic tester configuration every corpus
// verdict is defined against.
func corpusOptions() Options {
	return Options{Seed: 1, Exhaustive: true}
}

func TestAdversarialCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 8 {
		t.Fatalf("corpus has %d fixtures, want at least 8", len(files))
	}
	layers := map[string]int{}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		parts := strings.SplitN(name, "__", 3)
		if len(parts) != 3 {
			t.Errorf("%s: fixture name is not <layer>__<class>__<desc>.json", name)
			continue
		}
		layer, class := parts[0], parts[1]
		layers[layer]++
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			w, err := gen.DecodeWire(data)
			if err != nil {
				t.Fatalf("fixture is not wire JSON: %v", err)
			}
			switch layer {
			case "wire":
				err := w.Check()
				if err == nil {
					t.Fatal("wire check accepted a corrupted fixture")
				}
				var fe *gen.FieldError
				if !errors.As(err, &fe) {
					t.Fatalf("wire rejection is not a FieldError: %v", err)
				}
				if fe.Field != class {
					t.Fatalf("rejected on field %q, want %q (%v)", fe.Field, class, err)
				}
			case "guard":
				if err := w.Check(); err != nil {
					t.Fatalf("guard fixture failed the wire checks early: %v", err)
				}
				in, err := w.Build()
				if err != nil {
					t.Fatalf("guard fixture did not build: %v", err)
				}
				v, err := ValidateInstance(in, corpusOptions())
				if err != nil {
					t.Fatal(err)
				}
				if v.OK {
					t.Fatal("guard accepted a corrupted fixture")
				}
				if string(v.Witness.Reason) != class {
					t.Fatalf("rejected with reason %q, want %q (%s)", v.Witness.Reason, class, v.Witness.Detail)
				}
				if !errors.Is(v.Err(), ErrRejected) {
					t.Fatal("rejection does not match ErrRejected")
				}
			default:
				t.Fatalf("unknown corpus layer %q", layer)
			}
		})
	}
	if layers["wire"] == 0 || layers["guard"] == 0 {
		t.Fatalf("corpus must cover both layers, got %v", layers)
	}
}
