package pipeline

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"planardfs/internal/gen"
	"planardfs/internal/guard"
)

// FuzzAdmission drives the admission path planard runs on an inline graph
// (gen.DecodeWire → Wire.Check → Wire.Build → guard.ValidateInstance) and
// then builds every admitted input with Run, as the job worker does. For
// any bytes it must not panic; a rejection is either a JSON error, a
// *gen.FieldError from Check, or a guard verdict matching guard.ErrRejected;
// and every admitted input builds without error. Inputs above 200 vertices
// are skipped to keep each execution short. CI runs a -fuzztime 30s smoke
// of this on every push.
func FuzzAdmission(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join("..", "guard", "testdata", "corpus", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(corpus) == 0 {
		f.Fatal("no guard corpus fixtures found")
	}
	for _, p := range corpus {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, fam := range gen.Families {
		for _, n := range []int{1, 5, 16} {
			in, err := gen.ByName(fam, n, 3)
			if err != nil {
				continue // family rejects this n
			}
			data, err := gen.EncodeJSON(in)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := gen.DecodeWire(data)
		if err != nil || w.N > 200 {
			return
		}
		if err := w.Check(); err != nil {
			var fe *gen.FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("wire check rejected with %T, not a *gen.FieldError: %v", err, err)
			}
			return
		}
		in, err := w.Build()
		if err != nil {
			t.Fatalf("a wire that passed Check did not build: %v", err)
		}
		v, err := guard.ValidateInstance(in, guard.Options{Seed: 1})
		if err != nil {
			t.Fatalf("guard: %v", err)
		}
		if !v.OK {
			if !errors.Is(v.Err(), guard.ErrRejected) {
				t.Fatalf("guard rejection %v does not match ErrRejected", v.Err())
			}
			return
		}
		if _, err := Run(context.Background(), in, Options{Admitted: v}); err != nil {
			t.Fatalf("admitted input failed to build: %v", err)
		}
	})
}
